"""Optimal-transport alignment and text-guided decoding tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pansurv import autodiff as ad
from pansurv import fusion

from conftest import gradcheck


def long_run_sinkhorn(C, mu, nu, eps, iters=20000):
    """Straight fixed-point iteration in probability space, run long."""
    K = np.exp(-C / eps)
    v = np.ones(C.shape[1])
    for _ in range(iters):
        u = mu / (K @ v)
        v = nu / (K.T @ u)
    return u[:, None] * K * v[None, :]


def row_logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def recomputing_plan_gradient(C, mu, nu, eps, max_iter, tol, G):
    """Reference on the (N_src, N_tgt) cost: the solver tests both marginals
    of a plan built every iteration, and the replay recomputes both
    log-sum-exps per iteration from the stored potentials. Returns the plan,
    d<G, P>/dC, the iteration count and the converged flag."""
    log_mu, log_nu = np.log(mu), np.log(nu)
    f = np.zeros(C.shape[0])
    history = []
    converged = False
    for it in range(1, max_iter + 1):
        f_prev = f
        g = eps * (log_nu - row_logsumexp((f_prev[:, None] - C) / eps, axis=0))
        f = eps * (log_mu - row_logsumexp((g[None, :] - C) / eps, axis=1))
        history.append((f_prev, g))
        P = np.exp((f[:, None] + g[None, :] - C) / eps)
        viol = max(np.abs(P.sum(axis=0) - nu).max(), np.abs(P.sum(axis=1) - mu).max())
        if tol > 0 and viol <= tol:
            converged = True
            break
    dE = G * P
    dC = -dE / eps
    df = dE.sum(axis=1) / eps
    dg = dE.sum(axis=0) / eps
    for f_prev, g in reversed(history):
        B = (g[None, :] - C) / eps
        sB = np.exp(B - row_logsumexp(B, axis=1)[:, None])
        T1 = df[:, None] * sB
        dC += T1
        dg = dg - T1.sum(axis=0)
        A = (f_prev[:, None] - C) / eps
        sA = np.exp(A - row_logsumexp(A, axis=0)[None, :])
        T2 = sA * dg[None, :]
        dC += T2
        df = -T2.sum(axis=1)
        dg = np.zeros_like(dg)
    return P, dC, it, converged


class TestSinkhorn:
    def test_constant_cost_gives_outer_product(self, rng):
        mu = rng.random(5) + 0.1
        mu /= mu.sum()
        nu = rng.random(3) + 0.1
        nu /= nu.sum()
        plan = fusion.sinkhorn(np.full((5, 3), 2.7), mu, nu, eps=0.1,
                               max_iter=500, tol=1e-12)
        assert plan.converged
        np.testing.assert_allclose(plan.matrix, np.outer(mu, nu), atol=1e-10)

    def test_marginals_match_within_tol(self, rng):
        for _ in range(25):
            n, m = rng.integers(2, 9, size=2)
            C = rng.random((n, m))
            mu = np.full(n, 1.0 / n)
            nu = np.full(m, 1.0 / m)
            plan = fusion.sinkhorn(C, mu, nu, eps=0.2, max_iter=2000, tol=1e-8)
            assert plan.converged
            assert np.abs(plan.matrix.sum(axis=1) - mu).max() <= 1e-8
            assert np.abs(plan.matrix.sum(axis=0) - nu).max() <= 1e-8
            assert abs(plan.matrix.sum() - 1.0) <= 1e-8
            assert np.all(plan.matrix >= 0)

    def test_2x2_against_long_run_oracle(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu = nu = np.array([0.5, 0.5])
        plan = fusion.sinkhorn(C, mu, nu, eps=0.1, max_iter=5000, tol=1e-14)
        oracle = long_run_sinkhorn(C, mu, nu, eps=0.1)
        np.testing.assert_allclose(plan.matrix, oracle, atol=1e-14)

    def test_transposition_symmetry(self, rng):
        for _ in range(10):
            C = rng.random((4, 6))
            mu = rng.random(4) + 0.2
            mu /= mu.sum()
            nu = rng.random(6) + 0.2
            nu /= nu.sum()
            a = fusion.sinkhorn(C, mu, nu, eps=0.15, max_iter=5000, tol=1e-13)
            b = fusion.sinkhorn(C.T, nu, mu, eps=0.15, max_iter=5000, tol=1e-13)
            np.testing.assert_allclose(b.matrix, a.matrix.T, atol=1e-10)

    def test_epsilon_annealing_concentrates_on_assignment(self, rng):
        checked = 0
        while checked < 12:
            C = rng.random((4, 4))
            best = min(itertools.permutations(range(4)),
                       key=lambda p: sum(C[i, p[i]] for i in range(4)))
            costs = sorted(sum(C[i, p[i]] for i in range(4))
                           for p in itertools.permutations(range(4)))
            if costs[1] - costs[0] < 0.05:
                continue  # optimum must be clearly unique
            checked += 1
            mu = nu = np.full(4, 0.25)
            masses = []
            for eps in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
                plan = fusion.sinkhorn(C, mu, nu, eps=eps, max_iter=20000, tol=1e-10)
                masses.append(sum(plan.matrix[i, best[i]] for i in range(4)))
            assert all(b >= a - 1e-9 for a, b in zip(masses, masses[1:])), masses
            assert masses[-1] > 0.9  # near-assignment once eps is small

    def test_non_probability_marginals_rejected(self):
        C = np.zeros((2, 2))
        with pytest.raises(fusion.FusionError):
            fusion.sinkhorn(C, np.array([0.7, 0.7]), np.array([0.5, 0.5]))
        with pytest.raises(fusion.FusionError):
            fusion.sinkhorn(C, np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_non_finite_cost_rejected(self):
        C = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(fusion.FusionError):
            fusion.sinkhorn(C, np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_non_convergence_reported_not_raised(self, rng):
        C = rng.random((6, 6))
        plan = fusion.sinkhorn(C, np.full(6, 1 / 6), np.full(6, 1 / 6),
                               eps=0.01, max_iter=1, tol=1e-12)
        assert not plan.converged
        assert plan.iterations == 1
        assert plan.violation > 1e-12

    def test_plan_gradient_matches_finite_differences(self, rng):
        C = rng.random((4, 3))
        mu = np.full(4, 0.25)
        nu = np.full(3, 1 / 3)
        w = rng.standard_normal((4, 3))

        def build(t):
            plan, _ = fusion.sinkhorn_plan_op(t["C"], mu, nu, eps=0.1,
                                              max_iter=20, tol=0.0)
            return ad.tsum(ad.mul(plan, w))

        gradcheck(build, {"C": C}, tol=1e-5)

    @pytest.mark.parametrize("n", [1, 7, 32, 129, 1000])
    @pytest.mark.parametrize("tol,max_iter", [(1e-6, 100), (0.0, 25)])
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 6), eps=st.sampled_from([0.03, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_cached_replay_equals_recomputing_replay(self, n, tol, max_iter, m, eps, seed):
        rng = np.random.default_rng(seed)
        C = 1.0 - rng.uniform(-1.0, 1.0, (n, m))
        mu, nu = rng.random(n) + 0.1, rng.random(m) + 0.1
        mu, nu = mu / mu.sum(), nu / nu.sum()
        G = rng.standard_normal((n, m))
        cost = ad.Tensor(C, requires_grad=True)
        with ad.tape_scope() as tape:
            plan, info = fusion.sinkhorn_plan_op(cost, mu, nu, eps=eps,
                                                 max_iter=max_iter, tol=tol)
            loss = ad.tsum(ad.mul(plan, G))
        ad.backward(tape, loss)
        P_ref, dC_ref, it_ref, converged_ref = recomputing_plan_gradient(
            C, mu, nu, eps, max_iter, tol, G)
        assert (info.iterations, info.converged) == (it_ref, converged_ref)
        if tol == 0:
            assert (info.iterations, info.converged) == (max_iter, False)
        if m > 1:
            # numpy sums the oracle's strided source axis and its rows of up
            # to 7 targets in index order, as the solver does: the bits agree
            assert np.array_equal(plan.data, P_ref)
            assert np.array_equal(cost.grad, dC_ref)
        else:
            # one target makes the oracle's source axis contiguous, summed
            # pairwise; the plan is then mu whatever the cost, so the gradient
            # is rounding, measured against |G * P| / eps, the scale of its terms
            assert np.abs(plan.data - P_ref).max() <= 1e-12 * P_ref.max()
            assert (np.abs(cost.grad - dC_ref).max()
                    <= 1e-12 * np.abs(G * P_ref).max() / eps)
        true_violation = max(np.abs(plan.data.sum(axis=0) - nu).max(),
                             np.abs(plan.data.sum(axis=1) - mu).max())
        assert abs(info.violation - true_violation) <= 1e-14


class TestOtAlign:
    D = 8

    def _params(self, rng):
        return fusion.init_fusion_params(rng, self.D, "fuse_p")

    def test_single_text_token_gives_mean(self, rng):
        params = self._params(rng)
        src = ad.Tensor(rng.standard_normal((7, self.D)))
        txt = ad.Tensor(rng.standard_normal((1, self.D)))
        aligned, info = fusion.ot_align(src, txt, params, "fuse_p",
                                        max_iter=200, tol=1e-10)
        np.testing.assert_allclose(aligned.data[0], src.data.mean(axis=0), atol=1e-9)

    def test_output_shape_invariant_to_bag_size(self, rng):
        params = self._params(rng)
        txt = ad.Tensor(rng.standard_normal((4, self.D)))
        for n in (1, 10, 1000):
            src = ad.Tensor(rng.standard_normal((n, self.D)))
            aligned, _ = fusion.ot_align(src, txt, params, "fuse_p")
            assert aligned.data.shape == (4, self.D)

    def test_rows_in_convex_hull_of_source(self, rng):
        linprog = pytest.importorskip("scipy.optimize").linprog
        params = self._params(rng)
        for _ in range(5):
            src = ad.Tensor(rng.standard_normal((6, self.D)))
            txt = ad.Tensor(rng.standard_normal((4, self.D)))
            aligned, _ = fusion.ot_align(src, txt, params, "fuse_p",
                                         max_iter=500, tol=1e-10)
            for row in aligned.data:
                # feasibility LP: lambda >= 0, sum lambda = 1, src^T lambda = row
                a_eq = np.vstack([src.data.T, np.ones(6)])
                b_eq = np.concatenate([row, [1.0]])
                res = linprog(np.zeros(6), A_eq=a_eq, b_eq=b_eq,
                              bounds=[(0, None)] * 6, method="highs")
                assert res.status == 0, "aligned row left the convex hull"

    def test_empty_source_rejected(self, rng):
        params = self._params(rng)
        with pytest.raises(fusion.FusionError):
            fusion.ot_align(ad.Tensor(np.zeros((0, self.D))),
                            ad.Tensor(np.zeros((4, self.D))), params, "fuse_p")

    def test_gradients_through_full_fusion_path(self, rng):
        params = self._params(rng)
        src = rng.standard_normal((5, self.D))
        txt = rng.standard_normal((4, self.D))
        w = rng.standard_normal((4, self.D))

        def build(t):
            aligned, _ = fusion.ot_align(t["src"], t["txt"], params, "fuse_p",
                                         eps=0.1, max_iter=20, tol=0.0)
            fused = fusion.text_guided_decode(t["txt"], aligned, params, "fuse_p",
                                              n_heads=2)
            return ad.tsum(ad.mul(fused, w))

        gradcheck(build, {"src": src, "txt": txt}, tol=1e-4)

    def test_cost_projection_receives_gradient(self, rng):
        params = self._params(rng)
        src = ad.Tensor(rng.standard_normal((5, self.D)))
        txt = ad.Tensor(rng.standard_normal((4, self.D)))
        with ad.tape_scope() as tape:
            aligned, _ = fusion.ot_align(src, txt, params, "fuse_p")
            out = ad.tsum(aligned)
        ad.backward(tape, out)
        assert params["fuse_p.cost_w"].grad is not None
        assert np.abs(params["fuse_p.cost_w"].grad).max() > 0


class TestTextGuidedDecode:
    D = 8

    def _params(self, rng):
        return fusion.init_fusion_params(rng, self.D, "fuse_g")

    def test_single_kv_row_attention_is_deterministic_mix(self, rng):
        params = self._params(rng)
        q = ad.Tensor(rng.standard_normal((4, self.D)))
        kv = ad.Tensor(rng.standard_normal((1, self.D)))
        # softmax over one key is 1: the attention block output before the
        # residual equals that value row transformed by Wv then Wo.
        vv = kv.data @ params["fuse_g.dec.wv"].data + params["fuse_g.dec.bv"].data
        expected = vv @ params["fuse_g.dec.wo"].data + params["fuse_g.dec.bo"].data
        att = ad.attention(
            ad.add(ad.matmul(q, params["fuse_g.dec.wq"]), params["fuse_g.dec.bq"]),
            ad.add(ad.matmul(kv, params["fuse_g.dec.wk"]), params["fuse_g.dec.bk"]),
            ad.add(ad.matmul(kv, params["fuse_g.dec.wv"]), params["fuse_g.dec.bv"]),
            n_heads=4)
        got = att.data @ params["fuse_g.dec.wo"].data + params["fuse_g.dec.bo"].data
        np.testing.assert_allclose(got, np.broadcast_to(expected, got.shape), atol=1e-12)

    def test_output_shape(self, rng):
        params = self._params(rng)
        out = fusion.text_guided_decode(ad.Tensor(rng.standard_normal((4, self.D))),
                                        ad.Tensor(rng.standard_normal((4, self.D))),
                                        params, "fuse_g")
        assert out.data.shape == (4, self.D)

    def test_dimension_mismatch_rejected(self, rng):
        params = self._params(rng)
        with pytest.raises(fusion.FusionError):
            fusion.text_guided_decode(ad.Tensor(np.zeros((4, self.D))),
                                      ad.Tensor(np.zeros((4, self.D + 2))),
                                      params, "fuse_g")

    def test_gradient_wrt_queries(self, rng):
        params = self._params(rng)
        kv = rng.standard_normal((4, self.D))
        w = rng.standard_normal((4, self.D))

        def build(t):
            out = fusion.text_guided_decode(t["q"], ad.Tensor(kv), params, "fuse_g",
                                            n_heads=2)
            return ad.tsum(ad.mul(out, w))

        gradcheck(build, {"q": rng.standard_normal((4, self.D))}, tol=1e-5)
