"""Tensor-core unit tests: op semantics, gradients, and the optimizer."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pansurv import autodiff as ad
from pansurv.optim import AdamW

from conftest import gradcheck, max_rel_err, numeric_gradient


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                        ad.Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, ad.Tensor(np.zeros((2, 3))))

    def test_batched_broadcast(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-15)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_direct_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(ad.softmax(ad.Tensor(x)).data, expected, atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_and_sum(self, xs, c):
        x = np.array(xs)
        s1 = ad.softmax(ad.Tensor(x)).data
        s2 = ad.softmax(ad.Tensor(x + c)).data
        assert abs(s1.sum() - 1.0) < 1e-12
        assert np.abs(s1 - s2).max() < 1e-12


class TestBackward:
    def test_sum_of_squares(self, rng):
        x = ad.Tensor(rng.standard_normal(7), requires_grad=True)
        with ad.tape_scope() as tape:
            out = ad.tsum(ad.mul(x, x))
        ad.backward(tape, out)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_unreachable_parameter_gets_no_gradient(self, rng):
        x = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        unused = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        with ad.tape_scope() as tape:
            out = ad.tsum(x)
        ad.backward(tape, out)
        assert unused.grad is None  # read as zero downstream

    def test_non_scalar_output_rejected(self, rng):
        x = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        with ad.tape_scope() as tape:
            out = ad.mul(x, 2.0)
        with pytest.raises(ad.GraphError):
            ad.backward(tape, out)

    def test_three_layer_composition_matches_finite_differences(self, rng):
        w1 = rng.standard_normal((5, 6))
        w2 = rng.standard_normal((6, 4))
        w3 = rng.standard_normal((4, 1))
        x = rng.standard_normal((3, 5))

        def build(t):
            h1 = ad.relu(ad.matmul(t["x"], t["w1"]))
            h2 = ad.sigmoid(ad.matmul(h1, t["w2"]))
            return ad.tsum(ad.matmul(h2, t["w3"]))

        gradcheck(build, {"x": x, "w1": w1, "w2": w2, "w3": w3}, tol=1e-5)

    def test_fanout_accumulates(self, rng):
        x = ad.Tensor(rng.standard_normal(4), requires_grad=True)
        with ad.tape_scope() as tape:
            y = ad.mul(x, 3.0)
            out = ad.tsum(ad.add(y, y))
        ad.backward(tape, out)
        np.testing.assert_allclose(x.grad, np.full(4, 6.0), atol=1e-15)


class TestSever:
    """ad.sever: identity forward; its backward sweeps the nodes recorded
    since the mark and drops what reaches the cut."""

    @staticmethod
    def inputs(rng):
        return {"u": rng.standard_normal((3, 4)), "wc": rng.standard_normal((4, 4)),
                "x": rng.standard_normal((3, 4)), "w": rng.standard_normal((4, 2))}

    @staticmethod
    def build(t, r, severed_cut=None, with_agent=True):
        """Main loss sum(y^2) plus an agent term sum(r * y) that reads y
        through sever(); with `severed_cut` the agent instead recomputes y
        from that constant cut."""
        cut = ad.sigmoid(ad.matmul(t["u"], t["wc"]))
        mark = ad.tape_mark()

        def branch(c):
            return ad.sigmoid(ad.matmul(ad.add(t["x"], c), t["w"]))

        y = branch(cut)
        agent = ad.sever(y, cut, mark) if severed_cut is None else branch(severed_cut)
        loss = ad.tsum(ad.mul(y, y))
        if with_agent:
            loss = ad.add(loss, ad.tsum(ad.mul(agent, r)))
        return loss, y

    def test_matches_finite_differences_with_cut_held_constant(self, rng):
        arrays = self.inputs(rng)
        r = rng.standard_normal((3, 2))
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with ad.tape_scope() as tape:
            loss, _ = self.build(tensors, r)
        ad.backward(tape, loss)
        cut0 = ad.sigmoid(ad.matmul(ad.Tensor(arrays["u"]), ad.Tensor(arrays["wc"])))
        for name, arr in arrays.items():
            def f(v, name=name):
                local = {k: ad.Tensor(a) for k, a in arrays.items()}
                local[name] = ad.Tensor(v)
                return self.build(local, r, severed_cut=cut0)[0].item()
            numeric = numeric_gradient(f, arr)
            assert max_rel_err(tensors[name].grad, numeric) < 1e-6, name

    def test_parked_gradients_survive_nested_sweep(self, rng):
        arrays = self.inputs(rng)
        r = rng.standard_normal((3, 2))
        grads = []
        for with_agent in (False, True):
            tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
            with ad.tape_scope() as tape:
                loss, y = self.build(tensors, r, with_agent=with_agent)
            ad.backward(tape, loss)
            grads.append([t.grad for t, _ in tape.nodes[:4]])  # cut's ops, add, matmul
            grads[-1].append(y.grad)
        # every node before the sever keeps the main loss's gradient only
        for plain, severed in zip(*grads):
            assert np.array_equal(plain, severed)

    def test_sweep_calls_tape_entries_as_they_stand(self, rng):
        arrays = self.inputs(rng)
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        calls = []
        with ad.tape_scope() as tape:
            loss, y = self.build(tensors, rng.standard_normal((3, 2)))
        i = next(i for i, (t, _) in enumerate(tape.nodes) if t is y)
        _, fn = tape.nodes[i]
        tape.nodes[i] = (y, lambda g: (calls.append(g), fn(g)))
        ad.backward(tape, loss)
        assert len(calls) == 2  # the nested sweep, then the outer one

    def test_tape_is_freed_without_the_cycle_collector(self, rng):
        tensors = {k: ad.Tensor(v, requires_grad=True)
                   for k, v in self.inputs(rng).items()}
        gc.disable()
        try:
            with ad.tape_scope() as tape:
                loss, _ = self.build(tensors, rng.standard_normal((3, 2)))
            ad.backward(tape, loss)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()

    def test_inference_records_nothing(self, rng):
        x = ad.Tensor(rng.standard_normal((2, 3)))
        cut = ad.Tensor(rng.standard_normal(3))
        assert ad.tape_mark() is None
        out = ad.sever(x, cut, ad.tape_mark())
        assert np.array_equal(out.data, x.data) and not out.requires_grad
        with ad.tape_scope() as tape:
            out = ad.sever(x, cut, ad.tape_mark())
        assert tape.nodes == [] and np.array_equal(out.data, x.data)


class TestElementwiseGradients:
    """Central-difference checks for each primitive, randomized inputs."""

    def test_arithmetic(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 3.0  # away from 0 for div
        gradcheck(lambda t: ad.tsum(ad.add(t["a"], t["b"])), {"a": a, "b": b})
        gradcheck(lambda t: ad.tsum(ad.sub(t["a"], t["b"])), {"a": a, "b": b})
        gradcheck(lambda t: ad.tsum(ad.mul(t["a"], t["b"])), {"a": a, "b": b})
        gradcheck(lambda t: ad.tsum(ad.div(t["a"], t["b"])), {"a": a, "b": b})
        gradcheck(lambda t: ad.tsum(ad.neg(t["a"])), {"a": a})

    def test_broadcasting_gradients(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((1, 4))
        gradcheck(lambda t: ad.tsum(ad.add(t["a"], t["b"])), {"a": a, "b": b})
        gradcheck(lambda t: ad.tsum(ad.mul(t["a"], t["b"])), {"a": a, "b": b})

    def test_unary(self, rng):
        x = rng.standard_normal((2, 5))
        pos = np.abs(rng.standard_normal((2, 5))) + 0.5
        gradcheck(lambda t: ad.tsum(ad.exp(t["x"])), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.log(t["x"])), {"x": pos})
        gradcheck(lambda t: ad.tsum(ad.sigmoid(t["x"])), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.relu(t["x"])), {"x": x + 0.05})

    def test_reductions_and_shapes(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        gradcheck(lambda t: ad.tmean(ad.matmul(t["x"], t["w"])), {"x": x, "w": w})
        gradcheck(lambda t: ad.tsum(ad.tmean(t["x"], axis=1)), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.transpose(t["x"])), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.reshape(t["x"], (2, 6))), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.narrow(t["x"], 0, 1, 2)), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.mul(ad.cumsum(ad.reshape(t["x"], (12,))),
                                           np.arange(12.0))), {"x": x})

    def test_concat_gather_pick(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 3))
        gradcheck(lambda t: ad.tsum(ad.mul(ad.concat([t["a"], t["b"]], axis=0),
                                           np.arange(18.0).reshape(6, 3))),
                  {"a": a, "b": b})
        table = rng.standard_normal((6, 3))
        gradcheck(lambda t: ad.tsum(ad.gather(t["tbl"], [0, 2, 2, 5])), {"tbl": table})
        v = rng.standard_normal(5)
        gradcheck(lambda t: ad.pick(t["v"], 3), {"v": v})

    def test_softmax_family(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))
        gradcheck(lambda t: ad.tsum(ad.mul(ad.softmax(t["x"], axis=-1), w)), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.mul(ad.log_softmax(t["x"], axis=-1), w)), {"x": x})
        gradcheck(lambda t: ad.tsum(ad.mul(ad.l2_normalize(t["x"]), w)), {"x": x})

    def test_layer_norm(self, rng):
        x = rng.standard_normal((4, 8))
        g = rng.standard_normal(8) + 1.0
        b = rng.standard_normal(8)
        w = rng.standard_normal((4, 8))
        gradcheck(lambda t: ad.tsum(ad.mul(
            ad.layer_norm(t["x"], t["g"], t["b"]), w)),
            {"x": x, "g": g, "b": b})

    def test_masked_mean(self, rng):
        x = rng.standard_normal((2, 5, 3))
        mask = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 0, 0]], dtype=float)[:, :, None]
        w = rng.standard_normal((2, 3))
        gradcheck(lambda t: ad.tsum(ad.mul(ad.masked_mean(t["x"], mask, axis=1), w)),
                  {"x": x})

    def test_attention(self, rng):
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        w = rng.standard_normal((3, 8))
        gradcheck(lambda t: ad.tsum(ad.mul(
            ad.attention(t["q"], t["k"], t["v"], n_heads=2), w)),
            {"q": q, "k": k, "v": v}, tol=1e-4)

    def test_attention_masked(self, rng):
        q = rng.standard_normal((2, 4, 8))
        k = rng.standard_normal((2, 4, 8))
        v = rng.standard_normal((2, 4, 8))
        mask = np.array([[1, 1, 0, 1], [1, 0, 0, 0]], dtype=float)
        w = rng.standard_normal((2, 4, 8))
        gradcheck(lambda t: ad.tsum(ad.mul(
            ad.attention(t["q"], t["k"], t["v"], n_heads=2, key_mask=mask), w)),
            {"q": q, "k": k, "v": v}, tol=1e-4)

    def test_attention_masked_keys_have_zero_weight(self, rng):
        q = rng.standard_normal((2, 6))
        k = rng.standard_normal((3, 6))
        v = rng.standard_normal((3, 6))
        mask = np.array([1.0, 1.0, 0.0])
        out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), key_mask=mask)
        v2 = v.copy()
        v2[2] = 1e6  # masked value must be invisible
        out2 = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v2), key_mask=mask)
        np.testing.assert_array_equal(out.data, out2.data)


class TestNumericalContracts:
    def test_layer_norm_moments_before_affine(self, rng):
        x = rng.standard_normal((50, 16)) * 3.0 + 1.0
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16)))
        mean = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-8

    def test_log_clamps_at_floor(self):
        out = ad.log(ad.Tensor([0.0, 1e-15, 1.0]))
        assert out.data[0] == np.log(1e-12)
        assert out.data[1] == np.log(1e-12)
        x = ad.Tensor([0.0], requires_grad=True)
        with ad.tape_scope() as tape:
            y = ad.tsum(ad.log(x))
        ad.backward(tape, y)
        assert x.grad[0] == 0.0  # flat below the floor

    def test_sigmoid_extreme_inputs_finite(self):
        out = ad.sigmoid(ad.Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_forward_determinism(self, rng):
        x = rng.standard_normal((4, 4))

        def run():
            return ad.attention(ad.Tensor(x), ad.Tensor(x), ad.Tensor(x), n_heads=2).data

        a, b = run(), run()
        assert np.array_equal(a, b)


class TestAdamW:
    def _params(self, values):
        return {"w": ad.parameter(np.array(values))}

    def test_zero_grad_zero_decay_is_identity(self):
        p = self._params([1.0, -2.0, 3.0])
        opt = AdamW(p, lr=0.01, weight_decay=0.0)
        before = p["w"].data.copy()
        for _ in range(3):
            opt.step()
        np.testing.assert_array_equal(p["w"].data, before)

    def test_decoupled_decay_scales_parameters(self):
        p = self._params([1.0, -2.0, 3.0])
        opt = AdamW(p, lr=0.01, weight_decay=0.1)
        before = p["w"].data.copy()
        opt.step()
        np.testing.assert_allclose(p["w"].data, before * (1 - 0.01 * 0.1), rtol=1e-15)

    def test_single_step_magnitude_close_to_lr(self):
        # m_hat = 1, v_hat = 1 after one step on g=1, so the update is
        # lr / (1 + eps) regardless of lr.
        p = self._params([0.5])
        p["w"].grad = np.array([1.0])
        opt = AdamW(p, lr=2e-4, weight_decay=0.0)
        opt.step()
        delta = 0.5 - p["w"].data[0]
        np.testing.assert_allclose(delta, 2e-4 / (1 + 1e-8), rtol=1e-12)
        assert abs(delta - 2e-4) < 1e-9

    def test_gradient_shape_mismatch_raises(self):
        p = self._params([1.0, 2.0])
        p["w"].grad = np.zeros(3)
        opt = AdamW(p)
        with pytest.raises(ad.ShapeError):
            opt.step()

    def test_moments_match_parameter_shapes(self, rng):
        p = {"a": ad.parameter(rng.standard_normal((3, 4))),
             "b": ad.parameter(rng.standard_normal(5))}
        opt = AdamW(p)
        assert opt.m["a"].shape == (3, 4) and opt.v["b"].shape == (5,)
        t0 = opt.step_count
        opt.step()
        assert opt.step_count == t0 + 1
