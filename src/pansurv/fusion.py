"""Cross-modal alignment via entropic optimal transport plus text-guided
transformer decoding.

The Sinkhorn solver scales a kernel by vectors (Cuturi 2013, "Sinkhorn
Distances"), absorbing a scaling into the log-domain potentials whenever it
leaves a fixed range (Schmitzer 2019, "Stabilized Sparse Scaling
Algorithms for Entropy Regularized Transport Problems"), so small eps
neither overflows nor empties the kernel. It is exposed two ways: as a
plain solver returning a TransportPlan, and as a differentiable graph
primitive whose backward replays the executed iterations in reverse
(unrolled-iteration gradients). Rows are exact after each u-update, so
convergence is judged on the columns alone, read from the next
iteration's first matrix-vector product, and the plan is built once, at
exit. The forward keeps, per iteration, only the scaling vectors and the
kernel each half-step used; the replay rebuilds the conditionals from
them. The ground cost is 1 - cosine similarity on a shared learned
projection; marginals are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class FusionError(ValueError):
    pass


@dataclass
class TransportPlan:
    matrix: np.ndarray      # (N_src, N_tgt), nonnegative
    converged: bool
    iterations: int
    violation: float        # max column violation at exit (rows are exact)


# A scaling outside [1/TAU, TAU] is absorbed into the potentials. A kernel
# rebuilt by a log-sum-exp half-step is at most 1, so products of accepted
# scalings and kernel entries stay far from overflow, and every entry that
# carries plan mass stays far above the subnormal range.
TAU = 1e100


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return m.squeeze(axis) + np.log(np.exp(a - m).sum(axis=axis))


def _check_marginals(mu, nu, n, m):
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    for name, v, size in (("mu", mu, n), ("nu", nu, m)):
        if v.shape != (size,):
            raise FusionError(f"{name} must have shape ({size},), got {v.shape}")
        if np.any(v <= 0) or abs(v.sum() - 1.0) > 1e-8:
            raise FusionError(f"{name} must be a positive probability vector")
    return mu, nu


def _scaling(marginal, k):
    """marginal / k, or None when a scaling is not finite or leaves
    [1/TAU, TAU] (NaN fails both comparisons)."""
    s = marginal / k
    return s if 1 / TAU <= s.min() and s.max() <= TAU else None


def _sinkhorn_iterate(C, mu, nu, eps, max_iter, tol, keep_history):
    """Sinkhorn-Knopp matrix scaling (Cuturi 2013) with absorption
    (Schmitzer 2019). The plan is u_i K_ij v_j on the kernel
    K = exp((f_i + g_j - C_ij) / eps) of the absorbed potentials f and g,
    which start at 0. An iteration is v = nu / (K^T u), then u = mu / (K v):
    two matrix-vector products. A half-step whose new scaling `_scaling`
    refuses is redone in the log domain: the other scaling is absorbed into
    its potential and set to 1, this side's potential comes from a
    log-sum-exp, and K is rebuilt from both, so its columns (or rows) sum to
    the marginal and it cannot overflow; the new scaling, near 1, is then
    taken on the rebuilt K, which keeps the rows exact.

    Row marginals are exact after each u-update, so only the columns are
    tested: iterate k's column sums v * (K^T u), with K^T u read from the
    next iteration's v half-step, and the plan is built once, at exit.
    tol=0 disables early stopping (fixed iteration count; smooth for
    gradient checks). The history holds, per iteration, the kernel and the
    vectors (u_prev, v) of the v half-step, then those (u, v) of the
    u half-step: each half-step's conditional is u K v / marginal.
    """
    n, m = C.shape
    f, g = np.zeros(n), np.zeros(m)
    u = np.ones(n)
    history = [] if keep_history else None
    converged = False
    # an overflowing kernel or a zero product only yields a refused scaling
    with np.errstate(over="ignore", divide="ignore"):
        K = np.exp(-C / eps)
        Ktu = u @ K
        for it in range(1, max_iter + 1):
            v = _scaling(nu, Ktu)
            if v is None:
                f, u = f + eps * np.log(u), np.ones(n)
                g = eps * (np.log(nu) - _logsumexp((f[:, None] - C) / eps, 0))
                K = np.exp((f[:, None] + g - C) / eps)
                v = nu / (u @ K)
            step = (K, u, v)
            u = _scaling(mu, K @ v)
            if u is None:
                g, v = g + eps * np.log(v), np.ones(m)
                f = eps * (np.log(mu) - _logsumexp((g - C) / eps, 1))
                K = np.exp((f[:, None] + g - C) / eps)
                u = mu / (K @ v)
            if keep_history:
                history.append(step + (K, u, v))
            Ktu = u @ K
            viol = np.abs(v * Ktu - nu).max()
            if tol > 0 and viol <= tol:
                converged = True
                break
    P = u[:, None] * K * v
    return P, history, it, viol, converged


def sinkhorn(cost, mu, nu, eps: float = 0.1, max_iter: int = 100,
             tol: float = 1e-6) -> TransportPlan:
    """Entropic OT plan between histograms mu and nu under `cost`.

    Non-convergence is reported in the plan (converged=False), not raised.
    """
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2:
        raise FusionError(f"cost must be a matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise FusionError("cost matrix contains non-finite entries")
    if eps <= 0 or max_iter < 1:
        raise FusionError(f"need eps > 0 and max_iter >= 1, got {eps}, {max_iter}")
    return sinkhorn_plan_op(Tensor(C), mu, nu, eps, max_iter, tol)[1]


def sinkhorn_plan_op(cost: Tensor, mu, nu, eps: float, max_iter: int,
                     tol: float) -> tuple[Tensor, TransportPlan]:
    """Differentiable transport plan; gradients flow to the cost matrix by
    replaying the executed iterations in reverse. The replay rebuilds each
    half-step's conditional u K v / marginal from the stored vectors, so its
    loop is two matrix-vector products per iteration; the outer products
    that dC needs are summed per kernel and multiplied by it once, at the
    end."""
    C = cost.data
    mu, nu = _check_marginals(mu, nu, C.shape[0], C.shape[1])
    P, history, it, viol, converged = _sinkhorn_iterate(
        C, mu, nu, eps, max_iter, tol, cost.requires_grad)
    out = ad._wrap(P, cost.requires_grad, "sinkhorn")
    if out.requires_grad:
        def _bw(G, cost=cost, P=P, history=history, eps=eps):
            dE = G * P
            df, dg = dE.sum(axis=1) / eps, dE.sum(axis=0) / eps
            outer = {}          # id(K) -> (K, left vectors, right vectors)
            for Ka, u_prev, v, Kb, u, vb in reversed(history):
                a = u * df / mu
                dg = dg - vb * (a @ Kb)
                c = v * dg / nu
                df = -u_prev * (Ka @ c)
                dg = 0.0
                for K, x, y in ((Kb, a, vb), (Ka, u_prev, c)):
                    _, xs, ys = outer.setdefault(id(K), (K, [], []))
                    xs.append(x)
                    ys.append(y)
            dC = -dE / eps
            for K, xs, ys in outer.values():
                dC += K * (np.array(xs).T @ np.array(ys))
            ad._acc(cost, dC)
        ad._record(out, _bw)
    info = TransportPlan(matrix=P, converged=converged, iterations=it,
                         violation=float(viol))
    return out, info


# ---------------------------------------------------------------------------
# OT-based attention + text-guided decoding
# ---------------------------------------------------------------------------

def init_linear(rng, fan_in: int, shape: tuple, scale: float = 1.0) -> Tensor:
    """A weight drawn from N(0, scale^2 / fan_in)."""
    return ad.parameter(scale * rng.standard_normal(shape) / np.sqrt(fan_in))


def init_fusion_params(rng, d_model: int, prefix: str, ffn_mult: int = 2) -> dict:
    p = {f"{prefix}.cost_w": init_linear(rng, d_model, (d_model, d_model))}
    p.update(init_decoder_layer(rng, d_model, f"{prefix}.dec", ffn_mult))
    return p


QK_SCALE = 0.2


def init_decoder_layer(rng, d_model: int, prefix: str, ffn_mult: int = 2,
                       batch: tuple = ()) -> dict:
    """Cross-attention + feed-forward decoder layer weights; `batch` adds a
    leading axis of structurally identical, unshared weight sets.

    Query/key projections start small (QK_SCALE), so attention opens
    near-uniform and the layer initially passes the mean of its
    value-projected KV rows - a linear readout the optimizer can use
    immediately; attention sharpens as q/k grow.
    """
    def vec(shape, value=0.0):
        return ad.parameter(np.full(batch + ((1,) if batch else ()) + shape, value))

    d, f = d_model, d_model * ffn_mult
    p = {}
    for w in ("wq", "wk", "wv", "wo"):
        p[f"{prefix}.{w}"] = init_linear(rng, d, batch + (d, d),
                                         QK_SCALE if w in ("wq", "wk") else 1.0)
        p[f"{prefix}.b{w[1]}"] = vec((d,))
    p[f"{prefix}.ffn_w1"] = init_linear(rng, d, batch + (d, f))
    p[f"{prefix}.ffn_b1"] = vec((f,))
    p[f"{prefix}.ffn_w2"] = init_linear(rng, f, batch + (f, d))
    p[f"{prefix}.ffn_b2"] = vec((d,))
    p[f"{prefix}.ln1_g"] = vec((d,), 1.0)
    p[f"{prefix}.ln1_b"] = vec((d,))
    p[f"{prefix}.ln2_g"] = vec((d,), 1.0)
    p[f"{prefix}.ln2_b"] = vec((d,))
    return p


def decoder_layer(queries: Tensor, kv: Tensor, params: dict, prefix: str,
                  n_heads: int = 4, key_mask=None) -> Tensor:
    """One transformer decoder layer: cross-attention then feed-forward,
    each with residual + layer norm. Broadcasts over leading weight axes.
    With kv = queries it is an encoder (self-attention) layer; `key_mask`
    is passed on to `autodiff.attention`."""
    if queries.data.shape[-1] != kv.data.shape[-1]:
        raise FusionError(f"query/KV dims differ: {queries.data.shape} vs {kv.data.shape}")
    q = ad.add(ad.matmul(queries, params[f"{prefix}.wq"]), params[f"{prefix}.bq"])
    k = ad.add(ad.matmul(kv, params[f"{prefix}.wk"]), params[f"{prefix}.bk"])
    v = ad.add(ad.matmul(kv, params[f"{prefix}.wv"]), params[f"{prefix}.bv"])
    a = ad.attention(q, k, v, n_heads=n_heads, key_mask=key_mask)
    a = ad.add(ad.matmul(a, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])
    h = ad.layer_norm(ad.add(queries, a),
                      params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"])
    f = ad.relu(ad.add(ad.matmul(h, params[f"{prefix}.ffn_w1"]),
                       params[f"{prefix}.ffn_b1"]))
    f = ad.add(ad.matmul(f, params[f"{prefix}.ffn_w2"]), params[f"{prefix}.ffn_b2"])
    return ad.layer_norm(ad.add(h, f),
                         params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"])


def ot_align(src: Tensor, txt: Tensor, params: dict, prefix: str,
             eps: float = 0.1, max_iter: int = 100,
             tol: float = 1e-6) -> tuple[Tensor, TransportPlan]:
    """Align a variable-length source bag onto the text slots.

    Cost is 1 - cosine similarity after a shared learned projection; the
    plan's columns are renormalized to sum 1, so each text slot receives a
    convex combination of source rows (equals N_tgt * T at convergence).
    """
    n_src = src.data.shape[0]
    n_tgt = txt.data.shape[0]
    if n_src == 0:
        raise FusionError("source bag is empty")
    if src.data.shape[-1] != txt.data.shape[-1]:
        raise FusionError(f"feature dims differ: {src.data.shape} vs {txt.data.shape}")
    w = params[f"{prefix}.cost_w"]
    ps = ad.l2_normalize(ad.matmul(src, w))
    pt = ad.l2_normalize(ad.matmul(txt, w))
    cost = ad.sub(1.0, ad.matmul(ps, ad.transpose(pt)))
    mu = np.full(n_src, 1.0 / n_src)
    nu = np.full(n_tgt, 1.0 / n_tgt)
    plan, info = sinkhorn_plan_op(cost, mu, nu, eps, max_iter, tol)
    col = ad.tsum(plan, axis=0, keepdims=True)
    weights = ad.div(plan, col)
    aligned = ad.matmul(ad.transpose(weights), src)
    return aligned, info


def text_guided_decode(queries: Tensor, kv: Tensor, params: dict, prefix: str,
                       n_heads: int = 4) -> Tensor:
    """Text features as queries, aligned modality features as key/value."""
    return decoder_layer(queries, kv, params, f"{prefix}.dec", n_heads=n_heads)
