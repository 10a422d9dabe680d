"""Cross-modal alignment via entropic optimal transport plus text-guided
transformer decoding.

The Sinkhorn solver runs in the log domain and is exposed two ways: as a
plain solver returning a TransportPlan, and as a differentiable graph
primitive whose backward replays the executed iterations in reverse
(unrolled-iteration gradients). The forward keeps, per iteration, the
scaled matrices (f - C)/eps and (g - C)/eps with their log-sum-exps, so the
replay reuses them instead of recomputing (same expressions, same bits).
The ground cost is 1 - cosine similarity on a shared learned projection;
marginals are uniform.
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
    violation: float        # max marginal violation at exit


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _check_marginals(mu, nu, n, m):
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    for name, v, size in (("mu", mu, n), ("nu", nu, m)):
        if v.shape != (size,):
            raise FusionError(f"{name} must have shape ({size},), got {v.shape}")
        if np.any(v <= 0) or abs(v.sum() - 1.0) > 1e-8:
            raise FusionError(f"{name} must be a positive probability vector")
    return mu, nu


def _sinkhorn_iterate(C, mu, nu, eps, max_iter, tol, keep_history):
    """Log-domain Sinkhorn-Knopp scaling of exp(-C/eps).

    Row marginals are exact after each f-update; convergence is judged on
    the worst row/column violation of the current plan. tol=0 disables
    early stopping (fixed iteration count; smooth for gradient checks).
    """
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f = np.zeros(C.shape[0])
    history = [] if keep_history else None
    converged = False
    viol = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        A = (f[:, None] - C) / eps
        lA = _logsumexp(A, axis=0)
        g = eps * (log_nu - lA)
        B = (g[None, :] - C) / eps
        lB = _logsumexp(B, axis=1)
        f = eps * (log_mu - lB)
        if keep_history:
            history.append((A, lA, B, lB))
        P = np.exp((f[:, None] + g[None, :] - C) / eps)
        viol = max(np.abs(P.sum(axis=0) - nu).max(),
                   np.abs(P.sum(axis=1) - mu).max())
        if tol > 0 and viol <= tol:
            converged = True
            break
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
    replaying the executed iterations in reverse."""
    C = cost.data
    mu, nu = _check_marginals(mu, nu, C.shape[0], C.shape[1])
    P, history, it, viol, converged = _sinkhorn_iterate(
        C, mu, nu, eps, max_iter, tol, cost.requires_grad)
    out = ad._wrap(P, cost.requires_grad, "sinkhorn")
    if out.requires_grad:
        def _bw(G, cost=cost, P=P, history=history, eps=eps):
            dE = G * P
            dC = -dE / eps
            df = dE.sum(axis=1) / eps
            dg = dE.sum(axis=0) / eps
            for A, lA, B, lB in reversed(history):
                sB = np.exp(B - lB[:, None])
                T1 = df[:, None] * sB
                dC += T1
                dg = dg - T1.sum(axis=0)
                sA = np.exp(A - lA[None, :])
                T2 = sA * dg[None, :]
                dC += T2
                df = -T2.sum(axis=1)
                dg = np.zeros_like(dg)
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
