"""Dense-tensor compute with reverse-mode automatic differentiation.

A Tensor wraps a float64 numpy array. Operations executed while a Tape is
active append backward closures in execution order, so the tape itself is a
valid topological order and backward() is a single reverse sweep. Without an
active tape, operations are plain numpy (inference mode).

All arrays are double precision. Logarithm arguments are clamped to
LOG_FLOOR so losses on probabilities that reach 0 stay finite.
"""

from __future__ import annotations

import weakref

import numpy as np

LOG_FLOOR = 1e-12
_NEG_INF = -1e30  # additive mask bias; finite so max-subtraction stays NaN-free

_tape = None


class ShapeError(ValueError):
    """Operand shapes violate an operation's precondition."""


class GraphError(RuntimeError):
    """Backward called on an invalid target (e.g. non-scalar output)."""


class Tape:
    """Records (output, backward_closure) pairs in execution order."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes = []


class tape_scope:
    """Context manager activating a fresh tape; yields it."""

    __slots__ = ("_prev", "tape")

    def __enter__(self):
        global _tape
        self._prev = _tape
        self.tape = Tape()
        _tape = self.tape
        return self.tape

    def __exit__(self, *exc):
        global _tape
        _tape = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, grad={self.requires_grad})"

    # arithmetic sugar; scalars and arrays are treated as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def parameter(data, name=None) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(data, requires_grad, opname) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad and _tape is not None
    t.grad = None
    t.name = opname
    return t


def _record(out, fn):
    _tape.nodes.append((out, fn))


def _acc(t, g):
    # out-of-place accumulation: aliased first contributions stay intact
    t.grad = g if t.grad is None else t.grad + g


def _unbcast(g, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _wrap(a.data + b.data, a.requires_grad or b.requires_grad, "add")
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _acc(a, _unbcast(g, a.data.shape))
            if b.requires_grad:
                _acc(b, _unbcast(g, b.data.shape))
        _record(out, _bw)
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _wrap(a.data - b.data, a.requires_grad or b.requires_grad, "sub")
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _acc(a, _unbcast(g, a.data.shape))
            if b.requires_grad:
                _acc(b, _unbcast(-g, b.data.shape))
        _record(out, _bw)
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _wrap(a.data * b.data, a.requires_grad or b.requires_grad, "mul")
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _acc(a, _unbcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _acc(b, _unbcast(g * a.data, b.data.shape))
        _record(out, _bw)
    return out


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _wrap(a.data / b.data, a.requires_grad or b.requires_grad, "div")
    if out.requires_grad:
        def _bw(g, a=a, b=b):
            if a.requires_grad:
                _acc(a, _unbcast(g / b.data, a.data.shape))
            if b.requires_grad:
                _acc(b, _unbcast(-g * a.data / (b.data * b.data), b.data.shape))
        _record(out, _bw)
    return out


def neg(a):
    a = as_tensor(a)
    out = _wrap(-a.data, a.requires_grad, "neg")
    if out.requires_grad:
        def _bw(g, a=a):
            _acc(a, -g)
        _record(out, _bw)
    return out


# ---------------------------------------------------------------------------
# linear algebra / shape
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {A.shape} and {B.shape}")
    out = _wrap(A @ B, a.requires_grad or b.requires_grad, "matmul")
    if out.requires_grad:
        def _bw(g, a=a, b=b, A=A, B=B):
            if a.requires_grad:
                _acc(a, _unbcast(g @ B.swapaxes(-1, -2), A.shape))
            if b.requires_grad:
                _acc(b, _unbcast(A.swapaxes(-1, -2) @ g, B.shape))
        _record(out, _bw)
    return out


def transpose(a):
    """Swap the last two axes."""
    a = as_tensor(a)
    out = _wrap(a.data.swapaxes(-1, -2), a.requires_grad, "transpose")
    if out.requires_grad:
        def _bw(g, a=a):
            _acc(a, g.swapaxes(-1, -2))
        _record(out, _bw)
    return out


def reshape(a, shape):
    a = as_tensor(a)
    out = _wrap(a.data.reshape(shape), a.requires_grad, "reshape")
    if out.requires_grad:
        def _bw(g, a=a, s=a.data.shape):
            _acc(a, g.reshape(s))
        _record(out, _bw)
    return out


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    out = _wrap(out_data, req, "concat")
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _bw(g, tensors=tensors, offsets=offsets, axis=axis):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    _acc(t, g[tuple(idx)])
        _record(out, _bw)
    return out


def narrow(a, axis, start, length):
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = _wrap(a.data[idx], a.requires_grad, "narrow")
    if out.requires_grad:
        def _bw(g, a=a, idx=idx):
            full = np.zeros_like(a.data)
            full[idx] = g
            _acc(a, full)
        _record(out, _bw)
    return out


def gather(a, indices, axis=0):
    """Embedding-style lookup: select rows (entries) along an axis."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)
    out = _wrap(np.take(a.data, indices, axis=axis), a.requires_grad, "gather")
    if out.requires_grad:
        def _bw(g, a=a, indices=indices, axis=axis):
            full = np.zeros_like(a.data)
            np.add.at(full, (slice(None),) * axis + (indices,), g)
            _acc(a, full)
        _record(out, _bw)
    return out


def pick(a, index):
    """Scalar element of a 1-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, got shape {a.data.shape}")
    i = int(index)
    out = _wrap(a.data[i].copy(), a.requires_grad, "pick")
    if out.requires_grad:
        def _bw(g, a=a, i=i):
            full = np.zeros_like(a.data)
            full[i] = g
            _acc(a, full)
        _record(out, _bw)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = _wrap(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad, "sum")
    if out.requires_grad:
        def _bw(g, a=a, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(g, a.data.shape).copy())
        _record(out, _bw)
    return out


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = _wrap(a.data.mean(axis=axis, keepdims=keepdims), a.requires_grad, "mean")
    if out.requires_grad:
        n = a.data.size if axis is None else a.data.shape[axis]

        def _bw(g, a=a, axis=axis, keepdims=keepdims, n=n):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(g, a.data.shape) / n)
        _record(out, _bw)
    return out


def masked_mean(a, mask, axis):
    """Mean of `a` over `axis`, restricted to mask==1 positions.

    `mask` is a constant 0/1 array broadcastable to `a`; an all-zero mask
    yields a zero vector.
    """
    a = as_tensor(a)
    m = np.asarray(mask, dtype=np.float64)
    counts = np.maximum(m.sum(axis=axis, keepdims=True), 1.0)
    out_data = (a.data * m).sum(axis=axis) / np.squeeze(counts, axis=axis)
    out = _wrap(out_data, a.requires_grad, "masked_mean")
    if out.requires_grad:
        def _bw(g, a=a, m=m, counts=counts, axis=axis):
            _acc(a, np.expand_dims(g, axis) * (m / counts))
        _record(out, _bw)
    return out


def cumsum(a):
    """Prefix sums of a vector."""
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"cumsum expects a vector, got shape {a.data.shape}")
    out = _wrap(np.cumsum(a.data), a.requires_grad, "cumsum")
    if out.requires_grad:
        def _bw(g, a=a):
            _acc(a, np.cumsum(g[::-1])[::-1])
        _record(out, _bw)
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a):
    a = as_tensor(a)
    out = _wrap(np.maximum(a.data, 0.0), a.requires_grad, "relu")
    if out.requires_grad:
        def _bw(g, a=a):
            _acc(a, g * (a.data > 0.0))
        _record(out, _bw)
    return out


def sigmoid(a):
    a = as_tensor(a)
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    out = _wrap(s, a.requires_grad, "sigmoid")
    if out.requires_grad:
        def _bw(g, a=a, s=s):
            _acc(a, g * s * (1.0 - s))
        _record(out, _bw)
    return out


def exp(a):
    a = as_tensor(a)
    e = np.exp(a.data)
    out = _wrap(e, a.requires_grad, "exp")
    if out.requires_grad:
        def _bw(g, a=a, e=e):
            _acc(a, g * e)
        _record(out, _bw)
    return out


def log(a):
    """Natural log with arguments clamped to LOG_FLOOR (flat below it)."""
    a = as_tensor(a)
    clamped = np.maximum(a.data, LOG_FLOOR)
    out = _wrap(np.log(clamped), a.requires_grad, "log")
    if out.requires_grad:
        def _bw(g, a=a, clamped=clamped):
            _acc(a, g * (a.data > LOG_FLOOR) / clamped)
        _record(out, _bw)
    return out


def softmax(a, axis=-1):
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    out = _wrap(s, a.requires_grad, "softmax")
    if out.requires_grad:
        def _bw(g, a=a, s=s, axis=axis):
            _acc(a, s * (g - (g * s).sum(axis=axis, keepdims=True)))
        _record(out, _bw)
    return out


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    out = _wrap(y, a.requires_grad, "log_softmax")
    if out.requires_grad:
        def _bw(g, a=a, y=y, axis=axis):
            _acc(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))
        _record(out, _bw)
    return out


def l2_normalize(a, axis=-1):
    """Rows scaled to unit L2 norm (norm clamped to >= 1e-12)."""
    a = as_tensor(a)
    n = np.maximum(np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True)), 1e-12)
    y = a.data / n
    out = _wrap(y, a.requires_grad, "l2_normalize")
    if out.requires_grad:
        def _bw(g, a=a, y=y, n=n, axis=axis):
            _acc(a, (g - y * (g * y).sum(axis=axis, keepdims=True)) / n)
        _record(out, _bw)
    return out


def layer_norm(x, gamma, beta, eps=1e-10):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = _wrap(xhat * gamma.data + beta.data, req, "layer_norm")
    if out.requires_grad:
        def _bw(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv=inv):
            if gamma.requires_grad:
                _acc(gamma, _unbcast(g * xhat, gamma.data.shape))
            if beta.requires_grad:
                _acc(beta, _unbcast(g, beta.data.shape))
            if x.requires_grad:
                gy = g * gamma.data
                _acc(x, inv * (gy - gy.mean(axis=-1, keepdims=True)
                               - xhat * (gy * xhat).mean(axis=-1, keepdims=True)))
        _record(out, _bw)
    return out


def attention(q, k, v, n_heads=1, key_mask=None):
    """Masked scaled-dot-product attention with head splitting.

    q: (..., Lq, d), k/v: (..., Lk, d); d divisible by n_heads. `key_mask`
    is a constant 0/1 array broadcastable to (..., Lk); masked keys receive
    exactly zero attention weight.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.data.shape[-1]
    if k.data.shape[-1] != d or v.data.shape[-1] != d:
        raise ShapeError(
            f"attention: feature dims differ {q.data.shape} {k.data.shape} {v.data.shape}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(
            f"attention: key/value lengths differ {k.data.shape} {v.data.shape}")
    if d % n_heads:
        raise ShapeError(f"attention: d={d} not divisible by n_heads={n_heads}")
    dh = d // n_heads

    def split(x):
        # (..., L, d) -> (..., H, L, dh)
        return x.reshape(x.shape[:-1] + (n_heads, dh)).swapaxes(-2, -3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.swapaxes(-1, -2)) / np.sqrt(dh)
    if key_mask is not None:
        bias = (1.0 - np.asarray(key_mask, dtype=np.float64)) * _NEG_INF
        scores = scores + bias[..., None, None, :]  # (..., 1, 1, Lk)
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    oh = p @ vh

    def merge(x):
        return np.ascontiguousarray(x.swapaxes(-2, -3)).reshape(
            x.shape[:-3] + (x.shape[-2], d))

    req = q.requires_grad or k.requires_grad or v.requires_grad
    out = _wrap(merge(oh), req, "attention")
    if out.requires_grad:
        def _bw(g, q=q, k=k, v=v, qh=qh, kh=kh, vh=vh, p=p):
            gh = split(g)
            gp = gh @ vh.swapaxes(-1, -2)
            ds = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
            if q.requires_grad:
                _acc(q, _unbcast(merge(ds @ kh), q.data.shape))
            if k.requires_grad:
                _acc(k, _unbcast(merge(ds.swapaxes(-1, -2) @ qh), k.data.shape))
            if v.requires_grad:
                _acc(v, _unbcast(merge(p.swapaxes(-1, -2) @ gh), v.data.shape))
        _record(out, _bw)
    return out


# ---------------------------------------------------------------------------
# gradient routing
# ---------------------------------------------------------------------------

def tape_mark():
    """Position on the active tape (None without one), for sever()."""
    return None if _tape is None else len(_tape.nodes)


def sever(x, cut, since):
    """Identity whose backward keeps its gradient away from `cut`.

    `x` must have been computed after tape_mark() returned `since`. The
    incoming gradient is swept at once through the nodes recorded since
    then: gradients already parked on those nodes are set aside and
    restored afterwards, contributions landing on `cut` are dropped, and
    tensors upstream of `since` (inputs, parameters) accumulate as usual.
    The sweep calls the tape entries as they stand at backward time.
    """
    x = as_tensor(x)
    if _tape is None or not x.requires_grad:
        return x
    # a weak reference, so the tape holding this closure stays acyclic and
    # is freed as soon as its step ends
    tape, stop = weakref.ref(_tape), len(_tape.nodes)
    out = _wrap(x.data, True, "sever")

    def _bw(g, x=x, cut=cut, tape=tape, since=since, stop=stop):
        span = tape().nodes[since:stop]
        kept = cut.grad
        parked = [t.grad for t, _ in span]
        for t, _ in span:
            t.grad = None
        _acc(x, g)
        for t, fn in reversed(span):
            if t.grad is not None:
                fn(t.grad)
        for (t, _), p in zip(span, parked):
            t.grad = p
        cut.grad = kept
    _record(out, _bw)
    return out


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(tape: Tape, output: Tensor):
    """Reverse sweep from a scalar output; gradients land in .grad fields.

    Parameters not reached by the sweep keep grad=None, read as zero.
    """
    if output.data.size != 1:
        raise GraphError(f"backward target must be scalar, got shape {output.data.shape}")
    output.grad = np.ones_like(output.data)
    for t, fn in reversed(tape.nodes):
        if t.grad is not None:
            fn(t.grad)
