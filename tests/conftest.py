import json

import numpy as np
import pytest

from pansurv import autodiff as ad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1e-6, |a|, |n|), reduced with max."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float((np.abs(a - n) / denom).max())


def gradcheck(build, inputs: dict, tol: float = 1e-5, h: float = 1e-6) -> float:
    """Compare analytic gradients of `build` against central differences.

    `build` maps {name: Tensor} to a scalar Tensor; every entry of `inputs`
    is checked. Returns the worst relative error seen.
    """
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in inputs.items()}
    with ad.tape_scope() as tape:
        out = build(tensors)
    ad.backward(tape, out)
    worst = 0.0
    for name, arr in inputs.items():
        analytic = tensors[name].grad
        if analytic is None:
            analytic = np.zeros_like(np.asarray(arr, dtype=np.float64))

        def f(x, name=name):
            local = {k: ad.Tensor(v) for k, v in inputs.items()}
            local[name] = ad.Tensor(x)
            return build(local).item()

        numeric = ad.numeric_gradient(f, np.asarray(arr, dtype=np.float64), h=h)
        err = max_rel_err(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for {name!r}: rel err {err:.3e} >= {tol}"
    return worst


def rewrite_manifest(path, edit):
    """Apply `edit` to a checkpoint's parsed manifest and write the file
    back with the new manifest and the original payload."""
    raw = open(path, "rb").read()
    mlen = int.from_bytes(raw[6:14], "little")
    manifest = json.loads(raw[14:14 + mlen])
    edit(manifest)
    new_manifest = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(b"UMPS1\n")
        fh.write(len(new_manifest).to_bytes(8, "little"))
        fh.write(new_manifest)
        fh.write(raw[14 + mlen:])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
