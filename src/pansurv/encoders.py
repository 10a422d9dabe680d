"""Modality encoders.

The six genomic groups are encoded by six transformer encoders with
unshared parameters; for speed the six weight sets are stored stacked on a
leading axis and executed as one batched pass (numpy broadcasting), which
is arithmetically identical to a per-group loop. Each encoder is one
`fusion.decoder_layer` run as masked self-attention. Patch bags go through a
learned affine projector standing in for a pretrained image backbone. Text
goes through a frozen, seed-reproducible hashed embedding table followed by
a small trainable affine adapter and L2 normalization.
"""

from __future__ import annotations

import re

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bags import GENOMIC_GROUPS, GenomicBag
from .fusion import decoder_layer, init_linear


class EncoderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------

def pe_matrix(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal encodings of positions 0..length-1, one per row: component
    2m of row pos is sin(pos/10000^(2m/d)), component 2m+1 is cos of the
    same argument."""
    if d_model % 2:
        raise EncoderError(f"d_model must be even, got {d_model}")
    pos = np.arange(length)[:, None]
    m = np.arange(d_model // 2)[None, :]
    arg = pos / np.power(10000.0, 2.0 * m / d_model)
    out = np.empty((length, d_model))
    out[:, 0::2] = np.sin(arg)
    out[:, 1::2] = np.cos(arg)
    return out


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

def init_genomic_params(rng, d_model: int, ffn_mult: int = 2) -> dict:
    """Stacked weights for the six unshared group encoders (depth 1)."""
    g, d, f = len(GENOMIC_GROUPS), d_model, d_model * ffn_mult
    p = {
        "gen.lift_w": init_linear(rng, 1, (g, 1, d)),
        "gen.lift_b": ad.parameter(np.zeros((g, 1, d))),
        "gen.ffn_w1": init_linear(rng, d, (g, d, f)),
        "gen.ffn_b1": ad.parameter(np.zeros((g, 1, f))),
        "gen.ffn_w2": init_linear(rng, f, (g, f, d)),
        "gen.ffn_b2": ad.parameter(np.zeros((g, 1, d))),
        "gen.ln1_g": ad.parameter(np.ones((g, 1, d))),
        "gen.ln1_b": ad.parameter(np.zeros((g, 1, d))),
        "gen.ln2_g": ad.parameter(np.ones((g, 1, d))),
        "gen.ln2_b": ad.parameter(np.zeros((g, 1, d))),
    }
    for w in ("wq", "wk", "wv", "wo"):
        p[f"gen.{w}"] = init_linear(rng, d, (g, d, d))
        p[f"gen.b{w[1]}"] = ad.parameter(np.zeros((g, 1, d)))
    return p


def init_patch_params(rng, d_patch: int, d_model: int) -> dict:
    return {
        "patch.w": init_linear(rng, d_patch, (d_patch, d_model)),
        "patch.b": ad.parameter(np.zeros(d_model)),
    }


def init_text_params(rng, d_model: int) -> dict:
    return {
        "text.adapter_w": init_linear(rng, d_model, (d_model, d_model)),
        "text.adapter_b": ad.parameter(np.zeros(d_model)),
    }


def frozen_text_table(seed: int, table_size: int, d_model: int) -> np.ndarray:
    """Fixed embedding table reproducible from the seed alone."""
    return np.random.default_rng(seed).standard_normal((table_size, d_model))


# ---------------------------------------------------------------------------
# genomic encoder
# ---------------------------------------------------------------------------

def bag_to_arrays(bag: GenomicBag) -> tuple[np.ndarray, np.ndarray]:
    """Pad the six groups to a common length; returns (values, mask)."""
    lmax = max(len(bag.values[g]) for g in GENOMIC_GROUPS)
    values = np.zeros((len(GENOMIC_GROUPS), lmax))
    mask = np.zeros((len(GENOMIC_GROUPS), lmax))
    for i, g in enumerate(GENOMIC_GROUPS):
        n = len(bag.values[g])
        values[i, :n] = bag.values[g]
        mask[i, :n] = bag.mask[g]
    return values, mask


def encode_genomic_arrays(values, mask, params: dict, n_heads: int = 4):
    """Batched pass over padded (groups, length) value/mask arrays.

    Returns (features (6, d), lift tokens (6, L, d)). Masked positions are
    excluded from attention and pooling, so their values cannot influence
    the features; an all-masked group yields a zero vector.
    """
    vals = values if isinstance(values, Tensor) else Tensor(values)
    m = np.asarray(mask, dtype=np.float64)
    tokens = ad.add(ad.mul(ad.reshape(vals, vals.data.shape + (1,)),
                           params["gen.lift_w"]), params["gen.lift_b"])
    pe = pe_matrix(m.shape[1], params["gen.lift_w"].data.shape[-1])
    x = ad.add(tokens, pe[None, :, :])
    x = decoder_layer(x, x, params, "gen", n_heads, key_mask=m)
    return ad.masked_mean(x, m[:, :, None], axis=1), tokens


# ---------------------------------------------------------------------------
# patch projector
# ---------------------------------------------------------------------------

def project_patches(patches, params: dict) -> Tensor:
    """Affine map d_patch -> d_model per patch of an (N, d_patch) array or
    Tensor; bag length preserved. The projected tokens are both the patch
    features and the tokens attribution scores."""
    x = patches if isinstance(patches, Tensor) else Tensor(np.asarray(patches, dtype=np.float64))
    if x.data.ndim != 2 or x.data.shape[1] != params["patch.w"].data.shape[0]:
        raise EncoderError(
            f"patch features {x.data.shape} do not match projector "
            f"{params['patch.w'].data.shape}")
    return ad.add(ad.matmul(x, params["patch.w"]), params["patch.b"])


# ---------------------------------------------------------------------------
# text embedding
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_WORD = re.compile(r"[a-z0-9]+")


def _fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def tokenize(sentence: str) -> list[str]:
    return _WORD.findall(sentence.lower())


def frozen_sentence_vector(sentence: str, table: np.ndarray) -> np.ndarray:
    """Mean of hashed token rows from the frozen table (no gradient path)."""
    if not sentence or not sentence.strip():
        raise EncoderError("empty sentence")
    tokens = tokenize(sentence)
    if not tokens:
        raise EncoderError(f"sentence has no word tokens: {sentence!r}")
    idx = np.array([_fnv1a64(t) % table.shape[0] for t in tokens])
    return table[idx].mean(axis=0)


def embed_text_rows(frozen_rows: np.ndarray, params: dict) -> Tensor:
    """Trainable adapter + L2 normalization over precomputed frozen rows."""
    x = Tensor(np.atleast_2d(frozen_rows))
    y = ad.add(ad.matmul(x, params["text.adapter_w"]), params["text.adapter_b"])
    return ad.l2_normalize(y)
