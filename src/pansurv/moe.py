"""Guided soft mixture-of-experts hazard head plus the cancer-type agent
classifier.

Experts are structurally identical two-layer text-guided decoders with
unshared parameters, stored stacked on a leading axis and executed as one
batched pass. Expert logits are mixed pre-sigmoid by gate weights derived
from the cancer and diagnosis text embeddings; the single-expert case is
the N_e=1 slice of the same code path, so the degeneracy is bit-exact.
The agent classifier pools the fused image+genomic rows only; text features
never enter it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import decoder_layer, init_decoder_layer
from .survival import HazardCurve


class MoeError(ValueError):
    pass


def init_expert_params(rng, d_model: int, n_bins: int, n_experts: int,
                       ffn_mult: int = 2) -> dict:
    """Stacked weights for N_e experts; the survival classifiers start at
    zero, so fresh models emit flat hazards of 0.5."""
    if n_experts < 1:
        raise MoeError(f"need at least one expert, got {n_experts}")
    p = {}
    p.update(init_decoder_layer(rng, d_model, "experts.l1", ffn_mult, batch=(n_experts,)))
    p.update(init_decoder_layer(rng, d_model, "experts.l2", ffn_mult, batch=(n_experts,)))
    p["experts.cls_w"] = ad.parameter(np.zeros((n_experts, d_model, n_bins)))
    p["experts.cls_b"] = ad.parameter(np.zeros((n_experts, 1, n_bins)))
    return p


def init_gate_params(d_model: int, n_experts: int) -> dict:
    """Gate affine weights, zero-initialized: the gate starts at uniform
    weights 1/N_e."""
    return {
        "gate.w": ad.parameter(np.zeros((2 * d_model, n_experts))),
        "gate.b": ad.parameter(np.zeros(n_experts)),
    }


def init_agent_params(d_model: int, n_cancers: int) -> dict:
    return {
        "agent.w": ad.parameter(np.zeros((d_model, n_cancers))),
        "agent.b": ad.parameter(np.zeros(n_cancers)),
    }


def n_experts_of(params: dict) -> int:
    return params["experts.cls_w"].data.shape[0]


def experts_logits(fused_p: Tensor, fused_g: Tensor, txt: Tensor, params: dict,
                   n_heads: int = 4) -> Tensor:
    """All experts' hazard logits, stacked (N_e, n_bins).

    Each expert: two decoder layers with text queries over the 8 fused
    image+genomic rows, mean-pool the 4 output rows, affine to n_bins.
    """
    kv = ad.concat([fused_p, fused_g], axis=0)
    h = decoder_layer(txt, kv, params, "experts.l1", n_heads=n_heads)
    h = decoder_layer(h, kv, params, "experts.l2", n_heads=n_heads)
    pooled = ad.tmean(h, axis=1, keepdims=True)            # (N_e, 1, d)
    logits = ad.add(ad.matmul(pooled, params["experts.cls_w"]),
                    params["experts.cls_b"])               # (N_e, 1, n_bins)
    n_e, _, n_bins = logits.data.shape
    return ad.reshape(logits, (n_e, n_bins))


def expert_forward(fused_p: Tensor, fused_g: Tensor, txt: Tensor,
                   expert_params: dict, n_heads: int = 4) -> Tensor:
    """One expert's hazard logits (n_bins,); expert_params is an N_e=1 stack:
    every `experts.*` weight has a leading axis of length 1."""
    if n_experts_of(expert_params) != 1:
        raise MoeError("expert_forward expects a single-expert parameter slice")
    logits = experts_logits(fused_p, fused_g, txt, expert_params, n_heads=n_heads)
    return ad.reshape(logits, (logits.data.shape[1],))


def gate_weights(cancer_emb: Tensor, diag_emb: Tensor, params: dict) -> Tensor:
    """Softmax over an affine map of concat(cancer, diagnosis) embeddings."""
    x = ad.reshape(ad.concat([cancer_emb, diag_emb], axis=0),
                   (1, 2 * cancer_emb.data.shape[0]))
    z = ad.add(ad.matmul(x, params["gate.w"]), params["gate.b"])
    return ad.reshape(ad.softmax(z, axis=-1), (z.data.shape[1],))


@dataclass
class GmoeOutput:
    hazards: Tensor          # (n_bins,) after sigmoid
    curve: HazardCurve
    gate: Tensor             # (N_e,)
    expert_logits: Tensor    # (N_e, n_bins)


def gmoe_hazard(fused_p: Tensor, fused_g: Tensor, txt: Tensor,
                cancer_emb: Tensor, diag_emb: Tensor, params: dict,
                n_heads: int = 4) -> GmoeOutput:
    """Gate-weighted expert mix in logit space, then per-bin sigmoid."""
    n_e = n_experts_of(params)
    logits = experts_logits(fused_p, fused_g, txt, params, n_heads=n_heads)
    gate = gate_weights(cancer_emb, diag_emb, params)
    mixed = ad.matmul(ad.reshape(gate, (1, n_e)), logits)
    hazards = ad.sigmoid(ad.reshape(mixed, (logits.data.shape[1],)))
    return GmoeOutput(hazards=hazards, curve=HazardCurve.from_hazards(hazards.data),
                      gate=gate, expert_logits=logits)


def agent_logits(fused_p: Tensor, fused_g: Tensor, params: dict) -> Tensor:
    """Cancer-type logits from the mean-pooled fused rows; text features are
    structurally excluded from this head."""
    pooled = ad.tmean(ad.concat([fused_p, fused_g], axis=0), axis=0)
    z = ad.add(ad.matmul(ad.reshape(pooled, (1, pooled.data.shape[0])),
                         params["agent.w"]), params["agent.b"])
    return ad.reshape(z, (z.data.shape[1],))
