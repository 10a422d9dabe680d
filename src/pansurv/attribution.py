"""Gradient-based attribution over token bags.

Class-activation scores are adapted from spatial maps to bags: for each
input token (post-lift gene token, projected patch token), score =
sum over the embedding axis of relu(gradient * activation), where the
gradient is taken from the scalar risk (negative summed survival). Masked
genes score exactly zero. Cohort-level rankings average per-gene scores
across patients of one cancer type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .bags import GENOMIC_GROUPS
from .model import Model, forward, prepare_patient


class AttributionError(ValueError):
    pass


@dataclass
class CamReport:
    patient_id: str
    cancer_type: str
    gene_scores: dict        # group -> np array, one score per schema slot
    patch_scores: np.ndarray


def _risk_graph(hazards: ad.Tensor) -> ad.Tensor:
    """Differentiable risk scalar: negative sum of cumulative survival."""
    log_surv = ad.cumsum(ad.log(1.0 - hazards))
    return ad.neg(ad.tsum(ad.exp(log_surv)))


def _cam_scores(grad: np.ndarray, act: np.ndarray) -> np.ndarray:
    return np.maximum(grad * act, 0.0).sum(axis=-1)


def attribution_report(model: Model, record) -> CamReport:
    """Per-gene and per-patch scores for one patient."""
    for name, t in model.params.items():
        if not np.all(np.isfinite(t.data)):
            raise AttributionError(f"model parameter {name!r} is not finite")
    prep = prepare_patient(record, model)
    gen_in = ad.Tensor(prep.gen_values, requires_grad=True)
    patch_in = ad.Tensor(prep.patches, requires_grad=True)
    # only input gradients are read: the parameters enter as constants (the
    # same arrays), so the tape records and sweeps no parameter gradient
    frozen = replace(model, params={k: ad.Tensor(t.data) for k, t in model.params.items()})
    with ad.tape_scope() as tape:
        out = forward(frozen, prep, need_agent=False,
                      gen_values=gen_in, patches=patch_in)
        risk = _risk_graph(out.hazards)
        ad.backward(tape, risk)
    gen_grad = out.gen_tokens.grad
    if gen_grad is None:
        gen_grad = np.zeros_like(out.gen_tokens.data)
    gene_flat = _cam_scores(gen_grad, out.gen_tokens.data) * prep.gen_mask
    gene_scores = {}
    for gi, grp in enumerate(GENOMIC_GROUPS):
        n = len(record.genomic.schema[grp])
        gene_scores[grp] = gene_flat[gi, :n].copy()
    patch_grad = out.patch_tokens.grad
    if patch_grad is None:
        patch_grad = np.zeros_like(out.patch_tokens.data)
    patch_scores = _cam_scores(patch_grad, out.patch_tokens.data)
    return CamReport(patient_id=record.id, cancer_type=record.cancer_type,
                     gene_scores=gene_scores, patch_scores=patch_scores)


def top_genes(reports, schema: dict, k: int = 3) -> dict:
    """Mean gene score across a cohort, top-k per group.

    Ties break lexicographically on the gene name. Returns
    {group: [(gene, mean_score), ...]} with lists of length
    min(k, group size).
    """
    reports = list(reports)
    if not reports:
        raise AttributionError("empty cohort")
    if k < 1:
        raise AttributionError(f"k must be >= 1, got {k}")
    out = {}
    for grp in GENOMIC_GROUPS:
        names = schema[grp]
        mean = np.mean([r.gene_scores[grp] for r in reports], axis=0)
        ranked = sorted(zip(names, mean), key=lambda kv: (-kv[1], kv[0]))
        out[grp] = [(name, float(score)) for name, score in ranked[:k]]
    return out


def cam_records_json(report: CamReport) -> list:
    """Flat JSON-ready rows: one per gene and per patch."""
    rows = []
    for grp in GENOMIC_GROUPS:
        for idx, score in enumerate(report.gene_scores[grp]):
            rows.append({"patient_id": report.patient_id, "modality": "genomic",
                         "group": grp, "index": idx, "score": float(score)})
    for idx, score in enumerate(report.patch_scores):
        rows.append({"patient_id": report.patient_id, "modality": "patch",
                     "group": None, "index": idx, "score": float(score)})
    return rows
