"""Joint training loop, evaluation, and fold orchestration.

Loss per patient is cross-entropy on the cancer-type agent plus the
discrete-time survival NLL; gradients from 32 patients are summed before
each AdamW step (batch size 1 + gradient accumulation), with a final
partial step at epoch end. Everything is a pure function of the seed:
parameter init, the per-epoch shuffle, and fold assignment.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import survival as sv
from .bags import compute_bin_edges
from .model import Model, ModelMeta, ForwardOutput, check_architecture, check_positive, \
    forward, init_model, prepare_patient, save_checkpoint
from .optim import AdamW
from .synthetic import kfold_split


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    d_model: int = 128
    n_bins: int = 4
    n_experts: int = 10
    n_heads: int = 4
    ffn_mult: int = 2
    sinkhorn_eps: float = 0.1
    sinkhorn_max_iter: int = 100
    sinkhorn_tol: float = 1e-6
    lr: float = 2e-4
    weight_decay: float = 1e-5
    epochs: int = 20
    accum_steps: int = 32
    folds: int = 5
    seed: int = 0
    text_table_size: int = 4096
    text_table_seed: int = 1234

    def validate(self):
        """Raises ValueError naming the first field that breaks a rule."""
        check_architecture(self)
        check_positive(self, ("lr", "epochs", "accum_steps", "folds"))
        if not self.seed >= 0:
            raise ValueError(f"field seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"field weight_decay must be finite and non-negative, "
                             f"got {self.weight_decay}")


def build_meta(config: TrainConfig, records, cancer_types=None) -> ModelMeta:
    cancer_types = tuple(cancer_types) if cancer_types else \
        tuple(sorted({r.cancer_type for r in records}))
    group_sizes = {g: len(records[0].genomic.schema[g])
                   for g in records[0].genomic.schema}
    uncensored = [r.survival_months for r in records if not r.censored]
    bin_edges = compute_bin_edges(uncensored, config.n_bins)
    return ModelMeta(
        d_model=config.d_model, n_bins=config.n_bins, n_experts=config.n_experts,
        n_heads=config.n_heads, ffn_mult=config.ffn_mult,
        d_patch=records[0].wsi.patch_features.shape[1],
        sinkhorn_eps=config.sinkhorn_eps, sinkhorn_max_iter=config.sinkhorn_max_iter,
        sinkhorn_tol=config.sinkhorn_tol, cancer_types=cancer_types,
        group_sizes=group_sizes, bin_edges=tuple(float(x) for x in bin_edges),
        text_table_seed=config.text_table_seed, text_table_size=config.text_table_size)


def patient_loss(out: ForwardOutput, prep) -> ad.Tensor:
    """Eq-style total: cancer cross-entropy + survival NLL (graph scalar)."""
    loss = sv.nll_survival_loss_graph(out.hazards, prep.censored, prep.time_bin)
    if out.agent is not None:
        loss = ad.add(loss, sv.cross_entropy_graph(out.agent, prep.cancer_idx))
    return loss


def train(records, config: TrainConfig, val_records=None, cancer_types=None,
          log_fn=None):
    """Train on `records`; returns (model, per-epoch log).

    Time-bin edges come from the training records' uncensored months. The
    per-epoch log carries the mean train loss and, when a validation split
    is supplied, its overall C-index.
    """
    config.validate()
    if not records:
        raise TrainingError("empty training cohort")
    meta = build_meta(config, records, cancer_types=cancer_types)
    model = init_model(meta, seed=config.seed)
    preps = [prepare_patient(r, model) for r in records]
    val_preps = [prepare_patient(r, model) for r in val_records] if val_records else None
    opt = AdamW(model.params, lr=config.lr, weight_decay=config.weight_decay)
    log = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, 1000 + epoch]).permutation(len(preps))
        total = 0.0
        pending = 0
        accum = {}

        def flush():
            for name, g in accum.items():
                model.params[name].grad = g
            opt.step()
            opt.zero_grad()
            accum.clear()

        for i in order:
            prep = preps[i]
            with ad.tape_scope() as tape:
                out = forward(model, prep)
                loss = patient_loss(out, prep)
                if not np.isfinite(loss.data):
                    # the tape holds every recorded op output in order
                    bad = next(t.name for t, _ in tape.nodes
                               if not np.all(np.isfinite(t.data)))
                    raise TrainingError(
                        f"non-finite loss for patient {prep.id} (epoch {epoch}): "
                        f"first non-finite tensor: non-finite output of {bad}")
                ad.backward(tape, loss)
            # sum completed per-patient gradients (bit-identical to an
            # explicit 32-gradient sum before one step)
            for name, p in model.params.items():
                if p.grad is not None:
                    held = accum.get(name)
                    accum[name] = p.grad if held is None else held + p.grad
                    p.grad = None
            total += loss.item()
            pending += 1
            if pending == config.accum_steps:
                flush()
                pending = 0
        if pending:
            flush()
        entry = {"epoch": epoch, "train_loss": total / len(preps)}
        if val_preps:
            risks = np.array([predict_risk(model, vp) for vp in val_preps])
            times = np.array([vp.months for vp in val_preps])
            cens = np.array([vp.censored for vp in val_preps])
            try:
                entry["val_cindex"] = sv.concordance_index(risks, times, cens)
            except sv.SurvivalError:
                entry["val_cindex"] = None
            per, _ = sv.per_cancer_cindex(risks, times, cens,
                                          [vp.cancer_type for vp in val_preps])
            entry["val_overall_cindex"] = sv.metrics_json(per, {})["overall_mean_cindex"]
        log.append(entry)
        if log_fn:
            log_fn(entry)
    return model, log


def predict_risk(model: Model, prep) -> float:
    risk = sv.risk_score(forward(model, prep, need_agent=False).curve)
    if not np.isfinite(risk):
        raise TrainingError(f"non-finite risk for patient {prep.id}")
    return risk


def evaluate(records, model: Model):
    """Per-cancer C-index, overall mean, and median-split logrank p.

    Returns (metrics, details) where details carries per-patient risks for
    pooled (out-of-fold) reporting.
    """
    preps = [prepare_patient(r, model) for r in records]
    risks = np.array([predict_risk(model, p) for p in preps])
    times = np.array([p.months for p in preps])
    cens = np.array([p.censored for p in preps], dtype=bool)
    cancers = [p.cancer_type for p in preps]
    details = {"ids": [p.id for p in preps], "risks": risks.tolist(),
               "months": times.tolist(), "censored": cens.tolist(),
               "cancers": cancers}
    return sv.cohort_metrics(risks, times, cens, cancers), details


def _run_fold(args):
    records, train_idx, val_idx, config, fold, out_dir = args
    train_recs = [records[i] for i in train_idx]
    val_recs = [records[i] for i in val_idx]
    cancer_types = tuple(sorted({r.cancer_type for r in records}))
    model, log = train(train_recs, config, val_records=val_recs,
                       cancer_types=cancer_types)
    metrics, details = evaluate(val_recs, model)
    metrics["fold_details"] = [{"fold": fold, "epochs": log}]
    if out_dir:
        save_checkpoint(os.path.join(out_dir, f"fold_{fold}.ckpt"), model)
        sv.dump_metrics(os.path.join(out_dir, f"fold_{fold}.metrics.json"), metrics)
    return fold, metrics, details


def run_cross_validation(records, config: TrainConfig, k: int | None = None,
                         out_dir: str | None = None, workers: int = 1):
    """k-fold protocol: stratified folds, one model per fold, pooled
    out-of-fold metrics. Deterministic regardless of worker count."""
    k = k or config.folds
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    splits = kfold_split(records, k, config.seed)
    jobs = [(records, tr, va, config, j, out_dir) for j, (tr, va) in enumerate(splits)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_fold, jobs))
    else:
        results = [_run_fold(job) for job in jobs]
    results.sort(key=lambda r: r[0])
    fold_metrics = [m for _, m, _ in results]
    pooled = {"ids": [], "risks": [], "months": [], "censored": [], "cancers": []}
    for _, _, details in results:
        for key in pooled:
            pooled[key].extend(details[key])
    aggregate = sv.cohort_metrics(pooled["risks"], pooled["months"],
                                  pooled["censored"], pooled["cancers"])
    aggregate["fold_details"] = [{"fold": j, "metrics": m}
                                 for j, m in enumerate(fold_metrics)]
    fold_overalls = [m["overall_mean_cindex"] for m in fold_metrics]
    aggregate["fold_overall_cindex"] = fold_overalls
    aggregate["mean_fold_overall_cindex"] = float(np.mean(
        [x for x in fold_overalls if x is not None]))
    if out_dir:
        sv.dump_metrics(os.path.join(out_dir, "metrics.json"), aggregate)
    return aggregate, pooled
