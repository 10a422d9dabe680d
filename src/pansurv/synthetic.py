"""Reproducible synthetic multi-cancer cohorts with a known risk model.

Each cancer has a baseline log-hazard plus a linear signal over a few
planted genes per genomic group (signs alternate across cancer/group so the
cancers genuinely disagree) and a patch-cluster bump. Event-time bins are
geometric draws from the per-patient hazard; censoring replaces the
recorded time with a uniform fraction of the latent event time. The whole
cohort is a pure function of the seed; every patient draws from an rng
derived as (seed, patient index).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .bags import (GENOMIC_GROUPS, RACES, TREATMENTS, GenomicBag, PatientMeta,
                   PatientRecord, WsiBag, positional_schema)

DEFAULT_CANCERS = ("BLCA", "BRCA", "GBMLGG", "LUAD", "UCEC")

_FEMALE_RATE = {"BLCA": 0.26, "BRCA": 0.99, "GBMLGG": 0.42, "LUAD": 0.54, "UCEC": 1.0}
_AGE_MEAN = {"BLCA": 68, "BRCA": 58, "GBMLGG": 46, "LUAD": 65, "UCEC": 64}
_RACE_P = (0.70, 0.12, 0.08, 0.02, 0.02, 0.06)
_TREATMENT_P = (0.40, 0.15, 0.25, 0.20)

_DIAGNOSES = {
    "BLCA": ("Papillary transitional cell carcinoma", "Transitional cell carcinoma"),
    "BRCA": ("Infiltrating duct carcinoma", "Lobular carcinoma"),
    "GBMLGG": ("Glioblastoma", "Oligodendroglioma", "Astrocytoma"),
    "LUAD": ("Adenocarcinoma with mixed subtypes", "Bronchiolo-alveolar carcinoma"),
    "UCEC": ("Endometrioid adenocarcinoma", "Serous cystadenocarcinoma"),
}

_DEFAULT_BASELINES = (-3.1, -2.3, -1.7, -2.7, -2.0)


class SpecError(ValueError):
    pass


@dataclass
class CohortSpec:
    cancers: tuple[str, ...] = DEFAULT_CANCERS
    cases_per_cancer: int = 100
    d_patch: int = 32
    patch_range: tuple[int, ...] = (8, 32)
    group_sizes: dict[str, int] = field(default_factory=lambda: {g: 8 for g in GENOMIC_GROUPS})
    planted_per_group: int = 3
    gene_weights: tuple[float, ...] = (1.0, 0.8, 0.6)
    plant_shift: float = 0.8
    cluster_effect: float = 1.2
    cluster_prob: float = 0.4
    cluster_frac: float = 0.3
    cluster_shift: float = 2.5
    baselines: tuple[float, ...] = _DEFAULT_BASELINES
    censoring_rate: float = 0.25
    months_per_bin: float = 6.0
    max_bins: int = 64
    missing_group_rate: float = 0.0
    seed: int = 7

    def validate(self):
        if not self.seed >= 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        if self.cases_per_cancer < 10:
            raise SpecError("need at least 10 cases per cancer")
        if not (0.0 <= self.censoring_rate < 1.0):
            raise SpecError(f"censoring rate must lie in [0, 1), got {self.censoring_rate}")
        if len(self.baselines) != len(self.cancers):
            raise SpecError("need one baseline per cancer")
        if set(self.group_sizes) != set(GENOMIC_GROUPS):
            raise SpecError(f"group_sizes must cover {GENOMIC_GROUPS}")
        if len(self.gene_weights) != self.planted_per_group:
            raise SpecError("gene_weights length must equal planted_per_group")
        if any(self.group_sizes[g] < self.planted_per_group for g in GENOMIC_GROUPS):
            raise SpecError("every group must fit the planted genes")
        if len(self.patch_range) != 2 or not 1 <= self.patch_range[0] <= self.patch_range[1]:
            raise SpecError(f"bad patch range {self.patch_range}")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def planted_layout(spec: CohortSpec) -> dict:
    """Per-group planted gene indices (shared across cancers) and the
    per-cancer signed weights.

    The sign alternates per cancer (not per group): every cancer carries
    the full gene signal, but neighbouring cancers disagree on its
    direction, so a single shared readout must compromise while a routed
    mixture can specialize.
    """
    schema = positional_schema(spec.group_sizes)
    rng = np.random.default_rng([spec.seed, 101])
    indices = {g: np.sort(rng.choice(spec.group_sizes[g], spec.planted_per_group,
                                     replace=False)) for g in GENOMIC_GROUPS}
    weights = {}
    for ci, cancer in enumerate(spec.cancers):
        sign = 1.0 if ci % 2 == 0 else -1.0
        weights[cancer] = {g: sign * np.asarray(spec.gene_weights)
                           for g in GENOMIC_GROUPS}
    names = {cancer: {g: [schema[g][i] for i in indices[g]] for g in GENOMIC_GROUPS}
             for cancer in spec.cancers}
    return {"indices": indices, "weights": weights, "names": names, "schema": schema}


def _cluster_direction(spec: CohortSpec, cancer_index: int) -> np.ndarray:
    v = np.random.default_rng([spec.seed, 300 + cancer_index]).standard_normal(spec.d_patch)
    return v / np.linalg.norm(v)


def _sample_meta(r, cancer: str) -> PatientMeta:
    """Demographics are deliberately coarse (decade ages, stage-consistent
    TNM) so sentences collide across patients instead of fingerprinting
    them; none of these fields enters the ground-truth risk."""
    sex = "female" if r.random() < _FEMALE_RATE.get(cancer, 0.5) else "male"
    age = int(np.clip(round(r.normal(_AGE_MEAN.get(cancer, 62), 10), -1), 30, 90))
    race = RACES[r.choice(len(RACES), p=_RACE_P)]
    dia = _DIAGNOSES.get(cancer, ("Carcinoma, not otherwise specified",))
    stage_idx = int(r.choice(4))
    return PatientMeta(
        sex=sex, age=age, race=race, cancer_type=cancer,
        primary_diagnosis=dia[r.choice(len(dia))],
        stage=f"Stage {('I', 'II', 'III', 'IV')[stage_idx]}",
        t_stage=f"T{stage_idx + 1}", n_stage=f"N{min(stage_idx, 2)}",
        m_stage=f"M{1 if stage_idx == 3 else 0}",
        treatments=TREATMENTS[r.choice(len(TREATMENTS), p=_TREATMENT_P)],
    )


def generate_cohort(spec: CohortSpec):
    """Returns (records, truth). `truth` records per-patient risks, planted
    layout, and cluster patch indices - everything the acceptance checks
    need to verify recovery."""
    spec.validate()
    layout = planted_layout(spec)
    schema = layout["schema"]
    records = []
    truth_patients = {}
    pid = 0
    for ci, cancer in enumerate(spec.cancers):
        direction = _cluster_direction(spec, ci)
        for _ in range(spec.cases_per_cancer):
            r = np.random.default_rng([spec.seed, 7000 + pid])
            meta = _sample_meta(r, cancer)
            values, mask = {}, {}
            gene_term = 0.0
            for g in GENOMIC_GROUPS:
                z = r.standard_normal(spec.group_sizes[g])
                idx = layout["indices"][g]
                w = layout["weights"][cancer][g]
                z[idx] += np.sign(w) * spec.plant_shift
                gene_term += float(w @ z[idx])
                if r.random() < spec.missing_group_rate:
                    values[g] = np.zeros(spec.group_sizes[g])
                    mask[g] = np.zeros(spec.group_sizes[g])
                else:
                    values[g] = z
                    mask[g] = np.ones(spec.group_sizes[g])
            n_p = int(r.integers(spec.patch_range[0], spec.patch_range[1] + 1))
            patches = r.standard_normal((n_p, spec.d_patch))
            has_cluster = bool(r.random() < spec.cluster_prob)
            cluster_idx = []
            if has_cluster:
                k = max(1, int(round(spec.cluster_frac * n_p)))
                cluster_idx = np.sort(r.choice(n_p, k, replace=False)).tolist()
                patches[cluster_idx] += spec.cluster_shift * direction
            # center the signal terms so baselines set the population hazard:
            # the planted mean shift always adds |w|*shift, and the cluster
            # bump adds cluster_effect*cluster_prob on average
            gene_center = spec.plant_shift * sum(
                np.abs(layout["weights"][cancer][g]).sum() for g in GENOMIC_GROUPS)
            eta = (spec.baselines[ci]
                   + gene_term - gene_center
                   + spec.cluster_effect * ((1.0 if has_cluster else 0.0) - spec.cluster_prob))
            hazard = float(np.clip(_sigmoid(eta), 0.002, 0.995))
            # exponential whose floor is geometric(hazard): bin-level law is
            # the geometric draw, continuous months keep the risk ordering
            rate = -np.log1p(-hazard)
            t_bins = min(r.exponential(1.0 / rate), float(spec.max_bins))
            latent_months = t_bins * spec.months_per_bin
            if spec.censoring_rate > 0 and r.random() < spec.censoring_rate:
                censored = True
                months = latent_months * r.random()
            else:
                censored = False
                months = latent_months
            rec_id = f"{cancer}_{pid:05d}"
            records.append(PatientRecord(
                id=rec_id, cancer_type=cancer, meta=meta,
                wsi=WsiBag(patches),
                genomic=GenomicBag(values=values, mask=mask, schema=schema),
                survival_months=float(months), censored=censored,
            ))
            truth_patients[rec_id] = {
                "risk": float(eta),
                "hazard": hazard,
                "cluster": has_cluster,
                "cluster_patches": cluster_idx,
                "latent_months": float(latent_months),
            }
            pid += 1
    truth = {
        "spec": asdict(spec),
        "planted": layout["names"],
        "planted_indices": {g: layout["indices"][g].tolist() for g in GENOMIC_GROUPS},
        "weights": {c: {g: layout["weights"][c][g].tolist() for g in GENOMIC_GROUPS}
                    for c in spec.cancers},
        "patients": truth_patients,
    }
    return records, truth


def write_truth(path: str, truth: dict):
    with open(path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")


def kfold_split(records, k: int, seed: int):
    """Stratified-by-cancer folds, deterministic in the seed.

    Returns k (train_indices, val_indices) pairs; validation folds are
    disjoint and cover the cohort, and per-fold cancer counts stay within
    one case of an even split.
    """
    if k < 2:
        raise SpecError(f"need k >= 2 folds, got {k}")
    cancers = sorted({rec.cancer_type for rec in records})
    fold_members = [[] for _ in range(k)]
    for ci, cancer in enumerate(cancers):
        idx = np.array([i for i, rec in enumerate(records) if rec.cancer_type == cancer])
        if len(idx) < k:
            raise SpecError(f"cancer {cancer} has {len(idx)} cases < {k} folds")
        perm = np.random.default_rng([seed, 500 + ci]).permutation(idx)
        for j in range(k):
            fold_members[j].extend(perm[j::k].tolist())
    splits = []
    all_idx = set(range(len(records)))
    for j in range(k):
        val = np.array(sorted(fold_members[j]), dtype=int)
        train = np.array(sorted(all_idx - set(fold_members[j])), dtype=int)
        splits.append((train, val))
    return splits
