"""Per-patient data bags: text templating, genomic values/masks, patch bags,
and survival-time discretization.

Also owns the cohort file format: JSON Lines, one patient per line, with
patch features either inline or in a little-endian binary sidecar whose
8-byte header holds rows/cols as two uint32 values.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

SEXES = ("male", "female")

RACES = (
    "White",
    "Black or African American",
    "Asian",
    "American Indian or Alaska native",
    "Native Hawaiian or other pacific islander",
    "Not reported",
)

TREATMENTS = ("none", "radiation", "pharmaceutical", "both")

# canonical genomic groups, in fixed order
GENOMIC_GROUPS = ("TSG", "ONC", "PK", "CDM", "TF", "CGF")

CANCER_FULL_NAMES = {
    "BLCA": "Bladder Urothelial Carcinoma",
    "BRCA": "Breast Invasive Carcinoma",
    "GBMLGG": "Glioblastoma & Lower Grade Glioma",
    "LUAD": "Lung Adenocarcinoma",
    "UCEC": "Uterine Corpus Endometrial Carcinoma",
}


class TemplateError(ValueError):
    """A text template field is missing or outside its vocabulary."""


class SchemaError(ValueError):
    """A genomic group or gene name is not in the reference schema."""


class BinningError(ValueError):
    """Survival-time discretization precondition violated."""


class CohortError(ValueError):
    """A cohort file line is not a valid patient record."""


@dataclass
class PatientMeta:
    sex: str
    age: int
    race: str
    cancer_type: str
    primary_diagnosis: str
    stage: str
    t_stage: str
    n_stage: str
    m_stage: str
    treatments: str

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or (isinstance(v, str) and not v.strip()):
                raise TemplateError(f"missing meta field: {f.name}")
        if self.sex not in SEXES:
            raise TemplateError(f"sex {self.sex!r} not in {SEXES}")
        if self.race not in RACES:
            raise TemplateError(f"race {self.race!r} not in declared vocabulary")
        if self.treatments not in TREATMENTS:
            raise TemplateError(f"treatments {self.treatments!r} not in {TREATMENTS}")
        if int(self.age) <= 0:
            raise TemplateError(f"age must be positive, got {self.age}")


@dataclass
class WsiBag:
    patch_features: np.ndarray  # (N_p, d_patch)

    def __post_init__(self):
        self.patch_features = np.asarray(self.patch_features, dtype=np.float64)
        if self.patch_features.ndim != 2 or self.patch_features.shape[0] < 1:
            raise ValueError(f"patch bag needs >=1 patches of equal dim, got "
                             f"shape {self.patch_features.shape}")

    @property
    def patch_count(self):
        return self.patch_features.shape[0]


@dataclass
class GenomicBag:
    values: dict  # group -> float array, zeros where padded
    mask: dict    # group -> 0/1 array, 1 = observed
    schema: dict  # group -> list of gene names

    def __post_init__(self):
        if set(self.schema) != set(GENOMIC_GROUPS):
            raise SchemaError(f"schema must cover exactly the groups {GENOMIC_GROUPS}")
        for grp in GENOMIC_GROUPS:
            v = np.asarray(self.values[grp], dtype=np.float64)
            m = np.asarray(self.mask[grp], dtype=np.float64)
            if len(v) != len(self.schema[grp]) or len(m) != len(v):
                raise SchemaError(f"group {grp}: value/mask length != schema length")
            if not np.all((m == 0.0) | (m == 1.0)):
                raise SchemaError(f"group {grp}: mask entries must be 0 or 1")
            if np.any(v[m == 0.0] != 0.0):
                raise SchemaError(f"group {grp}: padded positions must hold 0")
            self.values[grp] = v
            self.mask[grp] = m


@dataclass
class PatientRecord:
    id: str
    cancer_type: str
    meta: PatientMeta
    wsi: WsiBag
    genomic: GenomicBag
    survival_months: float
    censored: bool


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

def _fits(tp, value) -> bool:
    args = get_args(tp)
    if get_origin(tp) is tuple:
        return isinstance(value, list) and all(_fits(args[0], v) for v in value)
    if get_origin(tp) is dict:
        return isinstance(value, dict) and all(_fits(args[1], v) for v in value.values())
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _type_name(tp) -> str:
    if get_origin(tp) is tuple:
        return f"list of {_type_name(get_args(tp)[0])}"
    if get_origin(tp) is dict:
        return f"object of {_type_name(get_args(tp)[1])}"
    return tp.__name__


def decode(cls, obj):
    """The dataclass `cls` built from a decoded JSON object.

    Every key must name a field and every field without a default must be
    present. Every value must have its field's annotated type, element by
    element: a JSON array becomes a tuple, an int is a valid float (and
    stays an int), a bool is never a number. Raises ValueError naming the
    field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown fields {unknown}")
    values = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing field {f.name}")
            continue
        tp, value = hints[f.name], obj[f.name]
        if not _fits(tp, value):
            raise ValueError(f"field {f.name} must be {_type_name(tp)}, got {value!r}")
        values[f.name] = tuple(value) if get_origin(tp) is tuple else value
    return cls(**values)


def cancer_full_name(code: str) -> str:
    return CANCER_FULL_NAMES.get(code, code)


# ---------------------------------------------------------------------------
# text bag
# ---------------------------------------------------------------------------

def render_text_bag(meta: PatientMeta) -> tuple[str, str, str, str]:
    """Instantiate the four sentence templates (demographic, cancer,
    diagnosis, treatment), in that order. Pure: identical meta gives
    byte-identical strings."""
    meta.validate()
    pronoun = "He" if meta.sex == "male" else "She"
    noun = "Man" if meta.sex == "male" else "Woman"
    dem = f"{pronoun} is a {int(meta.age)}-year-old {meta.race} race {noun}."
    can = f"This is a patient who has {cancer_full_name(meta.cancer_type)}."
    dia = (f"{pronoun} has {meta.primary_diagnosis} at {meta.stage}. "
           f"{meta.t_stage}, {meta.n_stage}, {meta.m_stage}.")
    if meta.treatments == "none":
        tre = "No treatment is applied."
    elif meta.treatments == "both":
        tre = "Radiation and pharmaceutical therapy is applied."
    else:
        tre = f"{meta.treatments.title()} is applied."
    return dem, can, dia, tre


# ---------------------------------------------------------------------------
# survival-time discretization
# ---------------------------------------------------------------------------

def compute_bin_edges(uncensored_times, n_bins: int) -> np.ndarray:
    """n_bins-quantile edges over uncensored survival times (sort-and-index)."""
    times = np.asarray(uncensored_times, dtype=np.float64)
    if n_bins < 1:
        raise BinningError(f"n_bins must be >= 1, got {n_bins}")
    if len(np.unique(times)) < n_bins:
        raise BinningError(
            f"need at least {n_bins} distinct uncensored times, got {len(np.unique(times))}")
    if n_bins == 1:
        return np.zeros(0)
    s = np.sort(times)
    edges = np.array([s[(i * len(s)) // n_bins] for i in range(1, n_bins)])
    if np.any(np.diff(edges) <= 0):
        raise BinningError("duplicated times collapse a quantile edge")
    return edges


def assign_time_bin(months: float, edges) -> int:
    """Index of the half-open interval holding `months`; boundary values go
    to the higher bin; the last bin is unbounded above."""
    if months < 0:
        raise BinningError(f"months must be nonnegative, got {months}")
    return int(np.searchsorted(np.asarray(edges), months, side="right"))


# ---------------------------------------------------------------------------
# cohort file format
# ---------------------------------------------------------------------------

_MATRIX_HEADER = struct.Struct("<II")


def write_patch_matrix(path: str, matrix: np.ndarray):
    """Binary patch matrix: uint32 rows, uint32 cols, float64 row-major, LE."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MATRIX_HEADER.pack(m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_patch_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols = _MATRIX_HEADER.unpack(fh.read(8))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).astype(np.float64)


def patient_to_json(rec: PatientRecord, patch_path: str | None = None) -> dict:
    obj = {
        "id": rec.id,
        "cancer_type": rec.cancer_type,
        "meta": asdict(rec.meta),
        "patch_features": patch_path if patch_path is not None
        else [[float(x) for x in row] for row in rec.wsi.patch_features],
        "genomic": {grp: {"values": rec.genomic.values[grp].tolist(),
                          "mask": rec.genomic.mask[grp].tolist()}
                    for grp in GENOMIC_GROUPS},
        "survival_months": float(rec.survival_months),
        "censored": bool(rec.censored),
    }
    return obj


def positional_schema(sizes: dict) -> dict:
    """Gene names derived from group sizes, e.g. TSG_0000 .. TSG_0011."""
    return {grp: [f"{grp}_{i:04d}" for i in range(int(sizes[grp]))]
            for grp in GENOMIC_GROUPS}


def write_cohort(path: str, records, binary_patches: bool = False):
    """One JSON object per line; optional binary sidecars for patch bags."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as fh:
        for rec in records:
            patch_path = None
            if binary_patches:
                patch_path = f"{os.path.basename(path)}.{rec.id}.patches.bin"
                write_patch_matrix(os.path.join(base, patch_path), rec.wsi.patch_features)
            fh.write(json.dumps(patient_to_json(rec, patch_path)) + "\n")


def read_cohort(path: str) -> list[PatientRecord]:
    """Parse a JSON Lines cohort. Patch features may be inline arrays or a
    path (relative to the cohort file, and inside its directory) to a binary
    matrix. Positional gene names are derived from the first patient's
    group lengths. A line that is not valid JSON, lacks a key, holds a bad
    value (a non-finite survival time among them), has no gene in any group
    or names two different cancer types raises CohortError naming
    `path:line`.
    """
    base = os.path.dirname(os.path.abspath(path))
    records = []
    schema = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pf = obj["patch_features"]
                if isinstance(pf, str):
                    sidecar = os.path.abspath(os.path.join(base, pf))
                    if os.path.commonpath([base, sidecar]) != base:
                        raise ValueError(f"patch sidecar {pf!r} lies outside {base}")
                    patches = read_patch_matrix(sidecar)
                else:
                    patches = np.asarray(pf, dtype=np.float64)
                if schema is None:
                    schema = positional_schema(
                        {g: len(obj["genomic"][g]["values"]) for g in GENOMIC_GROUPS})
                genomic = GenomicBag(
                    values={g: np.asarray(obj["genomic"][g]["values"]) for g in GENOMIC_GROUPS},
                    mask={g: np.asarray(obj["genomic"][g]["mask"]) for g in GENOMIC_GROUPS},
                    schema=schema,
                )
                if not any(len(v) for v in genomic.values.values()):
                    raise ValueError("every gene group is empty")
                meta = PatientMeta(**obj["meta"])
                meta.validate()
                if obj["cancer_type"] != meta.cancer_type:
                    raise ValueError(f"cancer_type {obj['cancer_type']!r} differs from "
                                     f"meta cancer_type {meta.cancer_type!r}")
                months = float(obj["survival_months"])
                if not math.isfinite(months):
                    raise ValueError(f"survival_months must be finite, got {months}")
                records.append(PatientRecord(
                    id=obj["id"], cancer_type=obj["cancer_type"], meta=meta,
                    wsi=WsiBag(patches), genomic=genomic,
                    survival_months=months,
                    censored=bool(obj["censored"]),
                ))
            except KeyError as exc:
                raise CohortError(f"{path}:{lineno}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise CohortError(f"{path}:{lineno}: {exc}") from None
    return records
