"""Full-network assembly: parameter construction, the per-patient forward
pass, and checkpoint persistence.

A Model is a flat name->Tensor dict plus the metadata needed to rebuild it
(dimensions, cancer vocabulary, time-bin edges, text-table seed). The
forward pass wires encoders -> OT fusion (image<->text, genomic<->text) ->
GMoE hazards + agent logits. The fusion runs once; the agent head reads
the fused features through a gradient cut (autodiff.sever), so the
cancer-classification loss trains the fusion and the image/genomic
encoders but never reaches the text adapter.

Checkpoint format: magic "UMPS1\n", an 8-byte little-endian manifest
length, a JSON manifest (meta + tensor names/shapes/dtypes/offsets), then
the raw little-endian tensor payloads concatenated in manifest order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoders, fusion, moe
from .autodiff import Tensor
from .bags import PatientRecord, assign_time_bin, decode, render_text_bag

MAGIC = b"UMPS1\n"


class ModelError(ValueError):
    pass


@dataclass
class ModelMeta:
    d_model: int
    n_bins: int
    n_experts: int
    n_heads: int
    ffn_mult: int
    d_patch: int
    sinkhorn_eps: float
    sinkhorn_max_iter: int
    sinkhorn_tol: float
    cancer_types: tuple[str, ...]
    group_sizes: dict[str, int]
    bin_edges: tuple[float, ...]
    text_table_seed: int
    text_table_size: int


def check_architecture(cfg):
    """The rules every model shape obeys, for a ModelMeta or a TrainConfig:
    positive sizes and Sinkhorn settings, and an even d_model that the
    heads divide. Raises ValueError naming the field."""
    for name in ("d_model", "n_bins", "n_experts", "n_heads", "ffn_mult", "sinkhorn_eps",
                 "sinkhorn_max_iter", "sinkhorn_tol", "text_table_size"):
        if not getattr(cfg, name) > 0:
            raise ValueError(f"field {name} must be positive, got {getattr(cfg, name)}")
    if cfg.d_model % 2 or cfg.d_model % cfg.n_heads:
        raise ValueError(f"field d_model must be even and divisible by n_heads, got "
                         f"d_model {cfg.d_model} and n_heads {cfg.n_heads}")


@dataclass
class Model:
    params: dict
    meta: ModelMeta
    table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.table is None:
            self.table = encoders.frozen_text_table(
                self.meta.text_table_seed, self.meta.text_table_size, self.meta.d_model)


def init_model(meta: ModelMeta, seed: int) -> Model:
    """Deterministic parameter construction; output heads start at zero."""
    rng = np.random.default_rng([seed, 42])
    p = {}
    p.update(encoders.init_genomic_params(rng, meta.d_model, meta.ffn_mult))
    p.update(encoders.init_patch_params(rng, meta.d_patch, meta.d_model))
    p.update(encoders.init_text_params(rng, meta.d_model))
    p.update(fusion.init_fusion_params(rng, meta.d_model, "fuse_p", meta.ffn_mult))
    p.update(fusion.init_fusion_params(rng, meta.d_model, "fuse_g", meta.ffn_mult))
    p.update(moe.init_expert_params(rng, meta.d_model, meta.n_bins, meta.n_experts,
                                    meta.ffn_mult))
    p.update(moe.init_gate_params(meta.d_model, meta.n_experts))
    p.update(moe.init_agent_params(meta.d_model, len(meta.cancer_types)))
    return Model(params=p, meta=meta)


# ---------------------------------------------------------------------------
# patient preparation
# ---------------------------------------------------------------------------

@dataclass
class PatientPrep:
    id: str
    cancer_type: str
    cancer_idx: int
    gen_values: np.ndarray   # (6, L) padded
    gen_mask: np.ndarray     # (6, L)
    patches: np.ndarray      # (N_p, d_patch)
    txt_rows: np.ndarray     # (4, d_model) frozen sentence vectors
    months: float
    censored: bool
    time_bin: int


def prepare_patient(record: PatientRecord, model: Model) -> PatientPrep:
    meta = model.meta
    if record.cancer_type not in meta.cancer_types:
        raise ModelError(f"cancer type {record.cancer_type!r} not in model vocabulary "
                         f"{meta.cancer_types}")
    values, mask = encoders.bag_to_arrays(record.genomic)
    if record.wsi.patch_features.shape[1] != meta.d_patch:
        raise ModelError(f"patch dim {record.wsi.patch_features.shape[1]} != "
                         f"model d_patch {meta.d_patch}")
    for grp, genes in record.genomic.schema.items():
        if len(genes) != meta.group_sizes.get(grp):
            raise ModelError(f"patient {record.id}: gene group {grp} has {len(genes)} "
                             f"genes, model expects {meta.group_sizes.get(grp)}")
    bag = render_text_bag(record.meta)
    txt_rows = np.stack([encoders.frozen_sentence_vector(s, model.table)
                         for s in bag.sentences])
    return PatientPrep(
        id=record.id, cancer_type=record.cancer_type,
        cancer_idx=meta.cancer_types.index(record.cancer_type),
        gen_values=values, gen_mask=mask,
        patches=record.wsi.patch_features, txt_rows=txt_rows,
        months=record.survival_months, censored=record.censored,
        time_bin=assign_time_bin(record.survival_months, np.asarray(meta.bin_edges)),
    )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardOutput:
    hazards: Tensor
    curve: object
    agent: Tensor | None
    gate: Tensor
    gen_tokens: Tensor
    patch_tokens: Tensor
    plans: dict


def forward(model: Model, prep: PatientPrep, need_agent: bool = True,
            gen_values: Tensor | None = None,
            patches: Tensor | None = None) -> ForwardOutput:
    """Compose the full network for one patient.

    `gen_values`/`patches` may be passed as Tensors to obtain input
    gradients (attribution, gradient checks); defaults wrap the prepared
    arrays as constants.
    """
    meta = model.meta
    p = model.params
    txt = encoders.embed_text_rows(prep.txt_rows, p)
    gen_feats, gen_tokens = encoders.encode_genomic_arrays(
        gen_values if gen_values is not None else prep.gen_values,
        prep.gen_mask, p, n_heads=meta.n_heads)
    patch_tokens = encoders.project_patches(
        patches if patches is not None else prep.patches, p)

    mark = ad.tape_mark()
    fused, plans = {}, {}
    for key, src in (("p", patch_tokens), ("g", gen_feats)):
        aligned, plans[key] = fusion.ot_align(
            src, txt, p, f"fuse_{key}", eps=meta.sinkhorn_eps,
            max_iter=meta.sinkhorn_max_iter, tol=meta.sinkhorn_tol)
        fused[key] = fusion.text_guided_decode(txt, aligned, p, f"fuse_{key}",
                                               n_heads=meta.n_heads)
    fused_p, fused_g = fused["p"], fused["g"]
    # the agent reads the fused rows through a gradient cut: L_ce sweeps
    # back through the fusion nodes recorded since `mark` and stops at
    # `txt`, so it trains the fusion and the image/genomic encoders but
    # never the text adapter. Cutting here, before the GMoE, keeps the
    # sweep to the fusion nodes.
    if need_agent:
        agent_in = (ad.sever(fused_p, txt, mark), ad.sever(fused_g, txt, mark))
    cancer_emb = ad.reshape(ad.narrow(txt, 0, 1, 1), (meta.d_model,))
    diag_emb = ad.reshape(ad.narrow(txt, 0, 2, 1), (meta.d_model,))
    gmoe_out = moe.gmoe_hazard(fused_p, fused_g, txt, cancer_emb, diag_emb, p,
                               n_heads=meta.n_heads)
    agent = moe.agent_logits(*agent_in, p) if need_agent else None
    return ForwardOutput(
        hazards=gmoe_out.hazards, curve=gmoe_out.curve, agent=agent,
        gate=gmoe_out.gate, gen_tokens=gen_tokens, patch_tokens=patch_tokens, plans=plans)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, model: Model):
    tensors = []
    offset = 0
    blobs = []
    for name, t in model.params.items():
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(t.data.shape),
                        "dtype": "<f8", "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({"meta": asdict(model.meta), "tensors": tensors},
                          sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str) -> Model:
    """Rebuild a model; every tensor's shape, dtype and extent is validated
    against the architecture implied by the stored configuration. Any
    manifest that cannot be read or built into a model raises ModelError
    naming `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise ModelError(f"{path} is not a model checkpoint (bad magic)")
    body = len(MAGIC) + 8
    end = body + int.from_bytes(data[len(MAGIC):body], "little")
    try:
        manifest = json.loads(data[body:end].decode("utf-8"))
    except ValueError:
        raise ModelError(f"{path}: truncated or unreadable manifest") from None
    try:
        meta = decode(ModelMeta, manifest["meta"])
        check_architecture(meta)
        model = init_model(meta, seed=0)
        payload = memoryview(data)[end:]
        seen = set()
        for entry in manifest["tensors"]:
            name = entry["name"]
            if name not in model.params:
                raise ModelError(f"{path}: tensor {name!r} unknown to this architecture")
            expected = tuple(model.params[name].data.shape)
            if tuple(entry["shape"]) != expected:
                raise ModelError(f"{path}: tensor {name!r} has shape {entry['shape']}, "
                                 f"architecture expects {list(expected)}")
            if entry["dtype"] != "<f8":
                raise ModelError(f"{path}: tensor {name!r} has dtype {entry['dtype']}, "
                                 f"not <f8")
            if entry["nbytes"] != 8 * int(np.prod(expected)):
                raise ModelError(f"{path}: tensor {name!r} has {entry['nbytes']} bytes "
                                 f"for shape {list(expected)}")
            start, stop = entry["offset"], entry["offset"] + entry["nbytes"]
            if start < 0 or stop > len(payload):
                raise ModelError(f"{path}: tensor {name!r} lies outside the payload")
            arr = np.frombuffer(payload[start:stop], dtype="<f8").reshape(expected)
            model.params[name].data = arr.astype(np.float64)
            seen.add(name)
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"{path}: manifest lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{path}: bad manifest: {exc}") from None
    missing = set(model.params) - seen
    if missing:
        raise ModelError(f"{path}: checkpoint is missing tensors: {sorted(missing)}")
    return model
