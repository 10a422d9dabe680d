"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of the pansurv modules
with timing wrappers, at every name they are looked up by: module
attributes, and the names `training`, `attribution` and `cli` import by
value (`training.forward`, `attribution.prepare_patient`,
`cli.load_checkpoint`, ...). `uninstall()` puts the originals back. The
Sinkhorn backward is timed by wrapping the tape entry that
`fusion.sinkhorn_plan_op` records, so it shows up as a child of
`autodiff.backward`.

A span is a tuple (name, start_ns, end_ns, parent, patient, op, phase,
extra). `parent` is the index of the enclosing span (-1 at top level),
`patient` the id of the patient being processed, `op` the index of the
patient operation the span belongs to (see OP_KINDS) and `extra` a dict of
counts (Sinkhorn iterations, tape nodes, bytes read). Spans stay in memory
until `dump()`.

`layer_metrics()` turns spans into the per-layer figures of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# A patient operation is one unit of a workload's work: a training step
# (forward, loss and backward directly under training.train), a scoring
# (training.predict_risk) or an explanation (attribution_report).
OP_KINDS = ("step", "score", "explain")

# (span name, [(module, attribute), ...]); a function imported by value is
# wrapped at each module that holds it.
TARGETS = [
    ("autodiff.backward", [("autodiff", "backward")]),
    ("fusion.sinkhorn_plan_op", [("fusion", "sinkhorn_plan_op")]),
    ("fusion.ot_align", [("fusion", "ot_align")]),
    ("fusion.text_guided_decode", [("fusion", "text_guided_decode")]),
    ("encoders.encode_genomic_arrays", [("encoders", "encode_genomic_arrays")]),
    ("encoders.project_patches", [("encoders", "project_patches")]),
    ("encoders.embed_text_rows", [("encoders", "embed_text_rows")]),
    ("moe.gmoe_hazard", [("moe", "gmoe_hazard")]),
    ("moe.agent_logits", [("moe", "agent_logits")]),
    ("model.forward", [("model", "forward"), ("training", "forward"),
                       ("attribution", "forward")]),
    ("model.prepare_patient", [("model", "prepare_patient"),
                               ("training", "prepare_patient"),
                               ("attribution", "prepare_patient")]),
    ("model.load_checkpoint", [("model", "load_checkpoint"),
                               ("cli", "load_checkpoint")]),
    ("model.save_checkpoint", [("model", "save_checkpoint"),
                               ("training", "save_checkpoint")]),
    ("training.run_cross_validation", [("training", "run_cross_validation")]),
    ("training._run_fold", [("training", "_run_fold")]),
    ("training.train", [("training", "train")]),
    ("training.evaluate", [("training", "evaluate")]),
    ("training.predict_risk", [("training", "predict_risk")]),
    ("training.patient_loss", [("training", "patient_loss")]),
    ("optim.AdamW.step", [("optim.AdamW", "step")]),
    ("survival.concordance_index", [("survival", "concordance_index")]),
    ("survival.logrank_test", [("survival", "logrank_test")]),
    ("survival.km_curve", [("survival", "km_curve")]),
    ("survival.km_table", [("survival", "km_table")]),
    ("survival.dump_metrics", [("survival", "dump_metrics")]),
    ("survival.write_km_csv", [("survival", "write_km_csv")]),
    ("survival.write_km_svg", [("survival", "write_km_svg")]),
    ("bags.read_cohort", [("bags", "read_cohort")]),
    ("bags.write_cohort", [("bags", "write_cohort")]),
    ("synthetic.generate_cohort", [("synthetic", "generate_cohort")]),
    ("synthetic.write_truth", [("synthetic", "write_truth")]),
    ("attribution.attribution_report", [("attribution", "attribution_report")]),
    ("attribution.top_genes", [("attribution", "top_genes")]),
    ("attribution.cam_records_json", [("attribution", "cam_records_json")]),
]

NAME, START, END, PARENT, PATIENT, OP, PHASE, EXTRA = range(8)


def _resolve(path: str):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"pansurv.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _patient_of(args):
    for a in args:
        if hasattr(a, "cancer_type") and hasattr(a, "id"):
            return a.id
    return None


def _cohort_bytes(path: str) -> int:
    base = os.path.dirname(os.path.abspath(path))
    prefix = os.path.basename(path) + "."
    return os.path.getsize(path) + sum(
        os.path.getsize(os.path.join(base, f)) for f in os.listdir(base)
        if f.startswith(prefix) and f.endswith(".patches.bin"))


class Tracer:
    """Records spans while installed; `phase` labels the spans opened."""

    def __init__(self, phase: str = "run"):
        self.phase = phase
        self.spans = []
        self.ops = []          # op index -> kind
        self._stack = []
        self._step_op = {}     # training.train span -> op of its current step
        self._undo = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name, args):
        parent = self._stack[-1] if self._stack else -1
        pspan = self.spans[parent] if parent >= 0 else None
        patient = _patient_of(args)
        if patient is None and pspan is not None:
            patient = pspan[PATIENT]
        op = pspan[OP] if pspan is not None else -1
        if name == "training.predict_risk":
            op = self._new_op("score")
        elif name == "attribution.attribution_report":
            op = self._new_op("explain")
        elif pspan is not None and pspan[NAME] == "training.train":
            if name == "model.forward":
                op = self._step_op[parent] = self._new_op("step")
            elif name in ("training.patient_loss", "autodiff.backward"):
                op = self._step_op.get(parent, -1)
        idx = len(self.spans)
        self.spans.append([name, 0, 0, parent, patient, op, self.phase, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def _new_op(self, kind):
        self.ops.append(kind)
        return len(self.ops) - 1

    def timed(self, fn, name, after=None):
        """`fn` wrapped so each call records a span; `after(span, args,
        result)` runs once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, args)
            if name == "autodiff.backward":
                tracer.spans[idx][EXTRA] = {"nodes": len(args[0].nodes)}
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.spans[idx], args, result)
            return result
        return wrapper

    # -- hooks ------------------------------------------------------------
    def _after_sinkhorn(self, span, args, result):
        from pansurv import autodiff
        out, info = result
        span[EXTRA] = {"iters": info.iterations, "converged": bool(info.converged)}
        tape = autodiff._tape
        if out.requires_grad and tape is not None and tape.nodes \
                and tape.nodes[-1][0] is out:
            t, bw = tape.nodes[-1]
            tape.nodes[-1] = (t, self.timed(bw, "fusion.sinkhorn_backward"))

    @staticmethod
    def _after_read(span, args, result):
        span[EXTRA] = {"bytes": _cohort_bytes(args[0])}

    # -- install / uninstall ----------------------------------------------
    def install(self):
        after = {"fusion.sinkhorn_plan_op": self._after_sinkhorn,
                 "bags.read_cohort": self._after_read}
        for name, sites in TARGETS:
            original = _resolve(sites[0][0] + "." + sites[0][1])
            wrapped = self.timed(original, name, after.get(name))
            for owner, attr in sites:
                holder = _resolve(owner)
                self._undo.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def export(self):
        return {"ops": list(self.ops), "spans": [list(s) for s in self.spans]}


def dump(path: str, parts: dict):
    """Write exported tracers, keyed by process role, as one JSON file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "patient",
                              "op", "phase", "extra"], **parts}, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

class SpanSet:
    """Spans of some phases, each row (index, span, duration, self time,
    op kind)."""

    def __init__(self, exported: dict, phases):
        spans = exported["spans"]
        ops = exported["ops"]
        child_time = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.rows = []
        for i, s in enumerate(spans):
            if s[PHASE] in phases:
                dur = s[END] - s[START]
                kind = ops[s[OP]] if s[OP] >= 0 else None
                self.rows.append((i, s, dur, dur - child_time[i], kind))
        self.all = spans

    def named(self, name):
        return [r for r in self.rows if r[1][NAME] == name]

    def op_count(self, kinds):
        return len({r[1][OP] for r in self.rows if r[4] in kinds})


def _merge(parts):
    """Concatenate exported tracers, re-indexing parents and ops."""
    spans, ops = [], []
    for part in parts:
        base, obase = len(spans), len(ops)
        for s in part["spans"]:
            s = list(s)
            s[PARENT] = s[PARENT] + base if s[PARENT] >= 0 else -1
            s[OP] = s[OP] + obase if s[OP] >= 0 else -1
            spans.append(s)
        ops.extend(part["ops"])
    return {"spans": spans, "ops": ops}


def layer_metrics(parts, primary: str, run_wall_s: float,
                  overhead_pct: float, setups: int) -> dict:
    """Per-layer figures from exported tracers.

    A figure is taken from the measured round (phase "run"); a layer that
    does not run there is measured in the set-up phase, or failing that in
    the probe phase. Per-patient figures divide by the workload's primary operations
    (`primary` in OP_KINDS) in the measured round, or by the operations
    that hold the layer in the other phases. Cohort synthesis and writing
    are totals per set-up (`setups` of them ran).
    """
    merged = _merge(parts)
    run = SpanSet(merged, {"run"})
    fallbacks = (SpanSet(merged, {"setup"}), SpanSet(merged, {"probe"}))

    def pick(name, kinds=None):
        rows = [r for r in run.named(name) if kinds is None or r[4] in kinds]
        if rows:
            return run, rows, {primary}
        for spans in fallbacks:
            rows = [r for r in spans.named(name) if kinds is None or r[4] is not None]
            if rows:
                return spans, rows, {r[4] for r in rows if r[4] is not None}
        return run, [], set()

    def op_rows(name):
        """Spans of `name` inside patient operations, and the number of
        operations they are divided by."""
        spans, rows, kinds = pick(name, {primary})
        return spans, [r for r in rows if r[4] in kinds], spans.op_count(kinds)

    def per_op(name, field=3):
        _, rows, n = op_rows(name)
        return sum(r[field] for r in rows) / n / 1e6 if n else 0.0

    def per_call(name, field=2, scale=1e6):
        _, rows, _ = pick(name)
        return sum(r[field] for r in rows) / len(rows) / scale if rows else 0.0

    def extra_mean(name, key):
        _, rows, _ = pick(name)
        vals = [r[1][EXTRA][key] for r in rows if r[1][EXTRA]]
        return sum(vals) / len(vals) if vals else 0.0

    def calls_per_op(name):
        _, rows, n = op_rows(name)
        return len(rows) / n if n else 0.0

    def nodes_per_op():
        _, rows, n = op_rows("autodiff.backward")
        return sum(r[1][EXTRA]["nodes"] for r in rows if r[1][EXTRA]) / n if n else 0.0

    def agent_per_op():
        # end of the GMoE head to the end of the agent head inside one
        # forward: the detached fusion recompute plus the agent logits
        spans, rows, n = op_rows("moe.agent_logits")
        gmoe_end = {r[1][PARENT]: r[1][END] for r in spans.named("moe.gmoe_hazard")}
        total = sum(s[END] - gmoe_end[s[PARENT]] for _, s, _, _, _ in rows
                    if s[PARENT] in gmoe_end)
        return total / n / 1e6 if n else 0.0

    def steps_per_training():
        spans, rows, _ = pick("optim.AdamW.step")
        runs = len(spans.named("training.run_cross_validation"))
        return len(rows) / runs if runs else 0.0

    def validation_per_epoch():
        # one epoch's validation is a run of consecutive predict_risk and
        # concordance_index children of a training.train span
        for spans in (run,) + fallbacks:
            trains = {r[0] for r in spans.named("training.train")}
            if not trains:
                continue
            children = {}
            for s in spans.all:
                if s[PARENT] in trains:
                    children.setdefault(s[PARENT], []).append(s)
            total, blocks = 0, 0
            for kids in children.values():
                start = end = None
                for s in kids + [None]:
                    if s is not None and s[NAME] in ("training.predict_risk",
                                                     "survival.concordance_index"):
                        start = s[START] if start is None else start
                        end = s[END]
                    elif start is not None:
                        total += end - start
                        blocks += 1
                        start = None
            if blocks:
                return total / blocks / 1e9
        return 0.0

    def per_setup(name):
        return sum(r[2] for r in fallbacks[0].named(name)) / setups / 1e9

    def unconverged():
        _, rows, _ = pick("fusion.sinkhorn_plan_op")
        return sum(1 for r in rows if r[1][EXTRA] and not r[1][EXTRA]["converged"])

    def uncovered_pct():
        top = sum(r[2] for r in run.rows if r[1][PARENT] < 0)
        return 100.0 * (1.0 - top / 1e9 / run_wall_s) if run_wall_s else 0.0

    return {
        "autodiff.backward_ms_per_patient": per_op("autodiff.backward", 2),
        "autodiff.tape_nodes_per_patient": nodes_per_op(),
        "fusion.sinkhorn_fwd_ms_per_solve": per_call("fusion.sinkhorn_plan_op"),
        "fusion.sinkhorn_iters_per_solve": extra_mean("fusion.sinkhorn_plan_op", "iters"),
        "fusion.sinkhorn_unconverged_solves": unconverged(),
        "fusion.sinkhorn_bwd_ms_per_solve": per_call("fusion.sinkhorn_backward"),
        "fusion.sinkhorn_solves_per_patient": calls_per_op("fusion.sinkhorn_plan_op"),
        "fusion.ot_align_self_ms_per_patient": per_op("fusion.ot_align"),
        "fusion.decode_ms_per_patient": per_op("fusion.text_guided_decode", 2),
        "encoders.genomic_ms_per_patient": per_op("encoders.encode_genomic_arrays", 2),
        "encoders.patch_ms_per_patient": per_op("encoders.project_patches", 2),
        "encoders.text_ms_per_patient": per_op("encoders.embed_text_rows", 2),
        "moe.gmoe_ms_per_patient": per_op("moe.gmoe_hazard", 2),
        "moe.agent_ms_per_patient": agent_per_op(),
        "model.forward_self_ms_per_patient": per_op("model.forward"),
        "model.prepare_patient_ms_per_patient": per_call("model.prepare_patient"),
        "model.load_checkpoint_ms": per_call("model.load_checkpoint"),
        "model.save_checkpoint_ms": per_call("model.save_checkpoint"),
        "training.patient_loss_ms_per_patient": per_call("training.patient_loss"),
        "training.validation_s_per_epoch": validation_per_epoch(),
        "training.fold_s": per_call("training._run_fold", scale=1e9),
        "optim.adamw_step_ms": per_call("optim.AdamW.step"),
        "optim.steps": steps_per_training(),
        "survival.cindex_ms_per_call": per_call("survival.concordance_index"),
        "survival.logrank_ms_per_call": per_call("survival.logrank_test"),
        "survival.km_ms_per_call": per_call("survival.km_curve"),
        "bags.read_cohort_s": per_call("bags.read_cohort", scale=1e9),
        "bags.cohort_bytes": extra_mean("bags.read_cohort", "bytes"),
        "bags.write_cohort_s": per_setup("bags.write_cohort"),
        "synthetic.generate_cohort_s": per_setup("synthetic.generate_cohort"),
        "attribution.self_ms_per_patient": per_call("attribution.attribution_report", 3),
        "trace.uncovered_pct": uncovered_pct(),
        "trace.overhead_pct": overhead_pct,
    }
