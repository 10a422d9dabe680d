"""Command-line surface: cohort synthesis, training, evaluation,
explanation, KM plots, and the expert-count sweep.

All configuration lives in JSON files; any scalar field can be overridden
on the command line with repeated `--set key=value` flags. The seed
resolution order is: --seed flag, config/spec file, the UMPS_SEED
environment variable, then the built-in default. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import attribution, bags, survival as sv, synthetic as sg, training as tr
from .model import ModelError, load_checkpoint, prepare_patient

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _typed(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = _typed(value.strip())
    return out


def _load_json(path: str, what: str):
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{what} file {path} is not valid JSON: {exc}") from None


def _load_record(cls, what: str, path, args):
    """The `cls` record from the JSON object at `path` (if any), updated by
    `--set` pairs, the seed and the --seed/--folds flags, then decoded and
    validated; every failure is a UsageError."""
    values = _load_json(path, what) if path else {}
    if not isinstance(values, dict):
        raise UsageError(f"{what} file {path} must hold a JSON object, "
                         f"not {type(values).__name__}")
    values.update(_parse_overrides(args.set))
    if "seed" not in values and "UMPS_SEED" in os.environ:
        values["seed"] = _typed(os.environ["UMPS_SEED"])
    for flag in ("seed", "folds"):
        if getattr(args, flag, None) is not None:
            values[flag] = getattr(args, flag)
    try:
        record = bags.decode(cls, values)
        record.validate()
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None
    return record


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def cmd_synth(args) -> int:
    spec = _load_record(sg.CohortSpec, "cohort spec", args.spec, args)
    records, truth = sg.generate_cohort(spec)
    os.makedirs(args.out, exist_ok=True)
    cohort_path = os.path.join(args.out, "cohort.jsonl")
    bags.write_cohort(cohort_path, records, binary_patches=args.binary_patches)
    sg.write_truth(os.path.join(args.out, "truth.json"), truth)
    print(f"wrote {len(records)} patients to {cohort_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    records = bags.read_cohort(_require_file(args.data, "cohort"))
    config = _load_record(tr.TrainConfig, "train config", args.config, args)
    os.makedirs(args.out, exist_ok=True)
    aggregate, _ = tr.run_cross_validation(records, config, k=config.folds,
                                           out_dir=args.out,
                                           workers=args.parallel_folds)
    print(f"mean fold overall C-index: {aggregate['mean_fold_overall_cindex']:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    records = bags.read_cohort(_require_file(args.data, "cohort"))
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    metrics, _ = tr.evaluate(records, model)
    if args.out:
        sv.dump_metrics(args.out, metrics)
        print(f"wrote metrics to {args.out}")
    else:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_explain(args) -> int:
    if args.top_k < 1:
        raise UsageError(f"--top-k must be >= 1, got {args.top_k}")
    records = bags.read_cohort(_require_file(args.data, "cohort"))
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    schema = records[0].genomic.schema
    reports_by_cancer = {}
    all_rows = []
    for rec in records:
        report = attribution.attribution_report(model, rec)
        reports_by_cancer.setdefault(rec.cancer_type, []).append(report)
        if args.cams:
            all_rows.extend(attribution.cam_records_json(report))
    ranked = {}
    for cancer, reports in sorted(reports_by_cancer.items()):
        top = attribution.top_genes(reports, schema, k=args.top_k)
        ranked[cancer] = {grp: [[name, score] for name, score in pairs]
                          for grp, pairs in top.items()}
    payload = {"top_genes": ranked, "k": args.top_k}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.cams:
        with open(args.cams, "w") as fh:
            json.dump(all_rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote top-{args.top_k} genes to {args.out}")
    return EXIT_OK


def cmd_km(args) -> int:
    records = bags.read_cohort(_require_file(args.data, "cohort"))
    if bool(args.checkpoint) == bool(args.risks):
        raise UsageError("km needs exactly one of --checkpoint or --risks")
    if args.checkpoint:
        model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
        risk_by_id = {rec.id: tr.predict_risk(model, prepare_patient(rec, model))
                      for rec in records}
    else:
        raw = _load_json(args.risks, "risk")
        try:
            rows = raw if isinstance(raw, list) else [{"id": k, "risk": v}
                                                      for k, v in raw.items()]
            risk_by_id = {row["id"]: float(row["risk"]) for row in rows}
        except KeyError as exc:
            raise UsageError(f"risk file {args.risks}: a row lacks {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise UsageError(f"risk file {args.risks}: {exc}") from None
    missing = [rec.id for rec in records if rec.id not in risk_by_id]
    if missing:
        raise UsageError(f"risks missing for {len(missing)} patients, e.g. {missing[0]}")
    risks = np.array([risk_by_id[rec.id] for rec in records])
    times = np.array([rec.survival_months for rec in records])
    events = np.array([not rec.censored for rec in records])
    low, high = sv.median_risk_split(risks)
    chi2, p_val = sv.logrank_test(times[low], events[low], times[high], events[high])
    table = sv.km_table(sv.km_curve(times[low], events[low]),
                        sv.km_curve(times[high], events[high]))
    os.makedirs(args.out, exist_ok=True)
    sv.write_km_csv(os.path.join(args.out, "km.csv"), table)
    sv.write_km_svg(os.path.join(args.out, "km.svg"), table, p_val)
    print(f"logrank chi2={chi2:.4f} p={p_val:.4g}; wrote km.csv and km.svg to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    records = bags.read_cohort(_require_file(args.data, "cohort"))
    config = _load_record(tr.TrainConfig, "train config", args.config, args)
    try:
        expert_counts = [int(x) for x in args.experts.split(",") if x.strip()]
    except ValueError:
        expert_counts = []
    if not expert_counts or min(expert_counts) < 1:
        raise UsageError(f"--experts expects comma-separated positive integers, "
                         f"got {args.experts!r}")
    os.makedirs(args.out, exist_ok=True)
    table = {}
    for n_e in expert_counts:
        cfg = dataclasses.replace(config, n_experts=n_e)
        run_dir = os.path.join(args.out, f"experts_{n_e}")
        aggregate, _ = tr.run_cross_validation(records, cfg, k=cfg.folds,
                                               out_dir=run_dir,
                                               workers=args.parallel_folds)
        table[str(n_e)] = {
            "overall_mean_cindex": aggregate["overall_mean_cindex"],
            "mean_fold_overall_cindex": aggregate["mean_fold_overall_cindex"],
            "per_cancer_cindex": aggregate["per_cancer_cindex"],
        }
        print(f"N_e={n_e}: mean fold overall "
              f"{aggregate['mean_fold_overall_cindex']:.4f}")
    with open(os.path.join(args.out, "sweep.json"), "w") as fh:
        json.dump({"experts": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pansurv",
        description="Multi-modal pan-cancer survival model on synthetic cohorts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort + truth sidecar")
    p.add_argument("--spec", help="cohort spec JSON (defaults used when omitted)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--binary-patches", action="store_true",
                   help="store patch bags as binary sidecar matrices")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="k-fold cross-validated training")
    p.add_argument("--data", required=True, help="cohort JSONL path")
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--parallel-folds", type=int, default=1)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a cohort")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="metrics JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="gene CAM rankings per cancer type")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--out", required=True, help="top-genes JSON path")
    p.add_argument("--cams", help="optional per-patient CAM dump path")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("km", help="median-split Kaplan-Meier CSV + SVG")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--risks", help="JSON risks instead of a checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("sweep", help="expert-count sweep over cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--experts", default="1,5,10,15,20")
    p.add_argument("--out", required=True)
    p.add_argument("--parallel-folds", type=int, default=1)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (tr.TrainingError, sg.SpecError, sv.SurvivalError, ModelError,
            bags.BinningError, bags.CohortError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
