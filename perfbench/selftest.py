"""Self-test of the output oracles in checks.py.

    python3 perfbench/selftest.py

Each oracle first gets a correct answer, computed by the program on a tiny
synthetic cohort, and must pass it; then it gets one planted wrong answer
and must reject it. Exits 1 if any oracle passes a wrong answer or rejects
a right one, so that no check in the benchmark passes vacuously.
"""

from __future__ import annotations

import copy
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _cohort():
    from pansurv import synthetic as sg
    from pansurv import training as tr
    records, truth = sg.generate_cohort(sg.CohortSpec(cases_per_cancer=10, seed=3))
    cfg = tr.TrainConfig(d_model=16, n_heads=2, n_experts=2, epochs=2, seed=3)
    model, log = tr.train(records, cfg)
    metrics, details = tr.evaluate(records, model)
    return records, truth, model, log, metrics, details


def main() -> int:
    from pansurv import attribution, model as pm, survival as sv, synthetic as sg
    records, truth, model, log, metrics, details = _cohort()
    risks = details["risks"]
    times = [r.survival_months for r in records]
    cens = [r.censored for r in records]
    events = [not c for c in cens]
    cancers = [r.cancer_type for r in records]
    shuffled = list(np.random.default_rng(0).permutation(risks))

    # km.csv as `pansurv km` writes it
    low, high = sv.median_risk_split(np.array(risks))
    t, e = np.array(times), np.array(events)
    table = sv.km_table(sv.km_curve(t[low], e[low]), sv.km_curve(t[high], e[high]))
    csv = "time,survival_low,survival_high\n" + "".join(
        f"{a:.10g},{b:.10g},{c:.10g}\n" for a, b, c in table)
    lines = csv.splitlines(keepends=True)
    moved = lines[:]
    moved[3], moved[4] = (lines[3].split(",")[0] + "," + lines[4].split(",", 1)[1],
                          lines[4].split(",")[0] + "," + lines[3].split(",", 1)[1])
    chi2, p = sv.logrank_test(t[low], e[low], t[high], e[high])
    stdout = f"logrank chi2={chi2:.4f} p={p:.4g}; wrote km.csv"

    # metrics with one logrank p moved by a relative 1e-6
    bent = copy.deepcopy(metrics)
    first = sorted(bent["logrank_p"])[0]
    bent["logrank_p"][first] *= 1.0 + 1e-6

    splits = sg.kfold_split(records, 5, 3)
    overlapping = [(tr_, va) for tr_, va in splits]
    overlapping[1] = (overlapping[1][0], np.concatenate([overlapping[1][1],
                                                         overlapping[0][1][:1]]))

    # a CAM report and the input gradient behind it
    rec = records[0]
    report, gen_grad = workloads.cam_with_gradient(model, rec)
    rows = attribution.cam_records_json(report)
    masks = {rec.id: {g: rec.genomic.mask[g].tolist() for g in rec.genomic.mask}}
    lengths = {rec.id: rec.wsi.patch_count}
    prep = pm.prepare_patient(rec, model)
    grad = float(gen_grad[0, 0])
    fd = workloads.risk_difference(model, prep, 0, 0)
    # pretend a gene with a positive score was masked
    hit = next(r for r in rows if r["modality"] == "genomic" and r["score"] > 0)
    masked = copy.deepcopy(masks)
    masked[rec.id][hit["group"]][hit["index"]] = 0.0
    negative = copy.deepcopy(rows)
    negative[-1]["score"] = -1e-9

    h = pm.forward(model, prep, need_agent=False).hazards.data
    prep.patches = prep.patches[::-1]
    h_perm = pm.forward(model, prep, need_agent=False).hazards.data

    truth_risks = [truth["patients"][r.id]["risk"] for r in records]
    cases = [
        ("C-index and logrank vs brute force",
         lambda: checks.check_metrics(metrics, risks, times, cens, cancers),
         lambda: checks.check_metrics(metrics, shuffled, times, cens, cancers)),
        ("logrank p to a relative 1e-8",
         lambda: checks.check_metrics(metrics, risks, times, cens, cancers),
         lambda: checks.check_metrics(bent, risks, times, cens, cancers)),
        ("KM table vs product limit",
         lambda: checks.check_km(csv, times, events, risks),
         lambda: checks.check_km("".join(moved), times, events, risks)),
        ("km logrank line",
         lambda: checks.check_km_logrank(stdout, times, events, risks),
         lambda: checks.check_km_logrank(stdout, times, events, shuffled)),
        ("folds disjoint and covering",
         lambda: checks.check_folds(splits, len(records)),
         lambda: checks.check_folds(overlapping, len(records))),
        ("loss finite and falling",
         lambda: checks.check_losses([log]),
         lambda: checks.check_losses([log[::-1]])),
        ("ground-truth C-index",
         lambda: checks.check_truth(truth_risks, times, cens, cancers),
         lambda: checks.check_truth(list(np.random.default_rng(1).permutation(truth_risks)),
                                    times, cens, cancers)),
        ("finite risks",
         lambda: checks.check_finite(risks, "risks"),
         lambda: checks.check_finite(risks[:-1] + [math.nan], "risks")),
        ("bit-identical reload",
         lambda: checks.check_identical(risks, list(risks), "risks"),
         lambda: checks.check_identical(risks, risks[:-1] + [np.nextafter(risks[-1], 1.0)],
                                        "risks")),
        ("masked genes score 0",
         lambda: checks.check_cams(rows, masks, lengths),
         lambda: checks.check_cams(rows, masked, lengths)),
        ("scores non-negative",
         lambda: checks.check_cams(rows, masks, lengths),
         lambda: checks.check_cams(negative, masks, lengths)),
        ("one patch score per patch",
         lambda: checks.check_cams(rows, masks, lengths),
         lambda: checks.check_cams(rows, masks, {rec.id: rec.wsi.patch_count + 1})),
        ("gradient vs central differences",
         lambda: checks.check_gradients([("TSG[0]", grad, fd)]),
         lambda: checks.check_gradients([("TSG[0]", grad * (1 + 1e-3), fd)])),
        ("patch permutation invariance",
         lambda: checks.check_permutation([("p", h.tolist(), h_perm.tolist())]),
         lambda: checks.check_permutation([("p", h.tolist(), (h_perm + 1e-9).tolist())])),
    ]
    bad = 0
    for name, right, wrong in cases:
        accepted = not right()
        rejected = bool(wrong())
        print(f"{'ok  ' if accepted and rejected else 'FAIL'} {name}: right answer "
              f"{'passes' if accepted else 'REJECTED'}, planted wrong answer "
              f"{'rejected' if rejected else 'PASSES'}")
        bad += not (accepted and rejected)
    print(f"{len(cases) - bad}/{len(cases)} oracles pass the right answer and "
          f"reject the planted wrong one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
