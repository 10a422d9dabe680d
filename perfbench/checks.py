"""Output oracles, written apart from the program.

Each oracle takes plain data and returns a list of problems; an empty list
means the output passed. The survival statistics here (C-index, median
split, logrank, Kaplan-Meier) are independent re-implementations in plain
Python: they share no code with `pansurv.survival`. `selftest.py` feeds
every oracle one planted wrong answer to show it is not vacuous.
"""

from __future__ import annotations

import math

CINDEX_TOL = 1e-12      # brute-force C-index vs the program's
LOGRANK_REL_TOL = 1e-8  # erfc-based logrank p vs the program's
FD_REL_TOL = 1e-4       # CAM input gradient vs central differences
PERMUTE_TOL = 1e-12     # hazards before vs after permuting the patch bag
TRUTH_MIN_CINDEX = 0.85  # ground-truth risks on the synthetic cohort


def brute_cindex(risks, times, censored) -> float:
    """Harrell's C over comparable pairs: t_i < t_j with i an observed
    event; concordant when risk_i > risk_j, ties count one half."""
    num = 0.0
    comparable = 0
    n = len(risks)
    for i in range(n):
        if censored[i]:
            continue
        for j in range(n):
            if times[i] < times[j]:
                comparable += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / comparable


def median_split(risks):
    """The ceil(n/2) lowest risks form the low group; ties keep input order."""
    order = sorted(range(len(risks)), key=lambda i: (risks[i], i))
    n_low = (len(risks) + 1) // 2
    return sorted(order[:n_low]), sorted(order[n_low:])


def logrank(times_a, events_a, times_b, events_b):
    """Two-group logrank: (chi2, p) from the summed observed-minus-expected
    events of group a and the hypergeometric variance, p = erfc(sqrt(chi2/2))."""
    subjects = [(t, e, 0) for t, e in zip(times_a, events_a)] + \
               [(t, e, 1) for t, e in zip(times_b, events_b)]
    event_times = sorted({t for t, e, _ in subjects if e})
    o_minus_e = 0.0
    var = 0.0
    for et in event_times:
        n = sum(1 for t, _, _ in subjects if t >= et)
        n_a = sum(1 for t, _, g in subjects if t >= et and g == 0)
        d = sum(1 for t, e, _ in subjects if t == et and e)
        d_a = sum(1 for t, e, g in subjects if t == et and e and g == 0)
        if n < 2:
            continue
        o_minus_e += d_a - d * n_a / n
        var += d * (n_a / n) * (1 - n_a / n) * (n - d) / (n - 1)
    if var <= 0:
        return 0.0, 1.0
    chi2 = o_minus_e ** 2 / var
    return chi2, math.erfc(math.sqrt(chi2 / 2.0))


def product_limit(times, events):
    """Kaplan-Meier steps [(event time, survival after it)]."""
    steps = []
    s = 1.0
    for et in sorted({t for t, e in zip(times, events) if e}):
        at_risk = sum(1 for t in times if t >= et)
        deaths = sum(1 for t, e in zip(times, events) if e and t == et)
        s *= 1.0 - deaths / at_risk
        steps.append((et, s))
    return steps


def km_csv(times, events, risks) -> str:
    """The `pansurv km` CSV for a median risk split, rebuilt from scratch."""
    low, high = median_split(risks)
    curves = [product_limit([times[i] for i in grp], [events[i] for i in grp])
              for grp in (low, high)]
    grid = sorted({t for c in curves for t, _ in c})

    def value(curve, t):
        s = 1.0
        for et, v in curve:
            if et <= t:
                s = v
        return s

    lines = ["time,survival_low,survival_high"]
    for t in grid:
        lines.append(f"{t:.10g},{value(curves[0], t):.10g},{value(curves[1], t):.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def check_metrics(metrics: dict, risks, times, censored, cancers) -> list:
    """Per-cancer C-index and median-split logrank p of a metrics file
    against the brute-force C-index and the erfc logrank."""
    problems = []
    for cancer in sorted(set(cancers)):
        idx = [i for i, c in enumerate(cancers) if c == cancer]
        r = [risks[i] for i in idx]
        t = [times[i] for i in idx]
        c = [censored[i] for i in idx]
        want = brute_cindex(r, t, c)
        got = metrics["per_cancer_cindex"].get(cancer)
        if got is None or abs(got - want) > CINDEX_TOL:
            problems.append(f"{cancer}: C-index {got} != brute force {want}")
        low, high = median_split(r)
        _, p = logrank([t[i] for i in low], [not c[i] for i in low],
                       [t[i] for i in high], [not c[i] for i in high])
        got_p = metrics["logrank_p"].get(cancer)
        if got_p is None or abs(got_p - p) > LOGRANK_REL_TOL * max(p, 1e-300):
            problems.append(f"{cancer}: logrank p {got_p} != erfc logrank {p}")
    return problems


def check_km(csv_text: str, times, events, risks) -> list:
    want = km_csv(times, events, risks)
    if csv_text != want:
        got_lines = csv_text.splitlines()
        want_lines = want.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines))
                      if a != b), min(len(got_lines), len(want_lines)))
        return [f"km.csv differs from the product-limit table at line {first + 1}"]
    return []


def check_km_logrank(stdout: str, times, events, risks) -> list:
    """The chi2 and p that `pansurv km` prints, against the erfc logrank."""
    low, high = median_split(risks)
    chi2, p = logrank([times[i] for i in low], [events[i] for i in low],
                      [times[i] for i in high], [events[i] for i in high])
    want = f"logrank chi2={chi2:.4f} p={p:.4g};"
    if want not in stdout:
        return [f"km printed no '{want}'"]
    return []


def check_folds(splits, n: int) -> list:
    """Validation folds are disjoint and cover 0..n-1; each training set is
    the complement of its validation fold."""
    problems = []
    seen = []
    for train_idx, val_idx in splits:
        seen.extend(int(i) for i in val_idx)
        if set(map(int, train_idx)) != set(range(n)) - set(map(int, val_idx)):
            problems.append("a training set is not the complement of its fold")
    if sorted(seen) != list(range(n)):
        problems.append(f"validation folds overlap or miss patients "
                        f"({len(seen)} slots, {len(set(seen))} distinct, n={n})")
    return problems


def check_losses(fold_logs) -> list:
    """Every epoch loss is finite and each fold ends below where it started."""
    problems = []
    for fold, log in enumerate(fold_logs):
        losses = [e["train_loss"] for e in log]
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"fold {fold}: non-finite loss {losses}")
        elif len(losses) < 2 or not losses[-1] < losses[0]:
            problems.append(f"fold {fold}: loss did not fall {losses}")
    return problems


def check_truth(truth_risks, times, censored, cancers) -> list:
    """The planted risks rank the cohort well: the mean per-cancer C-index
    of the generator's ground truth exceeds TRUTH_MIN_CINDEX."""
    values = []
    for cancer in sorted(set(cancers)):
        idx = [i for i, c in enumerate(cancers) if c == cancer]
        values.append(brute_cindex([truth_risks[i] for i in idx],
                                   [times[i] for i in idx],
                                   [censored[i] for i in idx]))
    mean = sum(values) / len(values)
    if not mean > TRUTH_MIN_CINDEX:
        return [f"ground-truth C-index {mean:.4f} <= {TRUTH_MIN_CINDEX}"]
    return []


def check_finite(values, what: str) -> list:
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    return [f"{len(bad)} non-finite {what}, first at {bad[0]}"] if bad else []


def check_identical(got, want, what: str) -> list:
    """Bit-for-bit equality of two float sequences."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    return [f"{what}: {len(bad)} differ, first at {bad[0]}: "
            f"{got[bad[0]]!r} != {want[bad[0]]!r}"] if bad else []


def check_cams(rows, masks: dict, bag_lengths: dict) -> list:
    """CAM rows: masked genes score exactly 0, every score is finite and
    >= 0, and each patient has one patch score per patch in its bag."""
    problems = []
    patch_counts = {}
    for row in rows:
        pid, score = row["patient_id"], row["score"]
        if not (math.isfinite(score) and score >= 0.0):
            problems.append(f"{pid}: score {score} is negative or non-finite")
        if row["modality"] == "genomic":
            if masks[pid][row["group"]][row["index"]] == 0 and score != 0.0:
                problems.append(f"{pid}: masked gene {row['group']}[{row['index']}] "
                                f"scores {score}")
        else:
            patch_counts[pid] = patch_counts.get(pid, 0) + 1
    for pid, n in bag_lengths.items():
        if patch_counts.get(pid, 0) != n:
            problems.append(f"{pid}: {patch_counts.get(pid, 0)} patch scores for "
                            f"a bag of {n}")
    return problems


def check_gradients(pairs) -> list:
    """(label, analytic, central difference) triples agree to FD_REL_TOL."""
    problems = []
    for label, grad, fd in pairs:
        scale = max(abs(grad), abs(fd), 1e-8)
        if abs(grad - fd) / scale > FD_REL_TOL:
            problems.append(f"{label}: gradient {grad!r} vs finite difference {fd!r}")
    return problems


def check_permutation(pairs) -> list:
    """(label, hazards, hazards of the permuted bag) agree to PERMUTE_TOL."""
    problems = []
    for label, h, h_perm in pairs:
        worst = max(abs(a - b) for a, b in zip(h, h_perm))
        if not worst <= PERMUTE_TOL:
            problems.append(f"{label}: hazards move by {worst:.3g} when the "
                            f"patches are permuted")
    return problems
