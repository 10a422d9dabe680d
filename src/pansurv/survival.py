"""Discrete-time survival losses and evaluation statistics.

Hazards live in per-time-bin space; cumulative survival is the running
product of (1 - hazard). The negative log-likelihood treats censored == 1
as "event not observed": a censored patient only pays for surviving through
their last seen bin, an uncensored patient additionally pays the event-bin
hazard. Evaluation covers the concordance index, Kaplan-Meier curves, the
two-group logrank test and median risk splits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

LOG_FLOOR = ad.LOG_FLOOR


class SurvivalError(ValueError):
    pass


@dataclass
class HazardCurve:
    """Per-bin hazards and the derived cumulative survival."""

    hazards: np.ndarray
    survival: np.ndarray

    @classmethod
    def from_hazards(cls, hazards) -> "HazardCurve":
        h = np.asarray(hazards, dtype=np.float64)
        return cls(hazards=h, survival=cumulative_survival(h))


def cumulative_survival(hazards) -> np.ndarray:
    """S(n) = prod_{k<=n} (1 - h_k)."""
    h = np.asarray(hazards, dtype=np.float64)
    if np.any(h < 0) or np.any(h > 1):
        raise SurvivalError(f"hazards must lie in [0,1], got range "
                            f"[{h.min()}, {h.max()}]")
    return np.cumprod(1.0 - h)


def nll_survival_loss(curve: HazardCurve, censored, time_bin: int) -> float:
    """Discrete-time survival NLL for one patient (logs clamped at 1e-12).

    loss = -c*log S(y) - (1-c)*log S(y-1) - (1-c)*log h(y), with S(-1) = 1.
    """
    y = int(time_bin)
    c = 1.0 if censored else 0.0
    n = len(curve.hazards)
    if y < 0 or y >= n:
        raise SurvivalError(f"time bin {y} outside [0, {n})")
    s = curve.survival

    def _log(v):
        return math.log(max(v, LOG_FLOOR))

    loss = -c * _log(s[y])
    if not censored:
        s_prev = 1.0 if y == 0 else s[y - 1]
        loss += -_log(s_prev) - _log(curve.hazards[y])
    return loss


def nll_survival_loss_graph(hazards: ad.Tensor, censored, time_bin: int) -> ad.Tensor:
    """Graph version of the NLL over a hazards tensor of shape (n_bins,)."""
    y = int(time_bin)
    n = hazards.data.shape[0]
    if y < 0 or y >= n:
        raise SurvivalError(f"time bin {y} outside [0, {n})")
    log_one_minus = ad.log(1.0 - hazards)
    log_surv = ad.cumsum(log_one_minus)          # log S(n)
    if censored:
        return -ad.pick(log_surv, y)
    loss = -ad.pick(ad.log(hazards), y)
    if y > 0:
        loss = loss - ad.pick(log_surv, y - 1)
    return loss


def cross_entropy(logits, label: int) -> float:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    return float(np.log(np.exp(z).sum()) - z[int(label)])


def cross_entropy_graph(logits: ad.Tensor, label: int) -> ad.Tensor:
    return -ad.pick(ad.log_softmax(logits), int(label))


def risk_score(curve: HazardCurve) -> float:
    """Scalar risk, higher = worse prognosis: negative summed survival."""
    return float(-curve.survival.sum())


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def concordance_index(risks, times, censored) -> float:
    """Fraction of comparable pairs ordered consistently by risk.

    A pair (i, j) is comparable when t_i < t_j and patient i is uncensored;
    it is concordant when risk_i > risk_j, and tied risks earn 0.5.
    """
    r = np.asarray(risks, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    c = np.asarray(censored, dtype=bool)
    if len(r) < 2:
        raise SurvivalError("concordance needs at least two patients")
    comparable = (t[:, None] < t[None, :]) & ~c[:, None]
    n_comp = comparable.sum()
    if n_comp == 0:
        raise SurvivalError("no comparable pairs")
    conc = (r[:, None] > r[None, :]) & comparable
    ties = (r[:, None] == r[None, :]) & comparable
    return float((conc.sum() + 0.5 * ties.sum()) / n_comp)


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

@dataclass
class KmCurve:
    times: np.ndarray      # distinct event times, ascending
    survival: np.ndarray   # step value after each event time
    at_risk: np.ndarray    # risk-set size just before each event time


def _risk_sets(times, events, grid) -> tuple[np.ndarray, np.ndarray]:
    """Risk-set size (subjects with time >= g) and event count (events at
    time g) at each time g of the ascending `grid`."""
    t = np.sort(times)
    event_t = np.sort(times[events])
    at_risk = len(t) - np.searchsorted(t, grid, side="left")
    deaths = (np.searchsorted(event_t, grid, side="right")
              - np.searchsorted(event_t, grid, side="left"))
    return at_risk, deaths


def km_curve(times, events) -> KmCurve:
    """Product-limit estimator; `events` uses 1 = event observed.

    Censored subjects shrink later risk sets without a drop; subjects
    censored at an event time count as at risk for that time.
    """
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=bool)
    if len(t) == 0:
        raise SurvivalError("empty cohort")
    event_times = np.unique(t[e])
    at_risk, deaths = _risk_sets(t, e, event_times)
    return KmCurve(times=event_times, survival=np.cumprod(1.0 - deaths / at_risk),
                   at_risk=at_risk)


# ---------------------------------------------------------------------------
# logrank test
# ---------------------------------------------------------------------------

def logrank_test(times_a, events_a, times_b, events_b) -> tuple[float, float]:
    """Two-group logrank: observed vs expected events at each distinct event
    time with hypergeometric variance; returns (chi-square, p) with 1 df."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=bool)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=bool)
    if len(ta) == 0 or len(tb) == 0:
        raise SurvivalError("both groups must be nonempty")
    all_t = np.concatenate([ta, tb])
    all_e = np.concatenate([ea, eb])
    if not all_e.any():
        raise SurvivalError("zero total events")
    grid = np.unique(all_t[all_e])
    n, d = _risk_sets(all_t, all_e, grid)
    na, da = _risk_sets(ta, ea, grid)
    keep = n > 1  # a risk set of one has zero variance
    n, d, na, da = n[keep], d[keep], na[keep], da[keep]
    frac_a = na / n
    # running sums in event-time order from 0.0; np.sum would add pairwise
    o_minus_e = np.cumsum(np.concatenate([[0.0], da - d * frac_a]))[-1]
    var = np.cumsum(np.concatenate(
        [[0.0], d * frac_a * (1.0 - frac_a) * (n - d) / (n - 1)]))[-1]
    if var <= 0:
        return 0.0, 1.0
    chi2 = float(o_minus_e * o_minus_e / var)
    return chi2, math.erfc(math.sqrt(chi2 / 2.0))


def median_risk_split(risks) -> tuple[np.ndarray, np.ndarray]:
    """Stable median split: the ceil(n/2) lowest risks (ties resolved in
    original order) form the low-risk group. Returns (low_idx, high_idx)."""
    r = np.asarray(risks, dtype=np.float64)
    if len(r) < 2:
        raise SurvivalError("median split needs at least two patients")
    order = np.argsort(r, kind="stable")
    n_low = (len(r) + 1) // 2
    return np.sort(order[:n_low]), np.sort(order[n_low:])


# ---------------------------------------------------------------------------
# reporting surfaces
# ---------------------------------------------------------------------------

def metrics_json(per_cancer_cindex: dict, logrank_p: dict, fold_details=None,
                 warnings=None) -> dict:
    valid = [v for v in per_cancer_cindex.values() if v is not None]
    return {
        "per_cancer_cindex": per_cancer_cindex,
        "overall_mean_cindex": float(np.mean(valid)) if valid else None,
        "logrank_p": logrank_p,
        "fold_details": fold_details if fold_details is not None else [],
        "warnings": warnings or [],
    }


def per_cancer_cindex(risks, months, censored, cancers) -> tuple[dict, list]:
    """C-index of each cancer's patients, cancers in sorted order.

    Returns ({cancer: C-index}, warnings); a cancer whose C-index cannot be
    computed maps to None and adds a "<cancer>: <reason>" warning.
    """
    r = np.asarray(risks, dtype=np.float64)
    t = np.asarray(months, dtype=np.float64)
    c = np.asarray(censored, dtype=bool)
    labels = np.asarray(cancers)
    per, warnings = {}, []
    for cancer in sorted(set(cancers)):
        m = labels == cancer
        try:
            per[cancer] = concordance_index(r[m], t[m], c[m])
        except SurvivalError as exc:
            per[cancer] = None
            warnings.append(f"{cancer}: {exc}")
    return per, warnings


def cohort_metrics(risks, months, censored, cancers) -> dict:
    """Per-cancer C-index plus the logrank p of each cancer's median risk
    split, as `metrics_json`. The two fail independently; the C-index
    warnings come before the logrank ones."""
    per, warnings = per_cancer_cindex(risks, months, censored, cancers)
    r = np.asarray(risks, dtype=np.float64)
    t = np.asarray(months, dtype=np.float64)
    e = ~np.asarray(censored, dtype=bool)
    labels = np.asarray(cancers)
    logrank_p = {}
    for cancer in per:
        m = labels == cancer
        try:
            low, high = median_risk_split(r[m])
            _, logrank_p[cancer] = logrank_test(t[m][low], e[m][low],
                                                t[m][high], e[m][high])
        except SurvivalError as exc:
            logrank_p[cancer] = None
            warnings.append(f"{cancer}: {exc}")
    return metrics_json(per, logrank_p, warnings=warnings)


def dump_metrics(path: str, metrics: dict):
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")


def km_table(low: KmCurve, high: KmCurve) -> list[tuple[float, float, float]]:
    """Step values of both groups on the merged event-time grid."""
    grid = np.unique(np.concatenate([low.times, high.times]))

    def steps(curve):
        values = np.concatenate([[1.0], curve.survival])
        return values[np.searchsorted(curve.times, grid, side="right")].tolist()

    return list(zip(grid.tolist(), steps(low), steps(high)))


def write_km_csv(path: str, table):
    with open(path, "w") as fh:
        fh.write("time,survival_low,survival_high\n")
        for t, lo, hi in table:
            fh.write(f"{t:.10g},{lo:.10g},{hi:.10g}\n")


def write_km_svg(path: str, table, p_value: float, title: str = "Kaplan-Meier"):
    """Deterministic standalone SVG step plot of the two risk groups."""
    width, height, pad = 640, 420, 56
    t_max = max((row[0] for row in table), default=1.0) or 1.0

    def sx(t):
        return pad + (width - 2 * pad) * t / t_max

    def sy(s):
        return pad + (height - 2 * pad) * (1.0 - s)

    def steps(idx):
        pts = [(sx(0.0), sy(1.0))]
        prev = 1.0
        for row in table:
            pts.append((sx(row[0]), sy(prev)))
            pts.append((sx(row[0]), sy(row[idx])))
            prev = row[idx]
        pts.append((sx(t_max), sy(prev)))
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline points="{steps(1)}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
        f'<polyline points="{steps(2)}" fill="none" stroke="#d62728" stroke-width="2"/>',
        f'<text x="{pad}" y="{pad - 20}" font-size="15">{title}</text>',
        f'<text x="{pad}" y="{pad - 4}" font-size="13">logrank p = {p_value:.4g}'
        f' (blue: low risk, red: high risk)</text>',
        f'<text x="{width - pad - 40}" y="{height - pad + 28}" font-size="12">months</text>',
        '</svg>',
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
