"""Survival losses and statistics against hand computations and brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pansurv import autodiff as ad
from pansurv import survival as sv


class TestCumulativeSurvival:
    def test_zero_hazards(self):
        np.testing.assert_array_equal(sv.cumulative_survival([0, 0, 0]), [1, 1, 1])

    def test_absorbing_death(self):
        np.testing.assert_array_equal(sv.cumulative_survival([1.0, 0.3, 0.7]), [0, 0, 0])

    def test_direct_product(self):
        np.testing.assert_allclose(sv.cumulative_survival([0.1, 0.2]), [0.9, 0.72],
                                   rtol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(sv.SurvivalError):
            sv.cumulative_survival([0.5, 1.2])

    def test_curve_invariants_hold_for_random_hazards(self, rng):
        for _ in range(50):
            h = rng.random(6)
            c = sv.HazardCurve.from_hazards(h)
            assert np.all(np.diff(c.survival) <= 1e-15)
            assert np.all((c.survival >= 0) & (c.survival <= 1))
            assert abs(c.survival[0] - (1 - h[0])) < 1e-15


class TestNllLoss:
    def test_censored_zero_loss(self):
        curve = sv.HazardCurve.from_hazards([0.0, 0.0, 0.5])
        assert sv.nll_survival_loss(curve, censored=True, time_bin=1) == 0.0

    def test_uncensored_zero_loss_at_bin_zero(self):
        curve = sv.HazardCurve.from_hazards([1.0, 0.3])
        assert sv.nll_survival_loss(curve, censored=False, time_bin=0) == 0.0

    def test_hand_computed_value(self):
        curve = sv.HazardCurve.from_hazards([0.1, 0.2])
        loss = sv.nll_survival_loss(curve, censored=False, time_bin=1)
        assert abs(loss - (-math.log(0.9) - math.log(0.2))) < 1e-12

    def test_invalid_bin_rejected(self):
        curve = sv.HazardCurve.from_hazards([0.1, 0.2])
        with pytest.raises(sv.SurvivalError):
            sv.nll_survival_loss(curve, censored=False, time_bin=5)

    def test_loss_nonnegative(self, rng):
        for _ in range(200):
            h = rng.random(4)
            y = rng.integers(0, 4)
            c = bool(rng.integers(0, 2))
            assert sv.nll_survival_loss(sv.HazardCurve.from_hazards(h), c, int(y)) >= 0.0

    def test_censored_invariant_to_future_bins(self, rng):
        for _ in range(100):
            h = rng.random(5)
            y = int(rng.integers(0, 4))
            base = sv.nll_survival_loss(sv.HazardCurve.from_hazards(h), True, y)
            h2 = h.copy()
            h2[y + 1:] = rng.random(4 - y)
            pert = sv.nll_survival_loss(sv.HazardCurve.from_hazards(h2), True, y)
            assert base == pert

    def test_graph_version_matches_plain(self, rng):
        for _ in range(50):
            h = rng.random(4) * 0.9 + 0.05
            y = int(rng.integers(0, 4))
            c = bool(rng.integers(0, 2))
            plain = sv.nll_survival_loss(sv.HazardCurve.from_hazards(h), c, y)
            graph = sv.nll_survival_loss_graph(ad.Tensor(h), c, y).item()
            assert abs(plain - graph) < 1e-12

    def test_graph_gradient(self, rng):
        from conftest import gradcheck
        h = rng.random(4) * 0.8 + 0.1
        gradcheck(lambda t: sv.nll_survival_loss_graph(t["h"], False, 2), {"h": h})
        gradcheck(lambda t: sv.nll_survival_loss_graph(t["h"], True, 1), {"h": h})


class TestTotalLoss:
    def test_uniform_logits_give_log5(self):
        assert abs(sv.cross_entropy(np.zeros(5), 3) - math.log(5)) < 1e-12

    def test_ce_graph_matches_plain(self, rng):
        z = rng.standard_normal(7)
        assert abs(sv.cross_entropy_graph(ad.Tensor(z), 4).item()
                   - sv.cross_entropy(z, 4)) < 1e-12


class TestRiskScore:
    def test_extremes(self):
        assert sv.risk_score(sv.HazardCurve.from_hazards([0.0] * 4)) == -4.0
        assert sv.risk_score(sv.HazardCurve.from_hazards([1.0, 0.2, 0.2, 0.2])) == 0.0

    def test_monotone_in_hazards(self, rng):
        for _ in range(100):
            h = rng.random(4) * 0.5
            bump = h + rng.random(4) * 0.4
            assert sv.risk_score(sv.HazardCurve.from_hazards(bump)) > \
                sv.risk_score(sv.HazardCurve.from_hazards(h))


def brute_force_cindex(risks, times, censored):
    num = den = 0.0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if censored[i] or not times[i] < times[j]:
                continue
            den += 1
            if risks[i] > risks[j]:
                num += 1
            elif risks[i] == risks[j]:
                num += 0.5
    if den == 0:
        raise ValueError("no comparable pairs")
    return num / den


class TestConcordance:
    def test_perfect_anti_tied(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        unc = np.zeros(4, dtype=bool)
        assert sv.concordance_index([4, 3, 2, 1], times, unc) == 1.0
        assert sv.concordance_index([1, 2, 3, 4], times, unc) == 0.0
        assert sv.concordance_index([2, 2, 2, 2], times, unc) == 0.5

    def test_matches_brute_force_on_random_cohorts(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            times = np.round(rng.random(n) * 20, 1)  # induce ties
            risks = np.round(rng.standard_normal(n), 1)
            cens = rng.random(n) < 0.3
            try:
                expected = brute_force_cindex(risks, times, cens)
            except ValueError:
                with pytest.raises(sv.SurvivalError):
                    sv.concordance_index(risks, times, cens)
                continue
            assert abs(sv.concordance_index(risks, times, cens) - expected) < 1e-12

    def test_complement_property_without_ties(self, rng):
        n = 25
        times = rng.permutation(n).astype(float)
        risks = rng.permutation(n).astype(float)
        cens = rng.random(n) < 0.2
        c1 = sv.concordance_index(risks, times, cens)
        c2 = sv.concordance_index(-risks, times, cens)
        assert abs(c1 + c2 - 1.0) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        n = 30
        times = rng.random(n) * 50
        risks = rng.standard_normal(n)
        cens = rng.random(n) < 0.3
        base = sv.concordance_index(risks, times, cens)
        assert sv.concordance_index(np.exp(risks), times, cens) == base
        assert sv.concordance_index(3 * risks + 7, times, cens) == base

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(sv.SurvivalError):
            sv.concordance_index([1.0, 2.0], [5.0, 6.0], [True, True])


def brute_force_km(times, events):
    """Product-limit by direct definition, evaluated at each event time."""
    times = np.asarray(times, float)
    events = np.asarray(events, bool)
    out = {}
    s = 1.0
    for t in sorted(set(times[events])):
        at_risk = (times >= t).sum()
        deaths = ((times == t) & events).sum()
        s *= 1 - deaths / at_risk
        out[t] = s
    return out


class TestKaplanMeier:
    def test_no_events_flat(self):
        curve = sv.km_curve([3.0, 5.0, 8.0], [False, False, False])
        assert len(curve.times) == 0

    def test_single_death_drop(self):
        curve = sv.km_curve([5.0, 6.0, 7.0, 8.0], [True, False, False, False])
        np.testing.assert_allclose(curve.survival, [0.75])
        assert curve.at_risk[0] == 4

    def test_all_events_steps(self):
        curve = sv.km_curve([1.0, 2.0, 3.0, 4.0], [True] * 4)
        np.testing.assert_allclose(curve.survival, [0.75, 0.5, 0.25, 0.0])

    def test_matches_brute_force_on_random_cohorts(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            times = np.round(rng.random(n) * 10, 1)
            events = rng.random(n) < 0.7
            curve = sv.km_curve(times, events)
            expected = brute_force_km(times, events)
            assert len(curve.times) == len(expected)
            for t, s in zip(curve.times, curve.survival):
                assert abs(expected[t] - s) < 1e-12

    def test_censored_leave_without_drop(self):
        c1 = sv.km_curve([1.0, 2.0, 3.0], [True, False, True])
        # censoring at t=2 shrinks the risk set for the t=3 event
        np.testing.assert_allclose(c1.survival, [2 / 3, 0.0])


def loop_km(times, events):
    """Product-limit by one pass over the event times: (times, survival,
    at-risk counts), the reference for the vectorised `km_curve`."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=bool)
    event_times = np.unique(t[e])
    surv, risk_sizes = [], []
    s = 1.0
    for et in event_times:
        n_at_risk = int((t >= et).sum())
        d = int(((t == et) & e).sum())
        s *= 1.0 - d / n_at_risk
        surv.append(s)
        risk_sizes.append(n_at_risk)
    return event_times, np.array(surv), np.array(risk_sizes, dtype=int)


def loop_logrank_chi2(ta, ea, tb, eb):
    """Logrank chi-square by one pass over the event times, skipping risk
    sets of one; 0.0 when the variance is not positive."""
    ta, tb = np.asarray(ta, dtype=np.float64), np.asarray(tb, dtype=np.float64)
    ea, eb = np.asarray(ea, dtype=bool), np.asarray(eb, dtype=bool)
    all_t = np.concatenate([ta, tb])
    all_e = np.concatenate([ea, eb])
    o_minus_e = 0.0
    var = 0.0
    for et in np.unique(all_t[all_e]):
        n = int((all_t >= et).sum())
        na = int((ta >= et).sum())
        d = int(((all_t == et) & all_e).sum())
        da = int(((ta == et) & ea).sum())
        if n <= 1:
            continue
        frac_a = na / n
        o_minus_e += da - d * frac_a
        var += d * frac_a * (1.0 - frac_a) * (n - d) / (n - 1)
    return 0.0 if var <= 0 else o_minus_e * o_minus_e / var


def loop_km_table(low, high):
    """Rows (t, S_low(t), S_high(t)) on the merged grid, one lookup per
    grid point; `low` and `high` are `loop_km` results."""
    grid = np.unique(np.concatenate([low[0], high[0]]))

    def step_at(curve, t):
        i = np.searchsorted(curve[0], t, side="right") - 1
        return 1.0 if i < 0 else float(curve[1][i])

    return [(float(t), step_at(low, t), step_at(high, t)) for t in grid]


# a group of 1-20 patients on a coarse time grid, so that ties, censoring
# at event times and all-censored groups are common
survival_groups = st.lists(st.tuples(st.integers(0, 8).map(lambda k: k / 2.0),
                                     st.booleans()), min_size=1, max_size=20)


@given(survival_groups, survival_groups)
@settings(max_examples=500, deadline=None)
def test_km_and_logrank_equal_the_event_time_loops(group_a, group_b):
    scipy_stats = pytest.importorskip("scipy.stats")
    ta, ea = (np.array(col) for col in zip(*group_a))
    tb, eb = (np.array(col) for col in zip(*group_b))
    curves, loops = [], []
    for t, e in ((ta, ea), (tb, eb)):
        curve = sv.km_curve(t, e)
        times, survival, at_risk = loop_km(t, e)
        assert np.array_equal(curve.times, times)
        assert np.array_equal(curve.survival, survival)
        assert np.array_equal(curve.at_risk, at_risk)
        curves.append(curve)
        loops.append((times, survival))
    assert sv.km_table(*curves) == loop_km_table(*loops)
    if not (ea.any() or eb.any()):
        with pytest.raises(sv.SurvivalError, match="zero total events"):
            sv.logrank_test(ta, ea, tb, eb)
        return
    chi2, p = sv.logrank_test(ta, ea, tb, eb)
    assert chi2 == loop_logrank_chi2(ta, ea, tb, eb)
    assert math.isclose(p, scipy_stats.chi2.sf(chi2, 1), rel_tol=1e-13, abs_tol=0.0)


class TestLogrank:
    def test_identical_groups_p_one(self):
        t = [1.0, 2.0, 3.0, 4.0]
        e = [True, True, False, True]
        chi2, p = sv.logrank_test(t, e, t, e)
        assert chi2 == 0.0
        assert abs(p - 1.0) < 1e-10

    def test_hand_computed_six_patient_example(self):
        # group A: events at 1 and 3, censored at 5
        # group B: event at 2, censored at 4, event at 6
        # per event time (n, nA, d, dA): t=1 (6,3,1,1), t=2 (5,2,1,0),
        # t=3 (4,2,1,1); t=6 has n=1 (skipped, zero variance)
        # O-E = 2 - (0.5 + 0.4 + 0.5) = 0.6; V = 0.25 + 0.24 + 0.25 = 0.74
        chi2, p = sv.logrank_test([1.0, 3.0, 5.0], [True, True, False],
                                  [2.0, 4.0, 6.0], [True, False, True])
        assert abs(chi2 - 0.36 / 0.74) < 1e-12
        assert abs(p - math.erfc(math.sqrt(chi2 / 2.0))) < 1e-8

    def test_zero_events_rejected(self):
        with pytest.raises(sv.SurvivalError):
            sv.logrank_test([1.0], [False], [2.0], [False])

    def test_well_separated_groups_significant(self, rng):
        low_t = rng.uniform(50, 100, size=40)
        high_t = rng.uniform(1, 20, size=40)
        chi2, p = sv.logrank_test(low_t, np.ones(40, bool), high_t, np.ones(40, bool))
        assert p < 1e-6


class TestMedianSplit:
    def test_four_distinct(self):
        low, high = sv.median_risk_split([3.0, 1.0, 4.0, 2.0])
        assert set(low) == {1, 3} and set(high) == {0, 2}

    def test_all_equal_stable(self):
        low, high = sv.median_risk_split(np.ones(7))
        assert abs(len(low) - len(high)) <= 1
        np.testing.assert_array_equal(low, [0, 1, 2, 3])

    def test_101_patients(self, rng):
        low, high = sv.median_risk_split(rng.standard_normal(101))
        assert len(low) == 51 and len(high) == 50

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_ordering(self, risks):
        low, high = sv.median_risk_split(risks)
        assert len(low) + len(high) == len(risks)
        assert abs(len(low) - len(high)) <= 1
        r = np.asarray(risks)
        if len(high):
            assert r[low].max() <= r[high].min() + 1e-12


class TestCohortMetrics:
    # LUAD's one event comes last, so no LUAD pair is comparable but its
    # logrank test can run; UCEC has one patient, so neither can
    RISKS = [0.3, 0.1, 0.9, 0.5, 0.2, 0.8, 0.4, 0.7]
    MONTHS = [5.0, 8.0, 2.0, 9.0, 3.0, 4.0, 12.0, 6.0]
    CENSORED = [False, True, False, True, True, True, False, False]
    CANCERS = ["BRCA", "BRCA", "BRCA", "BRCA", "LUAD", "LUAD", "LUAD", "UCEC"]

    def test_failures_independent_cindex_warnings_first(self):
        args = (self.RISKS, self.MONTHS, self.CENSORED, self.CANCERS)
        per, warnings = sv.per_cancer_cindex(*args)
        assert list(per) == ["BRCA", "LUAD", "UCEC"]
        assert per["BRCA"] == sv.concordance_index(self.RISKS[:4], self.MONTHS[:4],
                                                   self.CENSORED[:4])
        assert per["LUAD"] is None and per["UCEC"] is None
        assert warnings == ["LUAD: no comparable pairs",
                            "UCEC: concordance needs at least two patients"]
        m = sv.cohort_metrics(*args)
        assert m["per_cancer_cindex"] == per
        assert m["overall_mean_cindex"] == per["BRCA"]
        # LUAD risks 0.2, 0.8, 0.4: the low group holds months 3 and 12
        assert m["logrank_p"]["LUAD"] == sv.logrank_test(
            [3.0, 12.0], [False, True], [4.0], [False])[1]
        assert m["logrank_p"]["UCEC"] is None
        assert m["warnings"] == warnings + [
            "UCEC: median split needs at least two patients"]


class TestReporting:
    def test_metrics_schema(self, tmp_path):
        m = sv.metrics_json({"BRCA": 0.7, "LUAD": None}, {"BRCA": 0.01, "LUAD": None},
                            fold_details=[{"fold": 0}], warnings=["LUAD: no pairs"])
        assert set(m) == {"per_cancer_cindex", "overall_mean_cindex", "logrank_p",
                          "fold_details", "warnings"}
        assert m["overall_mean_cindex"] == 0.7
        sv.dump_metrics(str(tmp_path / "m.json"), m)
        import json
        loaded = json.loads((tmp_path / "m.json").read_text())
        assert loaded["per_cancer_cindex"]["BRCA"] == 0.7

    def test_km_outputs(self, tmp_path, rng):
        low = sv.km_curve([5.0, 9.0, 12.0], [True, False, True])
        high = sv.km_curve([1.0, 2.0, 3.0], [True, True, False])
        table = sv.km_table(low, high)
        csv_path = tmp_path / "km.csv"
        svg_path = tmp_path / "km.svg"
        sv.write_km_csv(str(csv_path), table)
        sv.write_km_svg(str(svg_path), table, p_value=0.032)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "time,survival_low,survival_high"
        assert len(lines) == 1 + len(table)
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "0.032" in svg and "polyline" in svg
