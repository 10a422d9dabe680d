"""Synthetic cohort generator: determinism, signal strength, fold splits."""

import numpy as np
import pytest

from pansurv import bags
from pansurv import survival as sv
from pansurv import synthetic as sg


@pytest.fixture(scope="module")
def default_cohort():
    spec = sg.CohortSpec()
    records, truth = sg.generate_cohort(spec)
    return spec, records, truth


class TestGeneration:
    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = sg.CohortSpec(cases_per_cancer=12)
        for run in ("a", "b"):
            records, truth = sg.generate_cohort(spec)
            bags.write_cohort(str(tmp_path / f"{run}.jsonl"), records)
            sg.write_truth(str(tmp_path / f"{run}.json"), truth)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_zero_censoring_rate(self):
        spec = sg.CohortSpec(cases_per_cancer=12, censoring_rate=0.0)
        records, _ = sg.generate_cohort(spec)
        assert not any(r.censored for r in records)

    def test_ground_truth_cindex_above_085(self, default_cohort):
        spec, records, truth = default_cohort
        assert len(records) == 500
        risks = np.array([truth["patients"][r.id]["risk"] for r in records])
        times = np.array([r.survival_months for r in records])
        cens = np.array([r.censored for r in records])
        assert sv.concordance_index(risks, times, cens) > 0.85

    def test_censored_time_below_latent(self, default_cohort):
        _, records, truth = default_cohort
        for r in records:
            latent = truth["patients"][r.id]["latent_months"]
            assert r.survival_months >= 0
            if r.censored:
                assert r.survival_months <= latent
            else:
                assert r.survival_months == latent

    def test_per_cancer_mean_risks_differ(self, default_cohort):
        spec, records, truth = default_cohort
        means = []
        for c in spec.cancers:
            vals = [truth["patients"][r.id]["risk"] for r in records
                    if r.cancer_type == c]
            means.append(np.mean(vals))
        assert np.ptp(means) > 0.3

    def test_planted_layout_recorded(self, default_cohort):
        spec, records, truth = default_cohort
        for c in spec.cancers:
            for g in bags.GENOMIC_GROUPS:
                assert len(truth["planted"][c][g]) == 3
        # neighbouring cancers disagree on the direction of the gene signal
        w_c0 = truth["weights"][spec.cancers[0]]["TSG"][0]
        w_c1 = truth["weights"][spec.cancers[1]]["TSG"][0]
        assert w_c0 * w_c1 < 0

    def test_cluster_patches_recorded(self, default_cohort):
        _, records, truth = default_cohort
        flagged = [r for r in records if truth["patients"][r.id]["cluster"]]
        assert 0.3 < len(flagged) / len(records) < 0.5
        for r in flagged[:10]:
            idx = truth["patients"][r.id]["cluster_patches"]
            assert len(idx) >= 1
            assert max(idx) < r.wsi.patch_count

    def test_masks_fully_observed_by_default(self, default_cohort):
        _, records, _ = default_cohort
        for r in records[:20]:
            for g in bags.GENOMIC_GROUPS:
                assert r.genomic.mask[g].all()

    def test_missing_group_rate(self):
        spec = sg.CohortSpec(cases_per_cancer=40, missing_group_rate=0.3, seed=3)
        records, _ = sg.generate_cohort(spec)
        frac = np.mean([r.genomic.mask[g].sum() == 0
                        for r in records for g in bags.GENOMIC_GROUPS])
        assert 0.2 < frac < 0.4

    def test_invalid_specs_rejected(self):
        with pytest.raises(sg.SpecError):
            sg.CohortSpec(cases_per_cancer=5).validate()
        with pytest.raises(sg.SpecError):
            sg.CohortSpec(censoring_rate=1.0).validate()
        with pytest.raises(ValueError, match="bogus_field"):
            bags.decode(sg.CohortSpec, {"bogus_field": 1})

    def test_roundtrip_through_cohort_file(self, tmp_path):
        spec = sg.CohortSpec(cases_per_cancer=10)
        records, _ = sg.generate_cohort(spec)
        bags.write_cohort(str(tmp_path / "c.jsonl"), records)
        back = bags.read_cohort(str(tmp_path / "c.jsonl"))
        assert len(back) == len(records)
        np.testing.assert_allclose(back[7].wsi.patch_features,
                                   records[7].wsi.patch_features)
        np.testing.assert_allclose(back[3].genomic.values["TF"],
                                   records[3].genomic.values["TF"])


class TestKfold:
    def test_five_folds_of_twenty_per_cancer(self, default_cohort):
        spec, records, _ = default_cohort
        splits = sg.kfold_split(records, 5, seed=7)
        assert len(splits) == 5
        for train, val in splits:
            assert len(val) == 100 and len(train) == 400
            per_cancer = {c: 0 for c in spec.cancers}
            for i in val:
                per_cancer[records[i].cancer_type] += 1
            assert all(v == 20 for v in per_cancer.values())

    def test_partition_properties(self, default_cohort):
        _, records, _ = default_cohort
        splits = sg.kfold_split(records, 5, seed=7)
        union = set()
        for j, (train, val) in enumerate(splits):
            val_set = set(val.tolist())
            assert not (val_set & set(train.tolist()))
            assert not (val_set & union)
            union |= val_set
        assert union == set(range(len(records)))

    def test_stratification_within_one_case(self):
        spec = sg.CohortSpec(cases_per_cancer=23, seed=5)
        records, _ = sg.generate_cohort(spec)
        splits = sg.kfold_split(records, 5, seed=5)
        for _, val in splits:
            counts = {}
            for i in val:
                counts[records[i].cancer_type] = counts.get(records[i].cancer_type, 0) + 1
            for c in spec.cancers:
                assert abs(counts.get(c, 0) - 23 / 5) <= 1.0

    def test_deterministic_in_seed(self, default_cohort):
        _, records, _ = default_cohort
        a = sg.kfold_split(records, 5, seed=11)
        b = sg.kfold_split(records, 5, seed=11)
        c = sg.kfold_split(records, 5, seed=12)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(va, vb)
        assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))

    def test_too_few_cases_rejected(self):
        spec = sg.CohortSpec(cases_per_cancer=10)
        records, _ = sg.generate_cohort(spec)
        with pytest.raises(sg.SpecError):
            sg.kfold_split(records, 12, seed=0)
        with pytest.raises(sg.SpecError):
            sg.kfold_split(records, 1, seed=0)
