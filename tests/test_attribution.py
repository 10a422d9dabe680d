"""Attribution mechanics: gradients vs finite differences, masking, ranking."""

import copy

import numpy as np
import pytest

from pansurv import attribution as attr
from pansurv import bags
from pansurv import synthetic as sg
from pansurv import training as tr
from pansurv.model import init_model, prepare_patient


@pytest.fixture(scope="module")
def cohort():
    spec = sg.CohortSpec(cancers=("BLCA", "BRCA"), baselines=(-2.0, -1.5),
                         cases_per_cancer=12, patch_range=(4, 7),
                         group_sizes={g: 5 for g in sg.GENOMIC_GROUPS},
                         d_patch=8, seed=21)
    records, truth = sg.generate_cohort(spec)
    return records, truth


@pytest.fixture(scope="module")
def model(cohort):
    records, _ = cohort
    cfg = tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, epochs=3,
                         accum_steps=8, lr=2e-3, seed=5,
                         sinkhorn_max_iter=25)
    trained, _ = tr.train(records, cfg)
    return trained


class TestGeneCam:
    def test_parameters_get_no_gradient(self, model, cohort):
        records, _ = cohort
        for t in model.params.values():
            t.grad = None
        attr.attribution_report(model, records[0])
        assert [n for n, t in model.params.items() if t.grad is not None] == []

    def test_scores_shape_and_sign(self, model, cohort):
        records, _ = cohort
        scores = attr.attribution_report(model, records[0]).gene_scores
        for g in bags.GENOMIC_GROUPS:
            assert scores[g].shape == (5,)
            assert np.all(scores[g] >= 0)

    def test_masked_gene_scores_zero(self, model, cohort):
        records, _ = cohort
        rec = copy.deepcopy(records[1])
        rec.genomic.mask["TSG"][2] = 0.0
        rec.genomic.values["TSG"][2] = 0.0
        scores = attr.attribution_report(model, rec).gene_scores
        assert scores["TSG"][2] == 0.0

    def test_all_masked_genomics_zero_attribution(self, model, cohort):
        records, _ = cohort
        rec = copy.deepcopy(records[2])
        for g in bags.GENOMIC_GROUPS:
            rec.genomic.mask[g][:] = 0.0
            rec.genomic.values[g][:] = 0.0
        scores = attr.attribution_report(model, rec).gene_scores
        for g in bags.GENOMIC_GROUPS:
            np.testing.assert_array_equal(scores[g], np.zeros(5))

    def test_deterministic(self, model, cohort):
        records, _ = cohort
        a = attr.attribution_report(model, records[3]).gene_scores
        b = attr.attribution_report(model, records[3]).gene_scores
        for g in bags.GENOMIC_GROUPS:
            np.testing.assert_array_equal(a[g], b[g])

    def test_gradient_matches_finite_difference_chain(self, model, cohort):
        """d(risk)/d(z_j) via the token gradient must match central
        differences on the input value (chain rule through the lift)."""
        from pansurv import autodiff as ad
        from pansurv.model import forward
        from pansurv.attribution import _risk_graph

        records, _ = cohort
        rec = records[4]
        prep = prepare_patient(rec, model)
        gen_in = ad.Tensor(prep.gen_values, requires_grad=True)
        with ad.tape_scope() as tape:
            out = forward(model, prep, need_agent=False, gen_values=gen_in)
            risk = _risk_graph(out.hazards)
            ad.backward(tape, risk)
        analytic = gen_in.grad  # (6, L)

        def risk_at(values):
            out2 = forward(model, prep, need_agent=False,
                           gen_values=ad.Tensor(values))
            log_surv = np.cumsum(np.log(1 - out2.hazards.data))
            return -np.exp(log_surv).sum()

        h = 1e-5
        rng = np.random.default_rng(0)
        for _ in range(6):
            gi = rng.integers(6)
            j = rng.integers(prep.gen_values.shape[1])
            v = prep.gen_values.copy()
            v[gi, j] += h
            fp = risk_at(v)
            v[gi, j] -= 2 * h
            fm = risk_at(v)
            numeric = (fp - fm) / (2 * h)
            denom = max(abs(analytic[gi, j]), abs(numeric), 1e-5)
            assert abs(analytic[gi, j] - numeric) / denom < 1e-3

    def test_non_finite_parameters_rejected(self, model, cohort):
        records, _ = cohort
        broken = copy.deepcopy(model)
        broken.params["gate.w"].data[0, 0] = np.nan
        with pytest.raises(attr.AttributionError):
            attr.attribution_report(broken, records[0])


class TestPatchCam:
    def test_scores_length(self, model, cohort):
        records, _ = cohort
        scores = attr.attribution_report(model, records[0]).patch_scores
        assert scores.shape == (records[0].wsi.patch_count,)
        assert np.all(scores >= 0)

    def test_uniform_bag_equal_scores(self, model, cohort):
        records, _ = cohort
        rec = copy.deepcopy(records[5])
        rec.wsi.patch_features[:] = rec.wsi.patch_features[0]
        scores = attr.attribution_report(model, rec).patch_scores
        assert np.allclose(scores, scores[0], atol=1e-9)


class TestTopGenes:
    def test_single_patient_argmax(self, model, cohort):
        records, _ = cohort
        report = attr.attribution_report(model, records[0])
        top = attr.top_genes([report], records[0].genomic.schema, k=1)
        for g in bags.GENOMIC_GROUPS:
            assert len(top[g]) == 1
            best_name, best_score = top[g][0]
            assert best_score == pytest.approx(report.gene_scores[g].max())

    def test_list_lengths_capped_by_group_size(self, model, cohort):
        records, _ = cohort
        reports = [attr.attribution_report(model, r) for r in records[:4]]
        top = attr.top_genes(reports, records[0].genomic.schema, k=9)
        for g in bags.GENOMIC_GROUPS:
            assert len(top[g]) == 5

    def test_tie_break_lexicographic(self):
        schema = {g: [f"{g}_{i:04d}" for i in range(3)] for g in bags.GENOMIC_GROUPS}
        r = attr.CamReport(patient_id="x", cancer_type="BLCA",
                           gene_scores={g: np.zeros(3) for g in bags.GENOMIC_GROUPS},
                           patch_scores=np.zeros(2))
        top = attr.top_genes([r], schema, k=2)
        for g in bags.GENOMIC_GROUPS:
            assert [name for name, _ in top[g]] == sorted(schema[g])[:2]

    def test_empty_cohort_rejected(self, cohort):
        records, _ = cohort
        with pytest.raises(attr.AttributionError):
            attr.top_genes([], records[0].genomic.schema, k=3)

    def test_cam_records_json_rows(self, model, cohort):
        records, _ = cohort
        report = attr.attribution_report(model, records[0])
        rows = attr.cam_records_json(report)
        n_genes = 5 * len(bags.GENOMIC_GROUPS)
        assert len(rows) == n_genes + records[0].wsi.patch_count
        assert {"patient_id", "modality", "group", "index", "score"} <= set(rows[0])


# The "attribution mass tracks |risk - mean risk|" sanity property needs a
# genuinely trained model with real risk spread; it lives in the acceptance
# suite next to the planted-gene recovery check.
