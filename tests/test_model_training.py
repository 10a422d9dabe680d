"""Model assembly, checkpointing, and training-loop contracts."""

import copy
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pansurv import autodiff as ad
from pansurv import encoders, fusion, moe
from pansurv import survival as sv
from pansurv import synthetic as sg
from pansurv import training as tr
from pansurv.model import (forward, init_model, load_checkpoint, ModelError, ModelMeta,
                           prepare_patient, save_checkpoint)
from pansurv.optim import AdamW

from conftest import rewrite_manifest


@pytest.fixture(scope="module")
def small_cohort():
    spec = sg.CohortSpec(cancers=("BLCA", "BRCA"), baselines=(-2.0, -1.5),
                         cases_per_cancer=14, patch_range=(4, 8),
                         group_sizes={g: 5 for g in sg.GENOMIC_GROUPS},
                         d_patch=8, seed=11)
    records, truth = sg.generate_cohort(spec)
    return records


@pytest.fixture(scope="module")
def mixed12(small_cohort):
    # records are grouped by cancer; take six of each
    return small_cohort[0:6] + small_cohort[14:20]


@pytest.fixture(scope="module")
def small_config():
    return tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, epochs=2,
                          accum_steps=4, lr=1e-3, seed=3,
                          sinkhorn_max_iter=30)


@pytest.fixture(scope="module")
def trained(small_cohort, small_config):
    model, log = tr.train(small_cohort[:20], small_config,
                          val_records=small_cohort[20:])
    return model, log


class TestForward:
    def test_output_shapes(self, mixed12, small_config):
        model, _ = tr.train(mixed12, small_config)
        prep = prepare_patient(mixed12[0], model)
        out = forward(model, prep)
        assert out.hazards.data.shape == (small_config.n_bins,)
        assert out.agent.data.shape == (2,)
        assert out.curve.survival.shape == (small_config.n_bins,)

    def test_deterministic(self, trained, small_cohort):
        model, _ = trained
        prep = prepare_patient(small_cohort[5], model)
        a = forward(model, prep)
        b = forward(model, prep)
        assert np.array_equal(a.hazards.data, b.hazards.data)
        assert np.array_equal(a.agent.data, b.agent.data)

    def test_unknown_cancer_rejected(self, trained, small_cohort):
        model, _ = trained
        rec = copy.deepcopy(small_cohort[0])
        rec.cancer_type = "NOPE"
        with pytest.raises(ModelError):
            prepare_patient(rec, model)

    def test_untrained_model_near_chance(self, small_cohort, small_config):
        meta = tr.build_meta(small_config, small_cohort)
        model = init_model(meta, seed=9)
        preps = [prepare_patient(r, model) for r in small_cohort]
        risks = np.array([tr.predict_risk(model, p) for p in preps])
        cindex = sv.concordance_index(risks, [p.months for p in preps],
                                      [p.censored for p in preps])
        assert abs(cindex - 0.5) <= 0.1

    def test_full_graph_gradient_spot_checks(self, small_cohort, small_config):
        meta = tr.build_meta(small_config, small_cohort)
        model = init_model(meta, seed=5)
        # spot-perturb five random parameter entries; fixed sinkhorn
        # iteration count keeps the graph smooth
        model.meta.sinkhorn_tol = 0.0
        model.meta.sinkhorn_max_iter = 15
        prep = prepare_patient(small_cohort[3], model)
        rng = np.random.default_rng(0)
        names = sorted(model.params)

        def loss_value():
            out = forward(model, prep)
            return (sv.nll_survival_loss(out.curve, prep.censored, prep.time_bin)
                    + sv.cross_entropy(out.agent.data, prep.cancer_idx))

        with ad.tape_scope() as tape:
            out = forward(model, prep)
            loss = tr.patient_loss(out, prep)
            ad.backward(tape, loss)
        h = 1e-6
        checked = 0
        while checked < 5:
            name = names[rng.integers(len(names))]
            p = model.params[name]
            if p.data.size == 0:
                continue
            flat_idx = rng.integers(p.data.size)
            analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[flat_idx]
            orig = p.data.reshape(-1)[flat_idx]
            p.data.reshape(-1)[flat_idx] = orig + h
            f_plus = loss_value()
            p.data.reshape(-1)[flat_idx] = orig - h
            f_minus = loss_value()
            p.data.reshape(-1)[flat_idx] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            denom = max(abs(analytic), abs(numeric), 1e-3)
            assert abs(analytic - numeric) / denom < 1e-3, \
                f"{name}[{flat_idx}]: {analytic} vs {numeric}"
            checked += 1


class TestAgentIsolation:
    def test_text_adapter_gets_zero_gradient_from_ce(self, small_cohort, small_config):
        meta = tr.build_meta(small_config, small_cohort)
        model = init_model(meta, seed=5)
        # a zero-init agent head would starve every upstream branch of CE
        # gradient; randomize it so the path is live
        rng = np.random.default_rng(2)
        model.params["agent.w"].data[:] = rng.standard_normal(
            model.params["agent.w"].data.shape)
        prep = prepare_patient(small_cohort[1], model)
        with ad.tape_scope() as tape:
            out = forward(model, prep)
            ce = sv.cross_entropy_graph(out.agent, prep.cancer_idx)
            ad.backward(tape, ce)
        for name in ("text.adapter_w", "text.adapter_b"):
            g = model.params[name].grad
            assert g is None or not np.any(g)
        # the image/genomic branches still learn from the agent task
        assert np.any(model.params["patch.w"].grad)
        assert np.any(model.params["gen.wq"].grad)

    def test_text_adapter_trains_from_survival_loss(self, small_cohort, small_config):
        meta = tr.build_meta(small_config, small_cohort)
        model = init_model(meta, seed=5)
        rng = np.random.default_rng(2)
        model.params["experts.cls_w"].data[:] = rng.standard_normal(
            model.params["experts.cls_w"].data.shape)
        prep = prepare_patient(small_cohort[1], model)
        with ad.tape_scope() as tape:
            out = forward(model, prep)
            nll = sv.nll_survival_loss_graph(out.hazards, prep.censored, prep.time_bin)
            ad.backward(tape, nll)
        assert np.any(model.params["text.adapter_w"].grad)

    def test_agent_values_match_survival_path_features(self, trained, small_cohort):
        # the detached recompute must not change values
        model, _ = trained
        prep = prepare_patient(small_cohort[2], model)
        with ad.tape_scope():
            out = forward(model, prep)
        plain = forward(model, prep)
        np.testing.assert_allclose(out.agent.data, plain.agent.data, atol=1e-12)


def two_pass_forward(model, prep):
    """Oracle: the network with the fusion run twice, the second time on
    detached text embeddings that feed only the agent head."""
    meta, p = model.meta, model.params
    txt = encoders.embed_text_rows(prep.txt_rows, p)
    gen_feats, _ = encoders.encode_genomic_arrays(
        prep.gen_values, prep.gen_mask, p, n_heads=meta.n_heads)
    patch_feats = encoders.project_patches(prep.patches, p)

    def fuse(txt_feats):
        fused = []
        for src, prefix in ((patch_feats, "fuse_p"), (gen_feats, "fuse_g")):
            aligned, _ = fusion.ot_align(
                src, txt_feats, p, prefix, eps=meta.sinkhorn_eps,
                max_iter=meta.sinkhorn_max_iter, tol=meta.sinkhorn_tol)
            fused.append(fusion.text_guided_decode(txt_feats, aligned, p, prefix,
                                                   n_heads=meta.n_heads))
        return fused

    fused_p, fused_g = fuse(txt)
    cancer_emb = ad.reshape(ad.narrow(txt, 0, 1, 1), (meta.d_model,))
    diag_emb = ad.reshape(ad.narrow(txt, 0, 2, 1), (meta.d_model,))
    gmoe_out = moe.gmoe_hazard(fused_p, fused_g, txt, cancer_emb, diag_emb, p,
                               n_heads=meta.n_heads)
    agent = moe.agent_logits(*fuse(ad.Tensor(txt.data)), p)
    return SimpleNamespace(hazards=gmoe_out.hazards, agent=agent)


def step_gradients(model, prep, fwd):
    for t in model.params.values():
        t.grad = None
    with ad.tape_scope() as tape:
        loss = tr.patient_loss(fwd(model, prep), prep)
        ad.backward(tape, loss)
    grads = {name: t.grad for name, t in model.params.items()}
    for t in model.params.values():
        t.grad = None
    return loss.data, grads


class TestOnePassGradients:
    """One fusion pass with a gradient cut must reproduce the two-pass
    graph's parameter gradients bit for bit."""

    def check(self, model, records):
        for rec in records:
            prep = prepare_patient(rec, model)
            loss_ref, ref = step_gradients(model, prep, two_pass_forward)
            loss_new, new = step_gradients(model, prep, forward)
            assert np.array_equal(loss_ref, loss_new)
            for name, g in ref.items():
                assert (g is None) == (new[name] is None), name
                assert g is None or np.array_equal(g, new[name]), name

    def test_bit_identical_at_init_with_live_heads(self, small_cohort, small_config):
        meta = tr.build_meta(small_config, small_cohort)
        model = init_model(meta, seed=5)
        rng = np.random.default_rng(4)
        for name in ("agent.w", "experts.cls_w"):
            model.params[name].data[:] = rng.standard_normal(
                model.params[name].data.shape)
        self.check(model, small_cohort[::7])

    def test_bit_identical_on_trained_model(self, trained, small_cohort):
        model, _ = trained
        self.check(model, small_cohort[1::9])


class TestTraining:
    def test_zero_lr_leaves_parameters_unchanged(self, small_cohort, mixed12):
        cfg = tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, epochs=1,
                             accum_steps=4, lr=1e-30, seed=3)
        meta = tr.build_meta(cfg, mixed12)
        reference = init_model(meta, seed=cfg.seed)
        model, _ = tr.train(mixed12, cfg)
        for name, t in reference.params.items():
            np.testing.assert_allclose(model.params[name].data, t.data, atol=1e-20)

    def test_same_seed_identical_epoch_zero_loss(self, mixed12, small_config):
        _, log_a = tr.train(mixed12, small_config)
        _, log_b = tr.train(mixed12, small_config)
        assert log_a[0]["train_loss"] == log_b[0]["train_loss"]
        assert log_a[-1]["train_loss"] == log_b[-1]["train_loss"]

    def test_accumulation_matches_explicit_summed_reference(self, small_cohort, mixed12):
        """accum=4 trajectories must equal summing 4 per-patient gradients
        explicitly before one optimizer step, bit for bit."""
        cfg = tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, epochs=1,
                             accum_steps=4, lr=1e-3, seed=3)
        subset = mixed12[2:10]
        model, _ = tr.train(subset, cfg)

        meta = tr.build_meta(cfg, subset)
        ref = init_model(meta, seed=cfg.seed)
        preps = [prepare_patient(r, ref) for r in subset]
        opt = AdamW(ref.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        order = np.random.default_rng([cfg.seed, 1000]).permutation(len(preps))
        for start in range(0, len(order), 4):
            window = order[start:start + 4]
            grads = {}
            for i in window:
                with ad.tape_scope() as tape:
                    out = forward(ref, preps[i])
                    loss = tr.patient_loss(out, preps[i])
                    ad.backward(tape, loss)
                for name, p in ref.params.items():
                    if p.grad is not None:
                        grads[name] = grads.get(name, 0) + p.grad
                    p.grad = None
            for name, g in grads.items():
                ref.params[name].grad = g
            opt.step()
            opt.zero_grad()
        for name in ref.params:
            assert np.array_equal(model.params[name].data, ref.params[name].data), name

    def test_loss_decreases_over_epochs(self, trained):
        _, log = trained
        assert log[-1]["train_loss"] < log[0]["train_loss"]
        assert "val_cindex" in log[0]

    def test_non_finite_loss_aborts_with_diagnostic(self, mixed12, small_config):
        poisoned = [copy.deepcopy(r) for r in mixed12]
        poisoned[3].wsi.patch_features[0, 0] = np.nan
        with pytest.raises(tr.TrainingError, match="non-finite output of matmul"):
            with np.errstate(all="ignore"):
                tr.train(poisoned, small_config)

    def test_empty_cohort_rejected(self, small_config):
        with pytest.raises(tr.TrainingError):
            tr.train([], small_config)


class TestEvaluate:
    def test_metrics_schema_and_fold_protocol(self, small_cohort, tmp_path):
        cfg = tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, epochs=1,
                             accum_steps=8, lr=1e-3, seed=3, folds=2)
        aggregate, pooled = tr.run_cross_validation(small_cohort, cfg, k=2,
                                                    out_dir=str(tmp_path))
        assert (tmp_path / "fold_0.ckpt").exists()
        assert (tmp_path / "fold_1.metrics.json").exists()
        assert (tmp_path / "metrics.json").exists()
        assert set(aggregate) >= {"per_cancer_cindex", "overall_mean_cindex",
                                  "logrank_p", "fold_details",
                                  "fold_overall_cindex"}
        assert len(aggregate["fold_details"]) == 2
        assert len(pooled["ids"]) == len(small_cohort)

    def test_no_comparable_pairs_reported_null(self, trained):
        model, _ = trained
        spec = sg.CohortSpec(cancers=("BLCA", "BRCA"), baselines=(-2.0, -1.5),
                             cases_per_cancer=14, patch_range=(4, 8),
                             group_sizes={g: 5 for g in sg.GENOMIC_GROUPS},
                             d_patch=8, seed=11)
        records, _ = sg.generate_cohort(spec)
        crippled = [copy.deepcopy(r) for r in records[:6]]
        for r in crippled:
            r.censored = True  # no events -> no comparable pairs anywhere
        metrics, _ = tr.evaluate(crippled, model)
        assert all(v is None for v in metrics["per_cancer_cindex"].values())
        assert metrics["warnings"]

    def test_pooled_cv_and_evaluate_score_alike(self, small_cohort, monkeypatch):
        """Same risks in, same per-cancer C-index, logrank p and warnings
        out; BRCA's one event comes last, so it has no comparable pair but
        a logrank test."""
        records = copy.deepcopy(small_cohort)
        brca = [r for r in records if r.cancer_type == "BRCA"]
        for r in brca:
            r.censored = True
        brca[3].censored = False
        brca[3].survival_months = max(r.survival_months for r in brca) + 1.0
        risk_of = dict(zip([r.id for r in records],
                           np.random.default_rng(8).standard_normal(len(records))))
        monkeypatch.setattr(tr, "predict_risk", lambda model, prep: float(risk_of[prep.id]))
        cfg = tr.TrainConfig(d_model=16, n_experts=2, n_heads=2, n_bins=2, epochs=1,
                             accum_steps=8, seed=3, sinkhorn_max_iter=10)
        aggregate, pooled = tr.run_cross_validation(records, cfg, k=2)
        model = init_model(tr.build_meta(cfg, records), seed=0)
        metrics, _ = tr.evaluate(records, model)
        for key in ("per_cancer_cindex", "logrank_p", "warnings"):
            assert aggregate[key] == metrics[key], key
        assert metrics["per_cancer_cindex"]["BRCA"] is None
        assert metrics["logrank_p"]["BRCA"] is not None
        assert metrics["warnings"] == ["BRCA: no comparable pairs"]
        assert sorted(pooled["ids"]) == sorted(risk_of)


class TestCheckpoint:
    def test_roundtrip_bit_identical_forward(self, trained, small_cohort, tmp_path):
        model, _ = trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        prep_a = prepare_patient(small_cohort[4], model)
        prep_b = prepare_patient(small_cohort[4], loaded)
        out_a = forward(model, prep_a)
        out_b = forward(loaded, prep_b)
        assert np.array_equal(out_a.hazards.data, out_b.hazards.data)
        assert np.array_equal(out_a.agent.data, out_b.agent.data)

    def test_magic_and_manifest_layout(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        raw = path.read_bytes()
        assert raw.startswith(b"UMPS1\n")
        mlen = int.from_bytes(raw[6:14], "little")
        import json
        manifest = json.loads(raw[14:14 + mlen])
        assert {"meta", "tensors"} <= set(manifest)
        total = sum(t["nbytes"] for t in manifest["tensors"])
        assert len(raw) == 14 + mlen + total

    def test_save_is_deterministic(self, trained, tmp_path):
        model, _ = trained
        save_checkpoint(str(tmp_path / "a.ckpt"), model)
        save_checkpoint(str(tmp_path / "b.ckpt"), model)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_shape_validation_on_load(self, trained, tmp_path):
        model, _ = trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)

        def grow(manifest):
            manifest["tensors"][0]["shape"][0] += 1
        rewrite_manifest(path, grow)
        with pytest.raises(ModelError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, match", [
        ("dtype", "<f4", "dtype <f4, not <f8"),
        ("nbytes", 8, "8 bytes for shape"),
        ("offset", 10 ** 9, "outside the payload"),
        ("offset", -8, "outside the payload"),
    ], ids=["dtype-f4", "nbytes", "offset-past-end", "offset-negative"])
    def test_manifest_tensor_entry_validated(self, trained, tmp_path, field, value, match):
        model, _ = trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        rewrite_manifest(path, lambda m: m["tensors"][-1].__setitem__(field, value))
        with pytest.raises(ModelError, match=match) as info:
            load_checkpoint(path)
        assert path in str(info.value)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bogus.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(ModelError, match="magic"):
            load_checkpoint(str(p))


@pytest.fixture(scope="module")
def small_checkpoint(small_cohort, tmp_path_factory):
    cfg = tr.TrainConfig(d_model=8, n_bins=2, n_experts=1, n_heads=2)
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(str(path), init_model(tr.build_meta(cfg, small_cohort), seed=0))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_model_error(small_checkpoint, data):
    """A truncated checkpoint, or one with a single byte changed, either
    loads or raises ModelError naming the file; nothing else escapes."""
    path, raw = small_checkpoint
    header = 14 + int.from_bytes(raw[6:14], "little")
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # half of the flips land in the magic, length field or manifest
        pos = data.draw(st.one_of(st.integers(0, header - 1),
                                  st.integers(0, len(raw) - 1)), label="position")
        damaged = bytearray(raw)
        damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
    bad = path.with_name("damaged.ckpt")
    bad.write_bytes(bytes(damaged))
    try:
        load_checkpoint(str(bad))
    except ModelError as exc:
        assert str(bad) in str(exc)


@pytest.fixture(scope="module")
def trained_checkpoint(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "trained.ckpt"
    save_checkpoint(str(path), trained[0])
    return path, path.read_bytes()


_META_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-3, 40) | st.floats() | st.text(max_size=3), max_size=3))


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from([f.name for f in fields(ModelMeta)]), value=_META_VALUES)
@example(field="sinkhorn_eps", value=1e-300)
@example(field="sinkhorn_eps", value=1e308)
@example(field="sinkhorn_eps", value=float("inf"))
def test_meta_field_scores_or_raises_model_error(trained_checkpoint, small_cohort,
                                                 field, value):
    """A checkpoint with one meta field set to any JSON value either scores
    a patient to a finite risk, without a warning, or raises ModelError:
    naming the file at load, or the patient's cancer type when the
    vocabulary no longer holds it."""
    path, raw = trained_checkpoint
    edited = path.with_name("edited.ckpt")
    edited.write_bytes(raw)
    rewrite_manifest(str(edited), lambda m: m["meta"].__setitem__(field, value))
    rec = small_cohort[0]
    try:
        model = load_checkpoint(str(edited))
    except ModelError as exc:
        assert str(edited) in str(exc)
        return
    try:
        prep = prepare_patient(rec, model)
    except ModelError as exc:
        assert field == "cancer_types" and repr(rec.cancer_type) in str(exc)
        return
    assert np.isfinite(tr.predict_risk(model, prep))
