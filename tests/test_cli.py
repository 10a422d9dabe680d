"""Command-line surface: flags, exit codes, determinism, file outputs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pansurv
from pansurv import bags
from pansurv import synthetic as sg
from pansurv.cli import main

from conftest import rewrite_manifest

SPEC = {
    "cancers": ["BLCA", "BRCA"],
    "baselines": [-2.0, -1.5],
    "cases_per_cancer": 12,
    "patch_range": [4, 7],
    "group_sizes": {g: 5 for g in sg.GENOMIC_GROUPS},
    "d_patch": 8,
}

CONFIG = {
    "d_model": 16,
    "n_experts": 2,
    "n_heads": 2,
    "epochs": 1,
    "accum_steps": 8,
    "lr": 1e-3,
    "folds": 2,
    "sinkhorn_max_iter": 25,
}


def run_cli(*argv):
    """`pansurv` in a fresh interpreter, so an uncaught error shows as a
    traceback on stderr."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(pansurv.__file__)))
    return subprocess.run([sys.executable, "-m", "pansurv.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def assert_error_line(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    assert main(["synth", "--spec", str(spec_path), "--seed", "7",
                 "--out", str(root / "cohort")]) == 0
    assert main(["train", "--data", str(root / "cohort" / "cohort.jsonl"),
                 "--config", str(cfg_path), "--folds", "2", "--seed", "3",
                 "--out", str(root / "run")]) == 0
    return root


class TestSynth:
    def test_outputs_exist(self, workdir):
        assert (workdir / "cohort" / "cohort.jsonl").exists()
        assert (workdir / "cohort" / "truth.json").exists()

    def test_same_invocation_identical_files(self, workdir, tmp_path):
        spec_path = workdir / "spec.json"
        for sub in ("a", "b"):
            assert main(["synth", "--spec", str(spec_path), "--seed", "7",
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "cohort.jsonl").read_bytes() == \
            (tmp_path / "b" / "cohort.jsonl").read_bytes()
        assert (tmp_path / "a" / "truth.json").read_bytes() == \
            (tmp_path / "b" / "truth.json").read_bytes()

    def test_missing_spec_path_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SPEC, "censoring_rate": 1.5}))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_set_override_and_env_seed(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        monkeypatch.setenv("UMPS_SEED", "99")
        assert main(["synth", "--spec", str(spec_path),
                     "--set", "cases_per_cancer=10", "--set", "cluster_shift=3",
                     "--out", str(tmp_path / "env")]) == 0
        records = bags.read_cohort(str(tmp_path / "env" / "cohort.jsonl"))
        assert len(records) == 20
        truth = json.loads((tmp_path / "env" / "truth.json").read_text())
        assert truth["spec"]["seed"] == 99
        assert truth["spec"]["cases_per_cancer"] == 10
        assert truth["spec"]["cluster_shift"] == 3  # an int is a valid float

    @pytest.mark.parametrize("command, setting, field", [
        ("synth", "patch_range=[2,3]", "patch_range"),
        ("train", "epochs=1.5", "epochs"),
        ("train", "lr=true", "lr"),
    ], ids=["synth-list-as-text", "train-float-for-int", "train-bool-for-float"])
    def test_wrong_type_set_value_exit_2(self, workdir, tmp_path, command, setting, field):
        data = ["--data", workdir / "cohort" / "cohort.jsonl"] if command == "train" else []
        proc = run_cli(command, *data, "--set", setting, "--out", tmp_path / "out")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]

    @pytest.mark.parametrize("field, value", [
        ("patch_range", ["2", 3]),
        ("gene_weights", [1.0, "x", 0.6]),
        ("group_sizes", {**SPEC["group_sizes"], "TSG": "8"}),
    ], ids=["patch-range", "gene-weights", "group-sizes"])
    def test_wrong_element_type_in_spec_exit_2(self, tmp_path, field, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, field: value}))
        proc = run_cli("synth", "--spec", spec_path, "--out", tmp_path / "out")
        assert_error_line(proc, 2)
        assert f"cohort spec: field {field} must be " in proc.stderr

    @pytest.mark.parametrize("source", ["set", "env"])
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, source):
        if source == "env":
            monkeypatch.setenv("UMPS_SEED", "-3")
            setting = []
        else:
            setting = ["--set", "seed=-1"]
        proc = run_cli("synth", *setting, "--out", tmp_path / "out")
        assert_error_line(proc, 2)
        seed = "-3" if source == "env" else "-1"
        assert f"cohort spec: seed must be non-negative, got {seed}" in proc.stderr

    def test_binary_patch_sidecars(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "cases_per_cancer": 10}))
        assert main(["synth", "--spec", str(spec_path), "--seed", "1",
                     "--binary-patches", "--out", str(tmp_path / "bin")]) == 0
        sidecars = list((tmp_path / "bin").glob("*.patches.bin"))
        assert len(sidecars) == 20
        records = bags.read_cohort(str(tmp_path / "bin" / "cohort.jsonl"))
        assert records[0].wsi.patch_count >= 4


class TestTrain:
    def test_fold_artifacts(self, workdir):
        run = workdir / "run"
        assert (run / "fold_0.ckpt").exists() and (run / "fold_1.ckpt").exists()
        assert (run / "fold_0.metrics.json").exists()
        assert (run / "fold_1.metrics.json").exists()
        metrics = json.loads((run / "metrics.json").read_text())
        assert "mean_fold_overall_cindex" in metrics
        assert len(metrics["fold_details"]) == 2

    def test_repeat_same_seed_identical_metrics(self, workdir, tmp_path):
        for sub in ("r1", "r2"):
            assert main(["train", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                         "--config", str(workdir / "config.json"), "--folds", "2",
                         "--seed", "3", "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "r1" / "metrics.json").read_bytes() == \
            (tmp_path / "r2" / "metrics.json").read_bytes()
        assert (tmp_path / "r1" / "fold_0.ckpt").read_bytes() == \
            (tmp_path / "r2" / "fold_0.ckpt").read_bytes()

    def test_missing_data_exit_2(self, workdir, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_config_field_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**CONFIG, "bogus": 1}))
        assert main(["train", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_heads_not_dividing_odd_width_exit_2(self, workdir, tmp_path):
        proc = run_cli("train", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--set", "d_model=15", "--set", "n_heads=3",
                       "--out", tmp_path / "run")
        assert_error_line(proc, 2)
        assert "field d_model must be even and divisible by n_heads" in proc.stderr

    @pytest.mark.parametrize("setting, message", [
        ("seed=-1", "field seed must be non-negative, got -1"),
        ("text_table_seed=-5", "field text_table_seed must be non-negative, got -5"),
        ("sinkhorn_eps=inf", "field sinkhorn_eps must lie in [1e-12, 1e+12], got inf"),
        ("sinkhorn_eps=1e-300", "field sinkhorn_eps must lie in [1e-12, 1e+12], got 1e-300"),
        ("sinkhorn_eps=1e308", "field sinkhorn_eps must lie in [1e-12, 1e+12], got 1e+308"),
        ("sinkhorn_tol=inf", "field sinkhorn_tol must be finite, got inf"),
        ("lr=inf", "field lr must be finite, got inf"),
    ], ids=["seed", "text-table-seed", "inf-eps", "tiny-eps", "huge-eps", "inf-tol",
            "inf-lr"])
    def test_out_of_range_setting_exit_2(self, workdir, tmp_path, setting, message):
        proc = run_cli("train", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--config", workdir / "config.json", "--set", setting,
                       "--out", tmp_path / "run")
        assert_error_line(proc, 2)
        assert f"train config: {message}" in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_infinity_in_config_file_exit_2(self, workdir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**CONFIG, "sinkhorn_eps": float("inf")}))
        assert "Infinity" in cfg.read_text()
        proc = run_cli("train", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--config", cfg, "--out", tmp_path / "run")
        assert_error_line(proc, 2)
        assert "field sinkhorn_eps must lie in" in proc.stderr

    def test_all_gene_groups_empty_exit_1(self, workdir, tmp_path):
        lines = []
        for line in (workdir / "cohort" / "cohort.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec["genomic"] = {g: {"values": [], "mask": []} for g in sg.GENOMIC_GROUPS}
            lines.append(json.dumps(rec))
        data = tmp_path / "cohort.jsonl"
        data.write_text("\n".join(lines) + "\n")
        proc = run_cli("train", "--data", data, "--config", workdir / "config.json",
                       "--out", tmp_path / "run")
        assert_error_line(proc, 1)
        assert f"{data}:1: every gene group is empty" in proc.stderr

    def test_collapsed_bin_edges_exit_1(self, workdir, tmp_path):
        # every patient an event; per cancer four early times, then one
        # shared late time that collapses the upper quantile edges
        lines = (workdir / "cohort" / "cohort.jsonl").read_text().splitlines()
        out_lines = []
        for i, line in enumerate(lines):
            rec = json.loads(line)
            j = i % SPEC["cases_per_cancer"]
            rec["survival_months"] = float(j + 1) if j < 4 else 50.0
            rec["censored"] = False
            out_lines.append(json.dumps(rec))
        data = tmp_path / "cohort.jsonl"
        data.write_text("\n".join(out_lines) + "\n")
        proc = run_cli("train", "--data", data, "--config", workdir / "config.json",
                       "--folds", "2", "--out", tmp_path / "run")
        assert_error_line(proc, 1)
        assert "collapse a quantile edge" in proc.stderr


class TestEval:
    def test_metrics_schema(self, workdir, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["eval", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--checkpoint", str(workdir / "run" / "fold_0.ckpt"),
                     "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert {"per_cancer_cindex", "overall_mean_cindex", "logrank_p",
                "fold_details", "warnings"} <= set(metrics)
        assert set(metrics["per_cancer_cindex"]) == {"BLCA", "BRCA"}

    def test_cancer_outside_vocabulary_exit_1(self, workdir, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "cancers": ["BLCA", "LUAD"]}))
        assert main(["synth", "--spec", str(spec_path), "--seed", "7",
                     "--out", str(tmp_path / "cohort")]) == 0
        proc = run_cli("eval", "--data", tmp_path / "cohort" / "cohort.jsonl",
                       "--checkpoint", workdir / "run" / "fold_0.ckpt")
        assert_error_line(proc, 1)
        assert "LUAD" in proc.stderr

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_other_gene_group_sizes_exit_1(self, workdir, tmp_path, command):
        sizes = {g: 5 for g in sg.GENOMIC_GROUPS}
        sizes["TF"] = 6
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "group_sizes": sizes}))
        assert main(["synth", "--spec", str(spec_path), "--seed", "7",
                     "--out", str(tmp_path / "cohort")]) == 0
        data = tmp_path / "cohort" / "cohort.jsonl"
        first = json.loads(data.read_text().splitlines()[0])["id"]
        proc = run_cli(command, "--data", data,
                       "--checkpoint", workdir / "run" / "fold_0.ckpt",
                       "--out", tmp_path / "out.json")
        assert_error_line(proc, 1)
        assert f"patient {first}: gene group TF has 6 genes, model expects 5" \
            in proc.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("meta"), "manifest lacks 'meta'"),
        (lambda m: m.pop("tensors"), "manifest lacks 'tensors'"),
        (lambda m: m["meta"].__setitem__("colour", 1), "'colour'"),
        (lambda m: m["meta"].__setitem__("d_model", "x"), "bad manifest"),
        (lambda m: m["meta"].__setitem__("n_experts", 0),
         "field n_experts must be positive, got 0"),
        (lambda m: m["meta"].__setitem__("n_heads", 3),
         "field d_model must be even and divisible by n_heads"),
        (lambda m: m["meta"].__setitem__("sinkhorn_max_iter", 100.0),
         "field sinkhorn_max_iter must be int, got 100.0"),
        (lambda m: m["meta"].__setitem__("sinkhorn_max_iter", 0),
         "field sinkhorn_max_iter must be positive, got 0"),
        (lambda m: m["meta"].__setitem__("text_table_size", 0),
         "field text_table_size must be positive, got 0"),
        (lambda m: m["meta"].__setitem__("bin_edges", ["a"]),
         "field bin_edges must be list of float, got ['a']"),
        (lambda m: m["meta"].__setitem__("sinkhorn_eps", 1e-300),
         "field sinkhorn_eps must lie in [1e-12, 1e+12], got 1e-300"),
        (lambda m: m["meta"].__setitem__("sinkhorn_eps", 1e308),
         "field sinkhorn_eps must lie in [1e-12, 1e+12], got 1e+308"),
        (lambda m: m["meta"].__setitem__("sinkhorn_eps", float("inf")),
         "field sinkhorn_eps must lie in [1e-12, 1e+12], got inf"),
        (lambda m: m["meta"].__setitem__("sinkhorn_tol", float("inf")),
         "field sinkhorn_tol must be finite, got inf"),
        (lambda m: m["meta"].__setitem__("text_table_seed", -1),
         "field text_table_seed must be non-negative, got -1"),
    ], ids=["no-meta", "no-tensors", "unknown-meta-field", "text-d_model",
            "zero-experts", "heads-3", "float-max-iter", "zero-max-iter",
            "zero-table-size", "text-bin-edge", "tiny-eps", "huge-eps", "inf-eps",
            "inf-tol", "negative-table-seed"])
    def test_bad_manifest_exit_1(self, workdir, tmp_path, edit, message):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((workdir / "run" / "fold_0.ckpt").read_bytes())
        rewrite_manifest(str(ckpt), edit)
        proc = run_cli("eval", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--checkpoint", ckpt)
        assert_error_line(proc, 1)
        assert f"{ckpt}: " in proc.stderr and message in proc.stderr

    def test_non_finite_risk_exit_1(self, workdir, tmp_path):
        lines = (workdir / "cohort" / "cohort.jsonl").read_text().splitlines()
        rec = json.loads(lines[5])
        rec["patch_features"][0][0] = float("nan")
        lines[5] = json.dumps(rec)
        data = tmp_path / "cohort.jsonl"
        data.write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", "--data", data,
                       "--checkpoint", workdir / "run" / "fold_0.ckpt")
        assert_error_line(proc, 1)
        assert f"non-finite risk for patient {rec['id']}" in proc.stderr

    def test_truncated_checkpoint_exit_1(self, workdir, tmp_path):
        raw = (workdir / "run" / "fold_0.ckpt").read_bytes()
        mlen = int.from_bytes(raw[6:14], "little")
        # inside the length field, the manifest, the payload, the last byte
        for cut in (10, 14 + mlen // 2, 14 + mlen + 100, len(raw) - 1):
            ckpt = tmp_path / f"cut_{cut}.ckpt"
            ckpt.write_bytes(raw[:cut])
            proc = run_cli("eval", "--data", workdir / "cohort" / "cohort.jsonl",
                           "--checkpoint", ckpt)
            assert_error_line(proc, 1)
            assert str(ckpt) in proc.stderr


class TestExplain:
    def test_top_k_structure(self, workdir, tmp_path):
        out = tmp_path / "genes.json"
        cams = tmp_path / "cams.json"
        assert main(["explain", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--checkpoint", str(workdir / "run" / "fold_0.ckpt"),
                     "--top-k", "3", "--out", str(out), "--cams", str(cams)]) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 3
        assert set(payload["top_genes"]) == {"BLCA", "BRCA"}
        for cancer in payload["top_genes"].values():
            for grp in bags.GENOMIC_GROUPS:
                assert len(cancer[grp]) == 3
        rows = json.loads(cams.read_text())
        assert {"patient_id", "modality", "group", "index", "score"} <= set(rows[0])

    def test_top_k_zero_exit_2(self, workdir, tmp_path):
        proc = run_cli("explain", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--checkpoint", workdir / "run" / "fold_0.ckpt",
                       "--top-k", "0", "--out", tmp_path / "genes.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.strip().splitlines() == ["error: --top-k must be >= 1, got 0"]


    def test_nan_parameter_exit_1(self, workdir, tmp_path):
        raw = bytearray((workdir / "run" / "fold_0.ckpt").read_bytes())
        mlen = int.from_bytes(raw[6:14], "little")
        entry = json.loads(raw[14:14 + mlen])["tensors"][0]
        start = 14 + mlen + entry["offset"]
        raw[start:start + 8] = np.float64(np.nan).tobytes()
        ckpt = tmp_path / "nan.ckpt"
        ckpt.write_bytes(bytes(raw))
        proc = run_cli("explain", "--data", workdir / "cohort" / "cohort.jsonl",
                       "--checkpoint", ckpt, "--out", tmp_path / "genes.json")
        assert_error_line(proc, 1)
        assert f"model parameter {entry['name']!r} is not finite" in proc.stderr

    def test_empty_cohort_exit_1(self, workdir, tmp_path):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        proc = run_cli("explain", "--data", data,
                       "--checkpoint", workdir / "run" / "fold_0.ckpt",
                       "--out", tmp_path / "genes.json")
        assert_error_line(proc, 1)
        assert f"{data}: cohort holds no patients" in proc.stderr


class TestCohortErrors:
    @pytest.mark.parametrize("damage, message", [
        (lambda line: line[:-2], "Expecting"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                  if k != "survival_months"}),
         "missing key 'survival_months'"),
        (lambda line: json.dumps({**json.loads(line), "meta": {
            **json.loads(line)["meta"], "sex": "unknown"}}), "sex 'unknown'"),
        (lambda line: json.dumps({**json.loads(line), "cancer_type": "BRCA"}),
         "cancer_type 'BRCA' differs from meta cancer_type 'BLCA'"),
        (lambda line: json.dumps({**json.loads(line), "survival_months": float("nan")}),
         "survival_months must be finite, got nan"),
    ], ids=["bad-json", "missing-key", "bad-meta", "cancer-mismatch", "nan-months"])
    def test_bad_line_exit_1_names_path_and_line(self, workdir, tmp_path, damage, message):
        lines = (workdir / "cohort" / "cohort.jsonl").read_text().splitlines()
        lines[2] = damage(lines[2])
        data = tmp_path / "cohort.jsonl"
        data.write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", "--data", data,
                       "--checkpoint", workdir / "run" / "fold_0.ckpt")
        assert_error_line(proc, 1)
        assert f"{data}:3: " in proc.stderr and message in proc.stderr


    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_sidecar_outside_cohort_dir_exit_1(self, workdir, tmp_path, where):
        lines = (workdir / "cohort" / "cohort.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        outside = tmp_path / "outside.bin"
        bags.write_patch_matrix(str(outside), np.asarray(rec["patch_features"]))
        rec["patch_features"] = "../outside.bin" if where == "relative" else str(outside)
        lines[2] = json.dumps(rec)
        data = tmp_path / "cohort" / "cohort.jsonl"
        data.parent.mkdir()
        data.write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", "--data", data,
                       "--checkpoint", workdir / "run" / "fold_0.ckpt")
        assert_error_line(proc, 1)
        assert f"{data}:3: patch sidecar" in proc.stderr and "lies outside" in proc.stderr


class TestKm:
    def test_from_checkpoint(self, workdir, tmp_path):
        out = tmp_path / "km"
        assert main(["km", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--checkpoint", str(workdir / "run" / "fold_0.ckpt"),
                     "--out", str(out)]) == 0
        assert (out / "km.csv").exists() and (out / "km.svg").exists()
        header = (out / "km.csv").read_text().splitlines()[0]
        assert header == "time,survival_low,survival_high"

    def test_equal_risks_p_near_one(self, workdir, tmp_path):
        # duplicated cohort halves + equal risks: the stable median split
        # puts one copy in each group, so the groups are identical
        records = bags.read_cohort(str(workdir / "cohort" / "cohort.jsonl"))
        doubled = []
        for tag in ("a", "b"):
            for rec in records:
                import copy as _copy
                c = _copy.deepcopy(rec)
                c.id = f"{tag}_{rec.id}"
                doubled.append(c)
        data = tmp_path / "doubled.jsonl"
        bags.write_cohort(str(data), doubled)
        risks = {rec.id: 1.0 for rec in doubled}
        risks_path = tmp_path / "risks.json"
        risks_path.write_text(json.dumps(risks))
        out = tmp_path / "km"
        assert main(["km", "--data", str(data), "--risks", str(risks_path),
                     "--out", str(out)]) == 0
        svg = (out / "km.svg").read_text()
        assert "logrank p = 1" in svg

    def test_requires_exactly_one_source(self, workdir, tmp_path):
        assert main(["km", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--out", str(tmp_path / "km2")]) == 2


class TestSweep:
    def test_expert_sweep_table(self, workdir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                     "--config", str(workdir / "config.json"), "--folds", "2",
                     "--seed", "3", "--experts", "1,2", "--out", str(out)]) == 0
        table = json.loads((out / "sweep.json").read_text())["experts"]
        assert set(table) == {"1", "2"}
        assert (out / "experts_1" / "metrics.json").exists()
        assert (out / "experts_2" / "fold_1.ckpt").exists()

    def test_bad_experts_list_exit_2(self, workdir, tmp_path):
        for experts in ("a,b", "2,0"):
            assert main(["sweep", "--data", str(workdir / "cohort" / "cohort.jsonl"),
                         "--experts", experts, "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()


class TestJsonFiles:
    """A config, spec or risk file that does not decode: exit 2, one
    `error:` line naming the file."""

    def _run(self, workdir, tmp_path, flag, path):
        data = ["--data", workdir / "cohort" / "cohort.jsonl"]
        command, extra = {"--spec": ("synth", []), "--config": ("train", data),
                          "--risks": ("km", data)}[flag]
        return run_cli(command, *extra, flag, path, "--out", tmp_path / "out")

    @pytest.mark.parametrize("flag", ["--spec", "--config", "--risks"])
    def test_invalid_json_exit_2(self, workdir, tmp_path, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,')
        proc = self._run(workdir, tmp_path, flag, bad)
        assert_error_line(proc, 2)
        assert f"{bad} is not valid JSON" in proc.stderr

    @pytest.mark.parametrize("flag", ["--spec", "--config"])
    def test_array_instead_of_object_exit_2(self, workdir, tmp_path, flag):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        proc = self._run(workdir, tmp_path, flag, bad)
        assert_error_line(proc, 2)
        assert f"{bad} must hold a JSON object, not list" in proc.stderr

    @pytest.mark.parametrize("row, message", [
        ({"id": None}, "a row lacks 'risk'"),
        ({"id": None, "risk": "abc"}, "could not convert string to float: 'abc'"),
    ], ids=["no-risk", "text-risk"])
    def test_bad_risk_row_exit_2(self, workdir, tmp_path, row, message):
        records = bags.read_cohort(str(workdir / "cohort" / "cohort.jsonl"))
        rows = [{"id": rec.id, "risk": 0.5} for rec in records]
        rows[3] = {**row, "id": records[3].id}
        risks = tmp_path / "risks.json"
        risks.write_text(json.dumps(rows))
        proc = self._run(workdir, tmp_path, "--risks", risks)
        assert_error_line(proc, 2)
        assert f"risk file {risks}: {message}" in proc.stderr
