"""The three workloads: set-up, the `pansurv` commands of one round, the
probe commands of a traced run, and the output checks.

The run's seed draws every cohort (`pansurv synth --seed N`); the training
recipe is the criterion-6 one, its own seed 7 included (see ARCH). Set-up goes
through `pansurv.cli.main` as a user would; the eval and explain
checkpoint is the first fold of a short `pansurv train` run made in set-up.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

import checks

GROUPS = ("TSG", "ONC", "PK", "CDM", "TF", "CGF")

# the criterion-6 recipe (tests/test_acceptance.py ACCEPT_CONFIG with N_e=5),
# its training seed included: the seed draws the cohort, not the model init,
# because the init alone moves the mean Sinkhorn iteration count (and with
# it the work of a step) by a quarter from one init seed to the next
ARCH = dict(d_model=32, n_heads=4, ffn_mult=2, n_bins=4, lr=2e-3,
            weight_decay=1e-5, accum_steps=32, n_experts=5, seed=7)
CV_EPOCHS, CV_FOLDS = 2, 5
# set-up checkpoint: 40 patients per cancer with small bags, 2 folds x 1 epoch,
# an AdamW step every 4 patients
CKPT_CASES, CKPT_EPOCHS, CKPT_FOLDS, CKPT_ACCUM = 40, 1, 2, 4
BIG_BAGS = {"patch_range": [256, 1024], "group_sizes": {g: 64 for g in GROUPS},
            "missing_group_rate": 0.1}
PROBE_PER_CANCER = 4
FD_STEP = 1e-5


class SetupError(RuntimeError):
    pass


def cli(argv, log):
    """`pansurv <argv>` in this process; its stdout goes to `log`."""
    from pansurv import cli as pansurv_cli
    with contextlib.redirect_stdout(log):
        code = pansurv_cli.main(argv)
    if code != 0:
        raise SetupError(f"pansurv {' '.join(argv)} exited {code}")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def read_lines(path):
    """A cohort file as raw JSON objects (independent of the program's reader)."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_subset(cohort, out_name, ids):
    """Copy the lines of `ids` into a cohort file beside `cohort`, so that
    relative patch sidecar paths still resolve."""
    out = os.path.join(os.path.dirname(cohort), out_name)
    with open(cohort) as src, open(out, "w") as dst:
        for line in src:
            if line.strip() and json.loads(line)["id"] in ids:
                dst.write(line)
    return out


def fold_logs(metrics):
    """Per-fold epoch logs from a `pansurv train` metrics.json."""
    return [fd["metrics"]["fold_details"][0]["epochs"] for fd in metrics["fold_details"]]


def training_figures(metrics_path):
    """(last-epoch train loss averaged over folds, mean fold C-index)."""
    with open(metrics_path) as fh:
        metrics = json.load(fh)
    logs = fold_logs(metrics)
    return (float(np.mean([log[-1]["train_loss"] for log in logs])),
            metrics["mean_fold_overall_cindex"])


def cam_with_gradient(model, rec):
    """`attribution_report` for one patient, and the gradient of the risk
    with respect to the gene values that its CAM came from."""
    from pansurv import attribution
    seen = {}
    original = attribution.forward

    def spy(*args, **kwargs):
        seen["gen"] = kwargs["gen_values"]
        return original(*args, **kwargs)
    attribution.forward = spy
    try:
        report = attribution.attribution_report(model, rec)
    finally:
        attribution.forward = original
    return report, seen["gen"].grad


def risk_difference(model, prep, gi, li, step=FD_STEP):
    """Central difference of the risk (minus the summed survival curve) in
    gene value [gi, li]."""
    from pansurv import model as pm

    def risk(delta):
        values = prep.gen_values.copy()
        values[gi, li] += delta
        h = pm.forward(model, prep, need_agent=False, gen_values=values).hazards.data
        return -float(np.sum(np.cumprod(1.0 - h)))
    return (risk(step) - risk(-step)) / (2 * step)


class Workload:
    name = ""
    primary = ""            # patient operation kind, see spans.OP_KINDS
    spec: dict = {}
    binary = False
    checkpoint = True       # trained in set-up

    # -- set-up ---------------------------------------------------------------
    def setup(self, d, seed, parallel, log) -> dict:
        os.makedirs(d)
        p = {"dir": d, "seed": seed,
             "cohort": os.path.join(d, "cohort", "cohort.jsonl"),
             "truth": os.path.join(d, "cohort", "truth.json")}
        self._synth(os.path.join(d, "cohort"), self.spec, seed, log)
        if self.checkpoint:
            ck_cohort = os.path.join(d, "ckpt_cohort")
            self._synth(ck_cohort, {**self.spec, "cases_per_cancer": CKPT_CASES,
                                    "patch_range": [8, 32]}, seed, log)
            cfg = os.path.join(d, "ckpt_config.json")
            write_json(cfg, {**ARCH, "epochs": CKPT_EPOCHS, "accum_steps": CKPT_ACCUM})
            ck_dir = os.path.join(d, "ckpt")
            cli(["train", "--data", os.path.join(ck_cohort, "cohort.jsonl"),
                 "--config", cfg, "--folds", str(CKPT_FOLDS), "--out", ck_dir,
                 "--parallel-folds", str(parallel)], log)
            p["checkpoint"] = os.path.join(ck_dir, "fold_0.ckpt")
            p["train_metrics"] = os.path.join(ck_dir, "metrics.json")
        return p

    def _synth(self, out, spec, seed, log):
        os.makedirs(out)
        spec_path = out + ".spec.json"
        write_json(spec_path, spec)
        cli(["synth", "--spec", spec_path, "--seed", str(seed), "--out", out]
            + (["--binary-patches"] if self.binary else []), log)

    # -- rounds ---------------------------------------------------------------
    def n_patients(self, p) -> int:
        return len(read_lines(p["cohort"]))

    def probe(self, p, run):
        """Small eval, km and explain commands on a few patients per cancer,
        run traced after the measured round: their spans stand in for layers
        that neither the workload nor its set-up runs."""
        by_cancer = {}
        for obj in read_lines(p["cohort"]):
            by_cancer.setdefault(obj["cancer_type"], []).append(obj["id"])
        ids = {i for ids in by_cancer.values() for i in ids[:PROBE_PER_CANCER]}
        data = write_subset(p["cohort"], "probe.jsonl", ids)
        ckpt = p.get("checkpoint") or os.path.join(run, "fold_0.ckpt")
        out = os.path.join(run, "probe")
        os.makedirs(out)
        return [["eval", "--data", data, "--checkpoint", ckpt,
                 "--out", os.path.join(out, "metrics.json")],
                ["km", "--data", data, "--checkpoint", ckpt, "--out", out],
                ["explain", "--data", data, "--checkpoint", ckpt,
                 "--out", os.path.join(out, "genes.json"),
                 "--cams", os.path.join(out, "cams.json")]]

    def training_metrics_path(self, p, run):
        return p["train_metrics"]


class TrainCV(Workload):
    name = "train-cv"
    primary = "step"
    checkpoint = False

    def setup(self, d, seed, parallel, log):
        p = super().setup(d, seed, parallel, log)
        p["config"] = os.path.join(d, "cv_config.json")
        write_json(p["config"], {**ARCH, "epochs": CV_EPOCHS, "folds": CV_FOLDS})
        return p

    def commands(self, p, run, parallel):
        return [["train", "--data", p["cohort"], "--config", p["config"],
                 "--out", run, "--parallel-folds", str(parallel)]]

    def ops(self, p):
        # every patient trains in CV_FOLDS - 1 folds, CV_EPOCHS times each
        return self.n_patients(p) * (CV_FOLDS - 1) * CV_EPOCHS

    def outputs(self, p, run):
        return [os.path.join(run, "metrics.json")] + [
            os.path.join(run, f"fold_{j}{ext}") for j in range(CV_FOLDS)
            for ext in (".ckpt", ".metrics.json")]

    def training_metrics_path(self, p, run):
        return os.path.join(run, "metrics.json")

    def check(self, p, run, result, seed):
        from pansurv import bags, model as pm, training
        lines = read_lines(p["cohort"])
        ids = [o["id"] for o in lines]
        with open(os.path.join(run, "metrics.json")) as fh:
            metrics = json.load(fh)
        splits = result["captures"]["kfold_split"]
        _, pooled = result["captures"]["run_cross_validation"]
        problems = checks.check_losses(fold_logs(metrics))
        problems += checks.check_folds(splits, len(ids))
        want_ids = [ids[i] for _, val in splits for i in val]
        if pooled["ids"] != want_ids:
            problems.append("pooled out-of-fold ids do not follow the folds")
            return problems
        by_id = {o["id"]: o for o in lines}
        times = [by_id[i]["survival_months"] for i in pooled["ids"]]
        cens = [by_id[i]["censored"] for i in pooled["ids"]]
        cancers = [by_id[i]["cancer_type"] for i in pooled["ids"]]
        problems += checks.check_metrics(metrics, pooled["risks"], times, cens, cancers)
        with open(p["truth"]) as fh:
            truth = json.load(fh)["patients"]
        problems += checks.check_truth([truth[i]["risk"] for i in ids],
                                       [o["survival_months"] for o in lines],
                                       [o["censored"] for o in lines],
                                       [o["cancer_type"] for o in lines])
        # each fold checkpoint, reloaded, reproduces its out-of-fold risks
        records = bags.read_cohort(p["cohort"])
        risk_of = dict(zip(pooled["ids"], pooled["risks"]))
        for j, (_, val) in enumerate(splits):
            model = pm.load_checkpoint(os.path.join(run, f"fold_{j}.ckpt"))
            got = [training.predict_risk(model, pm.prepare_patient(records[i], model))
                   for i in val]
            problems += checks.check_identical(
                got, [risk_of[ids[i]] for i in val], f"fold {j} reloaded risks")
        return problems


class EvalBigBags(Workload):
    name = "eval-bigbags"
    primary = "score"
    spec = BIG_BAGS
    binary = True

    def commands(self, p, run, parallel):
        return [["eval", "--data", p["cohort"], "--checkpoint", p["checkpoint"],
                 "--out", os.path.join(run, "metrics.json")],
                ["km", "--data", p["cohort"], "--checkpoint", p["checkpoint"],
                 "--out", os.path.join(run, "km")]]

    def ops(self, p):
        return 2 * self.n_patients(p)     # eval and km each score every patient

    def outputs(self, p, run):
        return [os.path.join(run, "metrics.json"), os.path.join(run, "km", "km.csv"),
                os.path.join(run, "km", "km.svg")]

    def check(self, p, run, result, seed):
        from pansurv import bags, model as pm
        lines = read_lines(p["cohort"])
        details = result["captures"]["evaluate"][1]
        risk_of = dict(zip(details["ids"], details["risks"]))
        if sorted(risk_of) != sorted(o["id"] for o in lines):
            return ["eval scored a different set of patients than the cohort"]
        risks = [risk_of[o["id"]] for o in lines]
        times = [o["survival_months"] for o in lines]
        cens = [o["censored"] for o in lines]
        problems = checks.check_finite(risks, "risks")
        if problems:
            return problems
        with open(os.path.join(run, "metrics.json")) as fh:
            metrics = json.load(fh)
        problems += checks.check_metrics(metrics, risks, times, cens,
                                         [o["cancer_type"] for o in lines])
        with open(os.path.join(run, "km", "km.csv")) as fh:
            problems += checks.check_km(fh.read(), times, [not c for c in cens], risks)
        problems += checks.check_km_logrank(result["rounds"][-1]["stdout"], times,
                                            [not c for c in cens], risks)
        # hazards do not depend on the order of the patch bag
        rng = np.random.default_rng([seed, 17])
        sample = rng.choice(len(lines), 4, replace=False)
        path = write_subset(p["cohort"], "permute.jsonl", {lines[i]["id"] for i in sample})
        model = pm.load_checkpoint(p["checkpoint"])
        pairs = []
        for rec in bags.read_cohort(path):
            prep = pm.prepare_patient(rec, model)
            h = pm.forward(model, prep, need_agent=False).hazards.data
            prep.patches = prep.patches[rng.permutation(len(prep.patches))]
            h_perm = pm.forward(model, prep, need_agent=False).hazards.data
            pairs.append((rec.id, h.tolist(), h_perm.tolist()))
        return problems + checks.check_permutation(pairs)


class ExplainCams(Workload):
    name = "explain-cams"
    primary = "explain"

    def commands(self, p, run, parallel):
        return [["explain", "--data", p["cohort"], "--checkpoint", p["checkpoint"],
                 "--top-k", "3", "--out", os.path.join(run, "genes.json"),
                 "--cams", os.path.join(run, "cams.json")]]

    def ops(self, p):
        return self.n_patients(p)

    def outputs(self, p, run):
        return [os.path.join(run, "genes.json"), os.path.join(run, "cams.json")]

    def check(self, p, run, result, seed):
        from pansurv import bags, model as pm
        lines = read_lines(p["cohort"])
        with open(os.path.join(run, "cams.json")) as fh:
            rows = json.load(fh)
        masks = {o["id"]: {g: o["genomic"][g]["mask"] for g in GROUPS} for o in lines}
        lengths = {o["id"]: len(o["patch_features"]) for o in lines}
        problems = checks.check_cams(rows, masks, lengths)
        with open(os.path.join(run, "genes.json")) as fh:
            top = json.load(fh)["top_genes"]
        if sorted(top) != sorted({o["cancer_type"] for o in lines}) or any(
                len(top[c][g]) != 3 for c in top for g in GROUPS):
            problems.append("genes.json lacks a top-3 list per cancer and group")
        # the input gradient behind the CAM against central differences
        rng = np.random.default_rng([seed, 23])
        sample = [lines[i] for i in rng.choice(len(lines), 3, replace=False)]
        path = write_subset(p["cohort"], "fd.jsonl", {o["id"] for o in sample})
        model = pm.load_checkpoint(p["checkpoint"])
        pairs = []
        for rec in bags.read_cohort(path):
            report, grad = cam_with_gradient(model, rec)
            cli_scores = {(r["group"], r["index"]): r["score"] for r in rows
                          if r["patient_id"] == rec.id and r["modality"] == "genomic"}
            if any(cli_scores[(g, i)] != s for g in GROUPS
                   for i, s in enumerate(report.gene_scores[g].tolist())):
                problems.append(f"{rec.id}: CAM scores differ from a rerun")
            prep = pm.prepare_patient(rec, model)
            observed = np.argwhere(prep.gen_mask == 1)
            for gi, li in observed[rng.choice(len(observed), 3, replace=False)]:
                pairs.append((f"{rec.id} {GROUPS[gi]}[{li}]", float(grad[gi, li]),
                              risk_difference(model, prep, gi, li)))
        return problems + checks.check_gradients(pairs)


WORKLOADS = {w.name: w for w in (TrainCV(), EvalBigBags(), ExplainCams())}
