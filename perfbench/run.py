"""pansurv benchmark: cross-validated training, slide-scale evaluation and
CAM explanation, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.
See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import os

# one BLAS thread per process: fold workers x BLAS threads <= nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS, training_figures  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0   # set-up repeats
RUN_LIMIT_S = 165       # the whole run, set-up and checks included


def _tree_digest(d: str) -> dict:
    out = {}
    for base, _, files in os.walk(d):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, d)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _run_worker(job: dict, job_dir: str, deadline: float) -> dict:
    job_path = os.path.join(job_dir, "job.json")
    result_path = os.path.join(job_dir, "result.pickle")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    with open(os.path.join(job_dir, "worker.log"), "w") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                 job_path, result_path], stdout=log, stderr=log,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError("the measured phase ran out of time")
    if code != 0:
        with open(os.path.join(job_dir, "worker.log")) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker exited {code}:\n{tail}")
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def _setups(wl, run_dir, seed, parallel, tracer):
    """Repeat the workload's set-up SETUP_MIN to SETUP_MAX times, until
    SETUP_BUDGET_S have passed; returns (set-ups, seconds of each)."""
    import pansurv.cli  # noqa: F401  (import time is not set-up time)
    setups, seconds = [], []
    if tracer:
        tracer.install()
    try:
        while len(setups) < SETUP_MIN or (
                sum(seconds) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
            t0 = time.perf_counter()
            setups.append(wl.setup(os.path.join(run_dir, f"setup{len(setups)}"),
                                   seed, parallel, io.StringIO()))
            seconds.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    return setups, seconds


def run(wl, seed: int, seconds: int, trace: bool) -> dict:
    import spans
    deadline = time.monotonic() + RUN_LIMIT_S
    parallel = 1 if trace else min(2, os.cpu_count() or 1)
    run_dir = os.path.join(WORK, f"{wl.name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = spans.Tracer("setup") if trace else None
    try:
        setups, setup_s = _setups(wl, run_dir, seed, parallel, tracer)
        problems = []
        digests = [_tree_digest(s["dir"]) for s in setups]
        if any(d != digests[0] for d in digests[1:]):
            problems.append("repeated set-up produced different files")
        for s in setups[1:]:
            shutil.rmtree(s["dir"])
        p = setups[0]

        out = os.path.join(run_dir, "run")
        os.makedirs(out)
        job = {"root": ROOT, "trace": trace, "seconds": seconds,
               "round": wl.commands(p, out, parallel),
               "probe": wl.probe(p, out) if trace else [],
               "outputs": wl.outputs(p, out)}
        result = _run_worker(job, run_dir, deadline)

        ops = wl.ops(p)
        rounds = result["rounds"]
        attempted = ops * len(rounds)
        failed = ops * sum(1 for r in rounds if r["error"])
        errors = [r["error"] for r in rounds if r["error"]]
        good = [r for r in rounds if not r["error"]]
        if any(r["digests"] != good[0]["digests"] for r in good[1:]):
            problems.append("rounds on the same inputs wrote different outputs")
        if trace and result["probe"]["error"]:
            problems.append(f"probe failed: {result['probe']['error']}")
        if not rounds[-1]["error"]:
            problems += wl.check(p, out, result, seed)
            if problems:
                failed += ops
        for text in errors + problems:
            print(f"perfbench: {text}", file=sys.stderr)

        if trace:
            # the time the wrappers added to the traced round, against the
            # round without it
            added_s = sum(1 for s in result["trace"]["spans"] if s[spans.PHASE] == "run") \
                * result["span_cost_ns"] / 1e9
            overhead = 100.0 * added_s / (rounds[-1]["wall"] - added_s)
            parts = {"setup": tracer.export(), "run": result["trace"]}
            spans.dump(os.path.join(WORK, "traces", f"{wl.name}-seed{seed}.json"), parts)
            metrics = spans.layer_metrics(list(parts.values()), wl.primary,
                                          rounds[-1]["wall"], overhead, len(setups))
            units = _units("per_layer")
        else:
            loss, cindex = training_figures(wl.training_metrics_path(p, out))
            metrics = {
                "setup_s": statistics.median(setup_s),
                "patients_per_s": statistics.median(ops / r["wall"] for r in good)
                if good else 0.0,
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                "train.final_loss": loss,
                "train.cindex": cindex,
            }
            units = _units("end_to_end")
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pansurv", "__init__.py")):
        print(f"error: no pansurv sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
