"""Perf trajectory: perfbench's end-to-end metrics of this checkout against
another git revision, in alternating pairs.

    python3 tools/bench.py --against REV --out BENCH_<n>.json

REV is extracted with `git archive` into a temporary directory. For each
workload of BENCHMARK.json, pair i = 1..PAIRS runs its command (`python3
perfbench/run.py`) with `--workload W --seed i --seconds S --trace 0`, S
being the file's `run_seconds`, once in REV's tree and once in this
checkout, in alternating order (REV first on odd pairs), so a slow stretch
of the machine lands on both sides. PAIRS is 10, the fewest pairs on which a
gain can be shown better in nine of ten. TRACED_PAIRS more pairs run with
`--trace 1` for the per-layer metrics. The output file holds, per workload,
side and metric, the median, the quartiles and every value, the failed
operation counts, per end-to-end metric the number of pairs in which this
checkout read better, `nproc`, the numpy version and both SHAs. Run it
from the root of a git checkout; it changes nothing under `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACED_PAIRS = 1


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout_sha() -> str:
    """HEAD, marked `-dirty` when tracked files differ from it."""
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def extract(sha: str, dest: str) -> str:
    """The committed files of `sha`, unpacked under `dest`."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                       stdout=fh)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def perfbench(bench: dict, tree: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in `tree`; its JSON result plus the wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summary(runs: list) -> dict:
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        metrics[name] = {"median": q2, "q1": q1, "q3": q3, "values": values,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return {"runs": len(runs),
            "incorrect_runs": sum(1 for r in runs if not r["correct"]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def better(metric: dict, before: float, after: float) -> bool:
    """Whether `after` beats `before` on a BENCHMARK.json end-to-end metric."""
    return after > before if metric["better"] == "higher" else after < before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    against_sha = git("rev-parse", args.against + "^{commit}")
    report = {"against": {"rev": args.against, "sha": against_sha},
              "checkout": {"sha": checkout_sha()},
              "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
              "python": sys.version.split()[0], "seconds": bench["run_seconds"],
              "pairs": PAIRS, "traced_pairs": TRACED_PAIRS, "workloads": {}}
    scratch = tempfile.mkdtemp(prefix="pansurv-bench-")
    try:
        trees = {"against": extract(against_sha, scratch), "checkout": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {side: {0: [], 1: []} for side in trees}
            for trace, count in ((0, PAIRS), (1, TRACED_PAIRS)):
                for seed in range(1, count + 1):
                    order = ("against", "checkout") if seed % 2 else ("checkout", "against")
                    for side in order:
                        result = perfbench(bench, trees[side], workload, seed, trace)
                        runs[side][trace].append(result)
                        print(f"{workload} seed {seed} trace {trace} {side}: correct "
                              f"{result['correct']}, failed {result['failed']}, "
                              f"{result['wall_s']:.0f} s", file=sys.stderr)
            report["workloads"][workload] = {
                side: {"end_to_end": summary(runs[side][0]),
                       **({"per_layer": summary(runs[side][1])} if runs[side][1] else {})}
                for side in trees}
            report["workloads"][workload]["checkout_better_pairs"] = {
                m["name"]: sum(better(m, a["metrics"][m["name"]]["value"],
                                      c["metrics"][m["name"]]["value"])
                               for a, c in zip(runs["against"][0], runs["checkout"][0]))
                for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
