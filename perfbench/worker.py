"""Measured phase of one benchmark run, in a process of its own.

    python3 perfbench/worker.py JOB.json RESULT.pickle

run.py writes the job: the `pansurv` command lines of one round, how many
seconds to keep starting rounds, and whether to trace. Every command goes
through `pansurv.cli.main` in this process, so `peak_rss_mb` covers the
workload (and its fold workers) and not the benchmark's set-up or checks.

Untraced, rounds repeat until the time is up (always at least one). Traced,
one traced round runs with folds in this process, then the probe commands
(a small eval, km and explain) once, traced; and the cost of one span is
measured against an unwrapped call. The result pickle holds the per-round
timings, output digests, captured program return values and, when traced,
the spans and the span cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(paths) -> dict:
    out = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[os.path.basename(path)] = h.hexdigest()
    return out


class Capture:
    """Keeps the latest return value of selected program functions."""

    SITES = ("kfold_split", "run_cross_validation", "evaluate")

    def __init__(self):
        self.values = {}
        self._undo = []

    def install(self):
        from pansurv import training
        for attr in self.SITES:
            original = getattr(training, attr)

            def wrapper(*args, _fn=original, _key=attr, **kwargs):
                result = _fn(*args, **kwargs)
                self.values[_key] = result
                return result
            self._undo.append((training, attr, original))
            setattr(training, attr, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


def run_round(cli, commands, outputs) -> dict:
    """Run one round's commands; the wall time covers the commands only."""
    out = io.StringIO()
    wall0 = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            for argv in commands:
                code = cli.main(argv)
                if code != 0:
                    error = f"pansurv {argv[0]} exited {code}"
                    break
    except Exception:  # a program fault fails the round, not the run
        error = traceback.format_exc()
    wall = time.perf_counter() - wall0
    digests = _digest(outputs) if error is None else {}
    return {"wall": wall, "error": error, "stdout": out.getvalue(),
            "digests": digests}


def span_cost_ns(spans, calls=20000, repeats=5) -> float:
    """What recording one span adds to a call: a traced no-op against the
    bare no-op, median of `repeats` timings of `calls` calls each."""
    def noop(a, b):
        return a

    traced = spans.Tracer("calibration").timed(noop, "calibration")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for i in range(calls):
            noop(i, None)
        t1 = time.perf_counter_ns()
        for i in range(calls):
            traced(i, None)
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    from pansurv import cli
    import spans

    capture = Capture().install()
    result = {"rounds": [], "trace": None}
    if not job["trace"]:
        start = time.perf_counter()
        while True:
            result["rounds"].append(run_round(cli, job["round"], job["outputs"]))
            if time.perf_counter() - start >= job["seconds"]:
                break
        captured = dict(capture.values)
    else:
        tracer = spans.Tracer("run").install()
        try:
            result["rounds"].append(run_round(cli, job["round"], job["outputs"]))
        finally:
            tracer.uninstall()
        captured = dict(capture.values)
        tracer.phase = "probe"
        tracer.install()
        try:
            result["probe"] = run_round(cli, job["probe"], [])
        finally:
            tracer.uninstall()
        result["trace"] = tracer.export()
        result["span_cost_ns"] = span_cost_ns(spans)
    capture.uninstall()
    result["captures"] = captured
    result["peak_rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1], sys.argv[2]))
