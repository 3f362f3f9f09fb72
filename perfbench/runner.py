"""Run one workload's job list through ``exactframes.cli.main`` in this
process, from one thread, and write its metrics as JSON.

Usage (``run.py`` starts it in a fresh interpreter, in the directory
that holds the inputs)::

    python3 runner.py --src SRC --jobs JOBS --seconds S --trace 0|1
                      --result OUT --pins PINS [--env JSON]
                      [--spans SPANS.jsonl.gz]

Passes over the whole job list repeat until ``--seconds`` is used up (at
least one pass; a pass starts only if the previous one would still fit).
With ``--trace 1`` the first half of the time runs untraced passes and
the second half traced ones.  Every job's outcome is checked on its
first run; later runs must reproduce it exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io as stdio
import json
import os
import platform
import resource
import statistics
import sys
import time

from refclock import reference, scaled


# loop runs per reference next to a large-tier job: one scale factor
# covers a whole large job, so it is worth a steadier estimate
LARGE_REF_RUNS = 9


def _ref_runs(jobs: list, index: int) -> int:
    """Loop runs for the reference taken before job ``index``."""
    near = jobs[max(index - 1, 0):index + 1]
    return LARGE_REF_RUNS if any(j["tier"] == "large" for j in near) else 3


def run_pass(cli, jobs: list, tracer=None) -> list:
    """(reference seconds, exit code, stdout) of each job, in order."""
    results = []
    ref_before = reference(_ref_runs(jobs, 0))
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = stdio.StringIO(), stdio.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the program crashed: a failed job
                code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ref_after = reference(_ref_runs(jobs, index + 1))
        results.append((scaled(elapsed, ref_before, ref_after), code,
                        out.getvalue()))
        if tracer is not None:
            tracer.scale[index] = scaled(1.0, ref_before, ref_after)
        ref_before = ref_after
    return results


class Judge:
    """Checks each job's first outcome and that later runs repeat it."""

    def __init__(self, jobs: list, pins: dict, verdict) -> None:
        self.jobs = jobs
        self.pins = pins
        self.verdict = verdict
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def judge(self, results: list) -> None:
        for job, (_, code, stdout) in zip(self.jobs, results):
            out = job["expect"].get("out")
            out_bytes = None
            if out and os.path.exists(out):
                with open(out, "rb") as fh:
                    out_bytes = fh.read()
            sig = (code, stdout, out_bytes and hashlib.sha256(out_bytes)
                   .hexdigest())
            if job["id"] not in self.first:
                self.first[job["id"]] = (sig, self.verdict(
                    job, code, stdout, out_bytes, self.pins))
            first_sig, (kind, reason) = self.first[job["id"]]
            if sig != first_sig:
                kind, reason = "wrong", "outcome differs from its first run"
            self.attempted += 1
            if kind != "ok":
                self.failed += 1
            if kind == "wrong" and len(self.wrong) < 20:
                self.wrong.append(f"{job['id']} {' '.join(job['argv'])}: "
                                  f"{reason}")


def measure(cli, jobs, judge, deadline, tracer=None) -> tuple:
    """Passes until ``deadline``; returns per-pass results and layer
    metrics (traced passes only)."""
    passes, layers = [], []
    while True:
        start = time.perf_counter()
        results = run_pass(cli, jobs, tracer)
        if tracer is not None:
            layers.append(tracer.finish_pass())
        judge.judge(results)
        passes.append(results)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return passes, layers


def end_to_end(jobs: list, passes: list) -> tuple:
    """End-to-end metrics of untraced passes, and the sample counts.

    Every job's time is its median over the passes; the small-tier
    percentiles are taken over those medians, one sample per job."""
    per_job = [statistics.median(p[k][0] for p in passes)
               for k in range(len(jobs))]
    small = [t * 1e3 for t, job in zip(per_job, jobs)
             if job["tier"] == "small"]
    p90 = statistics.quantiles(small, n=10)[-1]
    metrics = {
        "wall_s": sum(per_job),
        "small_p50_ms": statistics.median(small),
        "small_p90_ms": p90,
        "large_s": sum(t for t, job in zip(per_job, jobs)
                       if job["tier"] == "large"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": len(passes), "small_samples": len(small),
            "small_beyond_p90": sum(x > p90 for x in small),
            "large_jobs": sum(job["tier"] == "large" for job in jobs)}
    return metrics, info


def pass_seconds(results: list) -> float:
    return sum(r[0] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--env", default="{}",
                        help="JSON object merged into the recorded "
                             "environment")
    parser.add_argument("--pins", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    sys.path.insert(0, args.src)
    import numpy

    import exactframes
    from checks import verdict
    from exactframes import cli
    from spans import Tracer

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(args.pins, encoding="utf-8") as fh:
        pins = json.load(fh)
    judge = Judge(jobs, pins, verdict)
    share = 0.5 if args.trace else 1.0
    passes, _ = measure(cli, jobs, judge, begin + share * args.seconds)
    metrics, info = end_to_end(jobs, passes)
    env = dict(json.loads(args.env), python=platform.python_version(),
               numpy=numpy.__version__,
               kernel=getattr(exactframes, "kernel_implementation", None),
               nproc=os.cpu_count())
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, layers = measure(cli, jobs, judge,
                                     begin + args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = {key: statistics.median(layer[key] for layer in layers)
                   for key in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(map(pass_seconds, traced))
            / statistics.median(map(pass_seconds, passes)) - 1)
        info["traced_passes"] = len(traced)
        if args.spans:
            with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                fh.write(json.dumps({"env": env}) + "\n")
                for sid, name, start, end, parent, job in tracer.recorded:
                    fh.write(json.dumps([sid, name, start, end, parent,
                                         jobs[job]["id"]]) + "\n")
    result = {"attempted": judge.attempted, "failed": judge.failed,
              "wrong": judge.wrong, "metrics": metrics, "info": info,
              "env": env}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
