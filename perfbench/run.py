"""exactframes benchmark: four CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs building.  Workloads (see ``jobs.py``):

* ``construct``: ``construct`` of the unitary and 2-tight families,
  small (n <= 16, 102 jobs) and large (n = 128 and the 128x64
  weight-in-front frame); the construct-time exact Gram re-check in
  ``verify``/``_kernel`` dominates.
* ``verify``: ``verify`` and ``sparsity`` on signed permutations of
  those families, written with some non-squarefree radicands and some
  planted defects caught early or late in the scan; the input side
  (``io``, ``radicals``) and witness exits.
* ``hyperplane``: ``construct hyperplane`` (n = 5..16, 128, 256) and
  ``verify --check hyperplane``; the exact Fraction elimination.
* ``pave``: exhaustive 2-paving of 16-row frames, 8-row frames, and
  sampled search on 32, 64 and 128 rows; the per-partition eigvalsh loop.
  The 128-row job fails today (numpy cannot draw 127-bit masks) and is
  counted as a failed job.

Every workload also runs six tiny "touch" jobs that call each traced
layer once; they count in ``wall_s`` only.

Each run: time fresh-interpreter imports of ``exactframes.cli``
(``setup_s``, median of several), write the seeded inputs into a work
directory under ``.perfbench/``, then run the job list in a fresh
interpreter (``runner.py``) for ``--seconds`` and check every outcome
(``checks.py``).  With ``--trace 1`` the runner also wraps the public
functions of each module (``spans.py``), reports per-layer metrics and
writes the spans to ``.perfbench/spans-<workload>.jsonl.gz``.

All times are reference seconds (``refclock.py``): each measured
interval is scaled by a fixed loop timed around it, because the speed of
a shared machine drifts by up to 2x within seconds.  ``wall_s`` and
``large_s`` sum per-job medians over the passes of a run; the small-tier
percentiles are over those medians, one per job (the info line gives
the sample count and how many lie beyond p90).  ``ok_frac`` is
1 - failed/attempted; see ``checks.py`` for failed and wrong jobs.

Standard output: one line with the environment and sample counts, then
the result as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a
result when the checkout has no ``src/exactframes``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

SETUP_SAMPLES = 9
TIME_LIMIT_S = 170

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from refclock import reference, scaled\n"
    "before = reference()\n"
    "start = time.perf_counter()\n"
    "import exactframes.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(scaled(elapsed, before, reference()))\n")


def setup_seconds() -> float:
    """Median import time of ``exactframes.cli`` in fresh interpreters, in
    reference seconds, after one unmeasured import that leaves the
    bytecode cache warm."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("construct", "verify", "hyperplane", "pave"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()
    # on SIGTERM, unwind: subprocess.run kills and waits for the runner
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "exactframes" / "cli.py").is_file():
        print(f"no exactframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs as joblist

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = setup_seconds()
        jobs = joblist.build_jobs(args.workload, args.seed, str(work))
        (work / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        if args.seed != pins["seed"]:
            del pins["jobs"]  # job ids name other inputs at other seeds
        (work / "pins.json").write_text(json.dumps(pins), encoding="utf-8")
        env = {"workload": args.workload, "seed": args.seed,
               "commit": commit()}
        cmd = [sys.executable, str(HERE / "runner.py"), "--src", str(SRC),
               "--jobs", "jobs.json", "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", "result.json",
               "--pins", "pins.json", "--env", json.dumps(env)]
        if args.trace:
            cmd += ["--spans",
                    str(WORK_ROOT / f"spans-{args.workload}.jsonl.gz")]
        remaining = TIME_LIMIT_S - (time.perf_counter() - begin)
        proc = subprocess.run(cmd, cwd=work, timeout=remaining,
                              stdout=subprocess.PIPE)
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        if proc.returncode != 0:
            print(f"runner exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = setup
        metrics["ok_frac"] = 1 - result["failed"] / result["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    for line in result["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    info = dict(result["info"], jobs=len(jobs), **result["env"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
