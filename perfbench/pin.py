"""Rewrite ``pins.json``: the outputs of every job at the default seed.

    python3 perfbench/pin.py

Runs each workload's job list once at ``jobs.DEFAULT_SEED``, keeps the
jobs that pass their seed-independent checks, and records construct
output digests (by argv), verify report fields (all but
``approximate``) and paving results (by job id).  Run it only when an
output is meant to change; the benchmark then compares every default
seed run with these pins.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, SRC, WORK_ROOT

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import jobs as joblist  # noqa: E402
from exactframes import cli  # noqa: E402
from runner import run_pass  # noqa: E402


def main() -> int:
    pins: dict = {"seed": joblist.DEFAULT_SEED, "construct": {}, "jobs": {}}
    home = os.getcwd()
    for workload in joblist.WORKLOADS:
        work = WORK_ROOT / f"pin-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            jobs = joblist.build_jobs(workload, joblist.DEFAULT_SEED,
                                      str(work))
            os.chdir(work)
            for job, (_, code, stdout) in zip(jobs, run_pass(cli, jobs)):
                out = job["expect"].get("out")
                out_bytes = open(out, "rb").read() if out else None
                kind, reason = checks.verdict(job, code, stdout, out_bytes,
                                              {})
                if kind != "ok":
                    print(f"not pinned: {job['id']} {' '.join(job['argv'])}"
                          f": {kind} {reason}", file=sys.stderr)
                    continue
                record = checks.pin_record(job, stdout, out_bytes)
                if record is not None:
                    section, key, value = record
                    pins[section][key] = value
        finally:
            os.chdir(home)
            shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "pins.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
