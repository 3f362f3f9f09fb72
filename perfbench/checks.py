"""Correctness checks on the outcome of each job.

A job *fails* when the CLI exits with an error (code 2 or 3) or raises:
the operation did not complete.  A completed job (exit 0 or 1) is
*wrong* when its exit code or output disagrees with what follows from
how its input was built; any wrong job makes the run incorrect.

Checks that hold at every seed:

* construct: the output round-trips through ``io`` byte for byte, and
  its digest matches the pinned one whenever the same argv was pinned
  (construct output depends on argv alone);
* verify: ``passed``, ``property``, the witness kind and position of a
  planted defect, ``k`` and ``unit_rows``, and the hyperplane normal up
  to sign (when present for normalized inputs, which have no exact
  normal today); ``approximate`` is not compared;
* sparsity: the exact nonzero count;
* pave: the partition is a partition of ``range(M)`` with index 0
  first, the histogram keys are every balance (exhaustive) or a subset
  (sampled), ``best_value`` is the histogram minimum and matches the
  spectral value of ``best_partition`` recomputed from the frame within
  ``PAVE_TOL``; up to ``RECHECK_ROWS`` rows, every partition is
  recomputed, which fixes the histogram and the tie-break toward the
  smallest first block (values within ``PAVE_TOL`` count as ties).

At the default seed, every verify report field above and the witness
residual, and every paving result field (floats within ``PAVE_TOL``),
are also compared with ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json

import numpy

from exactframes import io

PAVE_TOL = 1e-9
RECHECK_ROWS = 8


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict(job: dict, code, stdout: str, out_bytes: bytes | None,
            pins: dict) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", reason)."""
    exp = job["expect"]
    if code not in (0, 1):
        return "failed", f"exit {code}"
    if code != exp["exit"]:
        return "wrong", f"exit {code}, expected {exp['exit']}"
    check = _CHECKS[exp["check"]]
    problem = check(job, stdout, out_bytes, pins)
    return ("wrong", problem) if problem else ("ok", "")


def _construct(job, stdout, out_bytes, pins):
    exp = job["expect"]
    data = out_bytes if exp["out"] else stdout.encode("utf-8")
    pinned = pins.get("construct", {}).get(exp["pin"])
    if pinned is not None and digest(data) != pinned:
        return "output differs from the pinned digest"
    text = data.decode("utf-8")
    if not exp["bundle"]:
        parts = [text]
    elif exp["fmt"] == "exact-json":
        parts = [json.dumps(doc, separators=(",", ":"), sort_keys=True)
                 + "\n" for doc in json.loads(text)["matrices"]]
    else:
        parts = [p if p.endswith("\n") else p + "\n"
                 for p in text.split("\n\n")]
    if exp["bundle"] and len(parts) != 3:
        return f"mub-r4 emitted {len(parts)} bases"
    for part in parts:
        if io.serialize(io.deserialize(part), exp["fmt"]) != part:
            return "output does not round-trip through io"
    return None


def _report(job, stdout, _out_bytes, pins):
    exp = job["expect"]
    got = json.loads(stdout)
    want = exp["report"]
    for key in ("passed", "property", "k", "unit_rows"):
        if key in want and got.get(key) != want[key]:
            return f"{key} is {got.get(key)!r}, expected {want[key]!r}"
    if "witness" in want:
        w = got.get("witness") or {}
        for key in ("kind", "i", "j"):
            if w.get(key) != want["witness"][key]:
                return f"witness {w}, expected {want['witness']}"
    elif "witness" in got:
        return f"unexpected witness {got['witness']}"
    normal = exp.get("normal")
    if normal is not None:
        if "normal" not in got and not exp.get("normal_optional"):
            return "no normal reported"
        if "normal" in got and got["normal"] not in (
                normal, [str(-int(c)) for c in normal]):
            return "normal differs from the built one (up to sign)"
    for key, value in pins.get("jobs", {}).get(job["id"], {}).items():
        if got.get(key) != value:
            return f"{key} is {got.get(key)!r}, pinned {value!r}"
    return None


def _stdout(job, stdout, _out_bytes, _pins):
    want = job["expect"]["stdout"]
    if stdout != want:
        return f"printed {stdout!r}, expected {want!r}"
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PAVE_TOL * max(1.0, abs(b))


def _spectral_norm(mat: numpy.ndarray) -> float:
    return float(numpy.max(numpy.abs(numpy.linalg.eigvalsh(mat)))
                 ) if mat.size else 0.0


def _pave(job, stdout, _out_bytes, pins):
    exp = job["expect"]
    got = json.loads(stdout)
    m = exp["size"]
    if got["matrix_size"] != m:
        return f"matrix_size {got['matrix_size']}, expected {m}"
    first, second = got["best_partition"]
    if (sorted(first + second) != list(range(m)) or not first
            or first[0] != 0 or first != sorted(first)
            or second != sorted(second)):
        return f"best_partition {got['best_partition']} is not a partition"
    hist = {int(k): v for k, v in got["per_size_histogram"].items()}
    balances = set(range(m // 2 + 1))
    if exp["sample"] is None:
        if not (got["exhaustive"] and got["partitions_examined"]
                == 1 << (m - 1) and set(hist) == balances):
            return "exhaustive search did not cover every partition"
    elif got["exhaustive"] or got["partitions_examined"] != exp["sample"] \
            or not set(hist) <= balances:
        return "sampled search reported the wrong coverage"
    if got["best_value"] != min(hist.values()):
        return "best_value is not the histogram minimum"
    frame = numpy.array(exp["frame"])
    k = float(frame[:, 0] @ frame[:, 0])
    base = 2.0 * (frame @ frame.T) / k - numpy.eye(m)

    def value(s, c):
        return max(_spectral_norm(base[numpy.ix_(s, s)]),
                   _spectral_norm(base[numpy.ix_(c, c)]))

    if not _close(value(first, second), got["best_value"]):
        return (f"best_value {got['best_value']} but the partition gives "
                f"{value(first, second)}")
    if m <= RECHECK_ROWS:
        every = []
        for mask in range(1 << (m - 1)):
            s = [0] + [i for i in range(1, m) if mask >> (i - 1) & 1]
            c = [i for i in range(1, m) if not mask >> (i - 1) & 1]
            every.append((value(s, c), s, c))
        low = min(v for v, _, _ in every)
        best = min(s for v, s, _ in every if v <= low + PAVE_TOL)
        if first != best:
            return f"best_partition starts {first}, recomputed {best}"
        for balance, got_v in hist.items():
            want_v = min(v for v, s, c in every
                         if min(len(s), len(c)) == balance)
            if not _close(got_v, want_v):
                return (f"histogram at {balance} is {got_v}, "
                        f"recomputed {want_v}")
    pinned = pins.get("jobs", {}).get(job["id"])
    if pinned is not None:
        for key in ("matrix_id", "best_partition", "partitions_examined",
                    "exhaustive"):
            if got[key] != pinned[key]:
                return f"{key} differs from the pinned result"
        want = pinned["per_size_histogram"]
        if set(hist) != {int(k) for k in want} or not all(
                _close(hist[int(k)], v) for k, v in want.items()) or (
                not _close(got["best_value"], pinned["best_value"])):
            return "paving values differ from the pinned result"
    return None


_CHECKS = {"construct": _construct, "report": _report, "stdout": _stdout,
           "pave": _pave}


def pin_record(job: dict, stdout: str, out_bytes: bytes | None) -> tuple:
    """What ``pins.json`` keeps for a job that passed its checks:
    ("construct", argv key, digest) or ("jobs", job id, fields)."""
    kind = job["expect"]["check"]
    if kind == "construct":
        data = out_bytes if job["expect"]["out"] else stdout.encode("utf-8")
        return "construct", job["expect"]["pin"], digest(data)
    if kind == "report":
        got = json.loads(stdout)
        got.pop("approximate", None)
        return "jobs", job["id"], got
    if kind == "pave":
        return "jobs", job["id"], json.loads(stdout)
    return None
