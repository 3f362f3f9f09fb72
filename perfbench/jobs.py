"""Seeded job lists for the four benchmark workloads.

A job is one CLI call: ``{"id", "tier", "argv", "expect"}``.  ``argv`` is
what ``exactframes.cli.main`` receives, with file names relative to the
run's work directory, and ``expect`` says how the runner checks the
outcome.  Input matrices are built with the library's constructors and
written here by an independent writer, so the program only ever sees
files and argv.

Every job list has a fixed shape (families, sizes, formats and scan
positions of planted defects); the seed varies the content: signed
permutations, weight tables, progression parameters, which entries are
written with non-squarefree radicands and the order of the small tier.
Keeping the shape fixed keeps the cost of a pass the same from seed to
seed, so runs on different seeds can be compared.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import exactframes as ef

DEFAULT_SEED = 0

# share of written terms that carry a non-squarefree radicand
NONSQUAREFREE_SHARE = 0.2


# ---------------------------------------------------------------------------
# matrices as lists of rows of term lists [(radicand, Fraction)]


def terms_of(m: ef.ExactMatrix) -> list:
    return [[list(m.entry(i, j).terms) for j in range(m.cols)]
            for i in range(m.rows)]


def support(mat: list) -> list:
    return [[bool(t) for t in row] for row in mat]


def signed_permutation(mat: list, rng: random.Random, row_order=None,
                       col_order=None, signs=None) -> tuple:
    """Reorder rows, reorder and sign-flip columns; what is not given is
    drawn from ``rng``.

    Returns the new matrix, ``col_order`` and ``signs``: new column ``j``
    is ``signs[j]`` times old column ``col_order[j]``.
    """
    if row_order is None:
        row_order = rng.sample(range(len(mat)), len(mat))
    if col_order is None:
        col_order = rng.sample(range(len(mat[0])), len(mat[0]))
    if signs is None:
        signs = [rng.choice((1, -1)) for _ in col_order]
    out = [[[(r, q * sign) for r, q in mat[i][j]]
            for j, sign in zip(col_order, signs)] for i in row_order]
    return out, col_order, signs


def double_entry(mat: list, r: int, c: int) -> list:
    out = [list(row) for row in mat]
    out[r][c] = [(rad, 2 * q) for rad, q in mat[r][c]]
    return out


def double_row(mat: list, r: int) -> list:
    out = list(mat)
    out[r] = [[(rad, 2 * q) for rad, q in t] for t in mat[r]]
    return out


def _written_terms(terms: list, rng: random.Random, share: float) -> list:
    """Terms as written: a seeded share as ``q/k * sqrt(rad * k^2)``."""
    out = []
    for rad, q in terms:
        if rng.random() < share:
            k = rng.choice((2, 3))
            rad, q = rad * k * k, q / k
        out.append((rad, q))
    return out


def _cell_text(terms: list) -> str:
    if not terms:
        return "0"
    parts = []
    for rad, q in terms:
        mag = abs(q)
        if parts:
            parts.append(" - " if q < 0 else " + ")
        elif q < 0:
            parts.append("-")
        text = str(mag.numerator) if mag.denominator == 1 else (
            f"{mag.numerator}/{mag.denominator}")
        parts.append(text if rad == 1 else f"{text}*sqrt({rad})")
    return "".join(parts)


def write_matrix(path: str, mat: list, fmt: str, rng: random.Random,
                 share: float = NONSQUAREFREE_SHARE) -> None:
    rows = [[_written_terms(t, rng, share) for t in row] for row in mat]
    if fmt == "csv":
        text = "".join(",".join(_cell_text(t) for t in row) + "\n"
                       for row in rows)
    else:
        entries = [[[{"num": q.numerator, "den": q.denominator, "rad": rad}
                     for rad, q in t] for t in row] for row in rows]
        text = json.dumps({"rows": len(rows), "cols": len(rows[0]),
                           "entries": entries}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def float_rows(mat: list) -> list:
    return [[sum(float(q) * math.sqrt(rad) for rad, q in t) for t in row]
            for row in mat]


# ---------------------------------------------------------------------------
# first witness of a matrix with one entry doubled
#
# The unperturbed matrix passes its check exactly.  Doubling a nonzero
# entry x at (r, c) changes a Gram entry exactly when the other factor
# of that entry's sum is nonzero, and always changes the diagonal
# (x^2 becomes 4x^2), so the first witness in the checker's (i, j) scan
# order follows from the support pattern alone.  Positions are 1-based.


def row_scan_witness(sup: list, r: int, c: int) -> tuple:
    """check_unitary / the hyperplane row scan: pairs i <= j of rows."""
    above = [i for i in range(r) if sup[i][c]]
    return (above[0] + 1, r + 1) if above else (r + 1, r + 1)


def hyperplane_scan_witness(sup: list, r: int, c: int) -> tuple | None:
    """check_hyperplane_basis scans pairs i < j of rows, no diagonal."""
    above = [i for i in range(r) if sup[i][c]]
    if above:
        return (above[0] + 1, r + 1)
    below = [i for i in range(r + 1, len(sup)) if sup[i][c]]
    return (r + 1, below[0] + 1) if below else None


def column_scan_witness(sup: list, r: int, c: int, diag: bool
                        ) -> tuple | None:
    """check_tight_frame (diag) and check_orthogonal_columns (no diag)."""
    left = [j for j in range(c) if sup[r][j]]
    if left:
        return (left[0] + 1, c + 1)
    if diag:
        return (c + 1, c + 1)
    right = [j for j in range(c + 1, len(sup[0])) if sup[r][j]]
    return (c + 1, right[0] + 1) if right else None


def early_defect(mat: list, rng: random.Random, check: str) -> tuple:
    """A nonzero entry whose doubling is caught in the first Gram row."""
    sup = support(mat)
    n_rows, n_cols = len(mat), len(mat[0])
    for _ in range(10000):
        if check == "tight":
            # column 1 fixes k, so perturb columns 2..4 only
            r, c = rng.randrange(n_rows), rng.randrange(1, min(4, n_cols))
        elif check == "orthogonal-columns":
            r, c = rng.randrange(n_rows), rng.randrange(n_cols)
        else:
            r, c = rng.randrange(1, min(8, n_rows)), rng.randrange(n_cols)
        if not sup[r][c]:
            continue
        if check == "unitary":
            w = row_scan_witness(sup, r, c)
        elif check == "hyperplane":
            w = hyperplane_scan_witness(sup, r, c)
        else:
            w = column_scan_witness(sup, r, c, check == "tight")
        if w is not None and w[0] == 1:
            return r, c, w
    raise RuntimeError(f"no early defect found for {check}")


def late_row_order(mat: list, rng: random.Random) -> tuple:
    """Row order and defect column for a unitary check that fails in its
    last rows.

    Takes the column with the fewest nonzeros and moves its rows to the
    end; the defect goes into the last row, so the first changed Gram
    entry pairs two of the last rows.
    """
    sup = support(mat)
    counts = [sum(sup[i][j] for i in range(len(mat)))
              for j in range(len(mat[0]))]
    fewest = min(counts)
    c = rng.choice([j for j, k in enumerate(counts) if k == fewest])
    rows = [i for i in range(len(mat)) if sup[i][c]]
    rng.shuffle(rows)
    rest = [i for i in range(len(mat)) if not sup[i][c]]
    rng.shuffle(rest)
    return rest + rows, c


# ---------------------------------------------------------------------------
# family members


def unitary_family(name: str, n: int) -> ef.ExactMatrix:
    return {"cfr": ef.constant_first_row, "ctr": ef.constant_two_rows,
            "tcd": ef.two_constant_diag}[name](n)


def table_values(rng: random.Random, count: int) -> tuple:
    """Seeded weight-in-front values and pair sum m."""
    values = [rng.randint(1, 24) for _ in range(count)]
    return values, rng.randint(max(values), 30)


def ap_params(rng: random.Random) -> tuple:
    return rng.randint(1, 9), rng.randint(0, 9)


def wif_frame(values, m) -> ef.ExactMatrix:
    return ef.weight_in_front(ef.make_two_row_table(values, m))


class JobList:
    """Accumulates jobs and writes their input files into ``work``."""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.rng = random.Random(seed)
        self.jobs: list = []
        self.files = 0

    def file(self, mat: list, fmt: str,
             share: float = NONSQUAREFREE_SHARE) -> str:
        self.files += 1
        name = f"in{self.files:04d}.{'csv' if fmt == 'csv' else 'json'}"
        write_matrix(os.path.join(self.work, name), mat, fmt, self.rng,
                     share)
        return name

    def add(self, tier: str, argv: list, expect: dict) -> None:
        self.jobs.append({"tier": tier, "argv": [str(a) for a in argv],
                          "expect": expect})

    def finish(self, prefix: str) -> list:
        """Shuffle the small tier, put the touch and large tiers last,
        number the jobs."""
        small = [j for j in self.jobs if j["tier"] == "small"]
        self.rng.shuffle(small)
        jobs = small + [j for j in self.jobs if j["tier"] == "touch"] + [
            j for j in self.jobs if j["tier"] == "large"]
        for k, job in enumerate(jobs):
            job["id"] = f"{prefix}{k:03d}"
        return jobs


FORMATS = ("exact-json", "csv")


_OPTIONS = {"constant-first-row": ("--n",), "constant-two-rows": ("--n",),
            "two-constant-diag": ("--n",), "hyperplane": ("--n",),
            "weight-in-front": ("--values", "--m"),
            "ap-two-tight": ("--a", "--b"), "mub-r4": ()}


def _construct(bld: JobList, tier: str, spec: list, fmt: str,
               out: str | None = None, normalize: bool = False) -> None:
    """A construct job for ``[family, *option values]``, writing to
    ``out``, or to stdout when None."""
    family, *values = spec
    argv = ["construct", family]
    for option, value in zip(_OPTIONS[family], values):
        text = ",".join(map(str, value)) if isinstance(value, list) else value
        argv += [option, str(text)]
    if normalize:
        argv.append("--normalize")
    # construct output depends on argv alone, minus the output file
    pin = " ".join(argv + [fmt])
    argv += ["--format", fmt] + (["--out", out] if out else [])
    bld.add(tier, argv, {"check": "construct", "exit": 0, "fmt": fmt,
                         "out": out, "pin": pin,
                         "bundle": family == "mub-r4"})


# ---------------------------------------------------------------------------
# workloads


def construct_jobs(bld: JobList) -> None:
    rng = bld.rng
    for fmt in FORMATS:
        for n in range(2, 17):
            _construct(bld, "small", ["constant-first-row", n], fmt)
            _construct(bld, "small", ["two-constant-diag", n], fmt)
        for n in range(4, 17, 2):
            _construct(bld, "small", ["constant-two-rows", n], fmt)
        for count in (2, 2, 2, 4, 4, 4):
            _construct(bld, "small", ["weight-in-front",
                                      *table_values(rng, count)], fmt)
        for _ in range(7):
            _construct(bld, "small", ["ap-two-tight", *ap_params(rng)], fmt)
        _construct(bld, "small", ["mub-r4"], fmt)
    _construct(bld, "large", ["constant-first-row", 128], "exact-json",
               "cfr128.json")
    _construct(bld, "large", ["constant-two-rows", 128], "csv", "ctr128.csv")
    _construct(bld, "large", ["two-constant-diag", 128], "exact-json",
               "tcd128.json")
    _construct(bld, "large", ["weight-in-front", *table_values(rng, 32)],
               "csv", "wif128.csv")


def _report_job(bld: JobList, tier: str, mat: list, fmt: str, check: str,
                report: dict, normal=None, normal_optional=False,
                extra_argv=(), share: float = NONSQUAREFREE_SHARE) -> None:
    name = bld.file(mat, fmt, share)
    exit_code = 0 if report["passed"] else 1
    bld.add(tier, ["verify", name, "--check", check, *extra_argv],
            {"check": "report", "exit": exit_code, "report": report,
             "normal": normal, "normal_optional": normal_optional})


_PROPERTY = {"unitary": "unitary", "tight": "tight_frame",
             "orthogonal-columns": "orthogonal_columns",
             "hyperplane": "hyperplane_basis", "mub": "unbiased_pair"}
_KIND = {"unitary": "row_inner_product", "tight": "column_inner_product",
         "orthogonal-columns": "column_inner_product",
         "hyperplane": "row_inner_product"}


def _checked(bld: JobList, tier: str, mat: list, fmt: str, check: str,
             defect: str | None = None) -> None:
    """A verify job on a signed permutation of ``mat``, with an optional
    planted defect: one entry doubled so that the scan catches it in its
    first ("early") or last ("late") rows, or, for unitary checks, the
    last row doubled ("norm"), which only the diagonal reveals."""
    rng = bld.rng
    report = {"passed": True, "property": _PROPERTY[check]}
    if check == "tight":
        report.update(k="2", unit_rows=True)
    if defect == "late":
        order, c0 = late_row_order(mat, rng)
        mat, col_order, _ = signed_permutation(mat, rng, row_order=order)
        r, c = len(mat) - 1, col_order.index(c0)
        w = row_scan_witness(support(mat), r, c)
        mat = double_entry(mat, r, c)
    else:
        mat, _, _ = signed_permutation(mat, rng)
        if defect == "early":
            r, c, w = early_defect(mat, rng, check)
            mat = double_entry(mat, r, c)
        elif defect == "norm":
            w = (len(mat), len(mat))
            mat = double_row(mat, len(mat) - 1)
    if defect is not None:
        report = {"passed": False, "property": _PROPERTY[check],
                  "witness": {"kind": _KIND[check], "i": w[0], "j": w[1]}}
        if check == "tight":
            report["k"] = "2"
    _report_job(bld, tier, mat, fmt, check, report)


def verify_jobs(bld: JobList) -> None:
    rng = bld.rng

    def fmt(k):
        return FORMATS[k % 2]

    k = 0
    for n in range(4, 17):
        cfr, tcd = (terms_of(unitary_family(f, n)) for f in ("cfr", "tcd"))
        _checked(bld, "small", cfr, fmt(k), "unitary")
        _checked(bld, "small", tcd, fmt(k + 1), "unitary",
                 "early" if n % 2 else "norm")
        _checked(bld, "small", cfr, fmt(k + 1), "orthogonal-columns")
        _sparsity(bld, "small", tcd, fmt(k))
        k += 1
    for n in range(4, 17, 2):
        cfr, ctr = (terms_of(unitary_family(f, n)) for f in ("cfr", "ctr"))
        _checked(bld, "small", ctr, fmt(k), "unitary")
        _checked(bld, "small", cfr, fmt(k + 1), "unitary", "late")
        _checked(bld, "small", ctr, fmt(k), "orthogonal-columns", "early")
        _sparsity(bld, "small", cfr, fmt(k + 1))
        k += 1
    for k in range(15):
        if k < 7:
            frame = ef.ap_two_tight(*ap_params(rng))
        else:
            frame = wif_frame(*table_values(rng, 2 if k < 10 else 4))
        defect = "early" if k in (4, 5, 6, 13, 14) else None
        _checked(bld, "small", terms_of(frame), fmt(k), "tight", defect)
    bases = [terms_of(b) for b in ef.mub_r4()]
    for k in range(9):
        i = k % 3
        j = (i + 1 + k % 2) % 3 if k < 6 else i
        _mub(bld, bases[i], bases[j], fmt(k), same=i == j)

    cfr, ctr, tcd = (terms_of(unitary_family(f, 128))
                     for f in ("cfr", "ctr", "tcd"))
    wif = terms_of(wif_frame(*table_values(rng, 32)))
    _checked(bld, "large", cfr, "exact-json", "unitary")
    _checked(bld, "large", ctr, "csv", "unitary")
    _checked(bld, "large", cfr, "csv", "unitary", "late")
    _checked(bld, "large", tcd, "exact-json", "unitary", "early")
    _checked(bld, "large", wif, "csv", "tight")
    _checked(bld, "large", wif, "exact-json", "tight", "early")
    _checked(bld, "large", ctr, "exact-json", "orthogonal-columns")
    _sparsity(bld, "large", tcd, "csv")


def _sparsity(bld: JobList, tier: str, mat: list, fmt: str) -> None:
    mat, _, _ = signed_permutation(mat, bld.rng)
    nnz = sum(map(sum, support(mat)))
    bld.add(tier, ["sparsity", bld.file(mat, fmt)],
            {"check": "stdout", "exit": 0, "stdout": f"{nnz}\n"})


def _mub(bld: JobList, b1: list, b2: list, fmt: str, same: bool,
         tier: str = "small", share: float = NONSQUAREFREE_SHARE) -> None:
    """Two of the three unbiased bases, or one basis twice, under a
    common signed column permutation and separate row orders."""
    b1, cols, signs = signed_permutation(b1, bld.rng)
    b2, _, _ = signed_permutation(b2, bld.rng, col_order=cols, signs=signs)
    report = {"passed": True, "property": "unbiased_pair"}
    if same:
        # every cross product squares to 0 or 1, never 1/4
        report = {"passed": False, "property": "unbiased_pair",
                  "witness": {"kind": "cross_product_squared",
                              "i": 1, "j": 1}}
    _report_job(bld, tier, b1, fmt, "mub", report, share=share,
                extra_argv=("--against", bld.file(b2, fmt, share)))


def _hyperplane(bld: JobList, tier: str, n: int, fmt: str,
                defect: str | None = None, normalize: bool = False) -> None:
    """verify --check hyperplane on build(n) with seeded column signs.

    Columns keep their order: the exact elimination's cost depends on it
    by up to +-30 % at n = 256, which would make the cost of a pass
    depend on the seed."""
    basis = ef.build(n)
    matrix = basis.matrix.normalize_rows() if normalize else basis.matrix
    mat, _, signs = signed_permutation(terms_of(matrix), bld.rng,
                                       row_order=range(n - 1),
                                       col_order=range(n))
    normal = [str(s * c) for s, c in zip(signs, basis.normal)]
    report = {"passed": True, "property": "hyperplane_basis"}
    if defect == "early":
        r, c, (i, j) = early_defect(mat, bld.rng, "hyperplane")
        mat = double_entry(mat, r, c)
        report = {"passed": False, "property": "hyperplane_basis",
                  "witness": {"kind": "row_inner_product", "i": i, "j": j}}
        normal = None
    # normalized rows are irrational: the check has no exact normal today
    _report_job(bld, tier, mat, fmt, "hyperplane", report, normal=normal,
                normal_optional=normalize)


def hyperplane_jobs(bld: JobList) -> None:
    for n in range(5, 17):
        for k, fmt in enumerate(FORMATS):
            _construct(bld, "small", ["hyperplane", n], fmt)
            _hyperplane(bld, "small", n, FORMATS[(n + k) % 2])
            _hyperplane(bld, "small", n, FORMATS[(n + k + 1) % 2])
        _construct(bld, "small", ["hyperplane", n], "exact-json",
                   normalize=True)
        _hyperplane(bld, "small", n, FORMATS[n % 2], defect="early")
        if n % 2:
            _hyperplane(bld, "small", n, FORMATS[n // 2 % 2],
                        normalize=True)
    _construct(bld, "large", ["hyperplane", 128], "csv", "h128.csv")
    _construct(bld, "large", ["hyperplane", 256], "exact-json", "h256.json")
    _hyperplane(bld, "large", 128, "exact-json")
    _hyperplane(bld, "large", 128, "csv")


def _pave(bld: JobList, tier: str, frame: ef.ExactMatrix, fmt: str,
          sample: int | None = None) -> None:
    mat, _, _ = signed_permutation(terms_of(frame), bld.rng)
    argv = ["pave", bld.file(mat, fmt)]
    if sample is not None:
        argv += ["--sample", sample, "--seed", bld.rng.randrange(1000)]
    bld.add(tier, argv, {"check": "pave", "exit": 0, "size": len(mat),
                         "sample": sample, "frame": float_rows(mat)})


def pave_jobs(bld: JobList) -> None:
    rng = bld.rng
    for k in range(100):
        _pave(bld, "small", ef.ap_two_tight(*ap_params(rng)), FORMATS[k % 2])
    # exhaustive: two 16-row frames, 2^15 partitions each
    _pave(bld, "large", wif_frame(*table_values(rng, 4)), "exact-json")
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    _pave(bld, "large", wif_frame([a + 3 * b, a + 2 * b, a + b, a],
                                  a + 3 * b + rng.randint(0, 9)), "csv")
    # sampled: 32 and 64 rows, and 128 rows with a small sample (fails
    # today: numpy cannot draw masks of 127 bits).  The 64- and 128-row
    # weight tables are fixed, because the exact Gram's cost and memory
    # follow the radicands the weights produce; the seed permutes them.
    ap = ef.ap_two_tight(*ap_params(rng))
    _pave(bld, "large", ef.iterate_two_tight(ap, ap).scale(Fraction(1, 2)),
          "exact-json", sample=3000)
    _pave(bld, "large", wif_frame(range(1, 17), 17), "csv", sample=2000)
    _pave(bld, "large", wif_frame(range(1, 33), 33), "exact-json", sample=4)


def touch_jobs(bld: JobList) -> None:
    """Six jobs of a millisecond or so that call every traced layer once,
    so that no per-layer metric of any workload is an unmeasured zero.
    They count in wall_s only."""
    rng = bld.rng
    _construct(bld, "touch", ["constant-first-row", 4], "csv")
    _construct(bld, "touch", ["ap-two-tight", *ap_params(rng)], "exact-json")
    _construct(bld, "touch", ["hyperplane", 5], "csv", normalize=True)
    bases = [terms_of(b) for b in ef.mub_r4()]
    _mub(bld, bases[0], bases[2], "exact-json", same=False, tier="touch",
         share=1.0)
    _checked(bld, "touch", terms_of(ef.constant_two_rows(6)), "csv",
             "orthogonal-columns", "early")
    _pave(bld, "touch", ef.ap_two_tight(*ap_params(rng)), "csv")


WORKLOADS = {
    "construct": construct_jobs,
    "verify": verify_jobs,
    "hyperplane": hyperplane_jobs,
    "pave": pave_jobs,
}


def build_jobs(workload: str, seed: int, work: str) -> list:
    """Write the inputs of ``workload`` at ``seed`` into ``work`` and
    return its job list."""
    bld = JobList(work, seed)
    WORKLOADS[workload](bld)
    touch_jobs(bld)
    return bld.finish(workload[0])
