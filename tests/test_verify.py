"""Exact property certification: unitarity, tightness, hyperplane bases,
unbiased pairs, and the float cross-checks behind every exact pass."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from exactframes import _kernel, cli, paving
from exactframes._kernel import add_terms, dot_terms, graded, neg_terms
from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError)
from exactframes.io import deserialize, serialize
from exactframes.matrices import ExactMatrix, block_diag, vstack
from exactframes.radicals import RadicalScalar, make, sqrt_rational
from exactframes.two_tight import (ap_two_tight, make_two_row_table,
                                   weight_in_front)
from exactframes.unitary import constant_first_row, two_constant_diag
from exactframes.verify import (MatrixProperty, check_equal_norm_rows,
                                check_hyperplane_basis,
                                check_orthogonal_columns, check_tight_frame,
                                check_unbiased_pair, check_unitary)

from hyperplane_reference import reference_check
from kernel_reference import make_terms


def gram_float_residual(m, k=1):
    rows = m.to_float_rows()
    n = len(rows[0])
    worst = 0.0
    for i in range(n):
        for j in range(n):
            s = sum(r[i] * r[j] for r in rows)
            s -= k if i == j else 0
            worst = max(worst, abs(s))
    return worst


def test_unitary_identity():
    r = check_unitary(ExactMatrix.identity(5))
    assert r.passed and r.witness is None
    assert r.prop is MatrixProperty.UNITARY


def test_unitary_shifted_sign_matrix():
    third = Fraction(1, 3)
    m = ExactMatrix([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]).scale(third)
    r = check_unitary(m)
    assert r.passed
    assert gram_float_residual(m) <= 1e-10


def test_unitary_failure_witness_position():
    half = Fraction(1, 2)
    bad = ExactMatrix([[1, 1, 1, 1],
                       [1, 1, -1, -1],
                       [1, -1, -1, -1],
                       [1, -1, 1, -1]]).scale(half)
    r = check_unitary(bad)
    assert not r.passed
    assert (r.witness.i, r.witness.j) == (1, 3)
    assert r.witness.residual == "-1/2"
    assert r.witness.kind == "row_inner_product"


def test_unitary_norm_defect_witness():
    r = check_unitary(ExactMatrix([[1, 1], [1, -1]]))
    assert not r.passed
    assert (r.witness.i, r.witness.j) == (1, 1)
    assert r.witness.residual == "1"


def test_unitary_rejects_nonsquare():
    with pytest.raises(DimensionError):
        check_unitary(ExactMatrix([[1, 0, 0], [0, 1, 0]]))


def test_unitary_implies_tight_k1():
    m = ExactMatrix([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]).scale(
        Fraction(1, 3))
    r = check_tight_frame(m)
    assert r.passed and r.k_value == 1 and r.unit_rows


def test_tight_frame_k2():
    from exactframes.matrices import vstack
    s = Fraction(1, 4)
    top = ExactMatrix(
        [[make((-1 if i == j else 1) * s, 7 - 2 * j) for j in range(4)]
         for i in range(4)])
    m = vstack(top, top.reverse_both())
    r = check_tight_frame(m)
    assert r.passed and r.k_value == 2 and r.unit_rows
    assert gram_float_residual(m, 2) <= 1e-10


def test_tight_frame_failure_and_k_from_first_column():
    r = check_tight_frame(ExactMatrix([[1, 0], [1, 0], [0, 1]]))
    assert not r.passed
    assert r.witness.kind == "column_inner_product"
    assert (r.witness.i, r.witness.j) == (2, 2)
    assert r.witness.residual == "-1"


def test_tight_frame_rejects_wide():
    with pytest.raises(DimensionError):
        check_tight_frame(ExactMatrix([[1, 0, 0]]))


def test_tight_frame_unit_rows_flag():
    m = ExactMatrix([[1, 1], [1, -1]])
    r = check_tight_frame(m)
    assert r.passed and r.k_value == 2 and not r.unit_rows


def test_orthogonal_columns():
    r = check_orthogonal_columns(ExactMatrix([[1, 1], [1, -1], [0, 0]]))
    assert r.passed
    r = check_orthogonal_columns(ExactMatrix([[1, 1], [1, 1]]))
    assert not r.passed and r.witness.kind == "column_inner_product"
    assert (r.witness.i, r.witness.j) == (1, 2)


def test_equal_norm_rows():
    assert check_equal_norm_rows(ExactMatrix([[3, 4], [5, 0]])).passed
    r = check_equal_norm_rows(ExactMatrix([[1, 0], [1, 1]]))
    assert not r.passed
    assert (r.witness.i, r.witness.j) == (1, 2)
    assert r.witness.residual == "1"


def parallel(u, v):
    pivot = next(i for i, c in enumerate(v) if c)
    if not u[pivot]:
        return False
    ratio = Fraction(u[pivot], v[pivot])
    return all(u[i] == ratio * v[i] for i in range(len(v)))


@pytest.mark.parametrize("rows,normal", (
    ([[1, 1]], (1, -1)),
    ([[1, 2, 1], [0, -1, 2]], (-5, 2, 1)),
    ([[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]], (1, 1, -1, -1)),
))
def test_hyperplane_basis_normals(rows, normal):
    r = check_hyperplane_basis(ExactMatrix(rows))
    assert r.passed
    assert parallel(r.normal, tuple(Fraction(c) for c in normal))
    # primitive integer vector with positive free coordinate
    assert all(c.denominator == 1 for c in r.normal)
    assert r.normal[-1] > 0
    assert "approximate" not in r.to_json_dict()


def orthogonal_rows(rng, count, n, lead_zero=False):
    """``count`` random nonzero, pairwise orthogonal integer rows of
    length ``n`` (Gram-Schmidt with cleared denominators); with
    ``lead_zero`` every row has first coordinate 0."""
    start = 1 if lead_zero else 0
    while True:
        rows = []
        for _ in range(count):
            v = [Fraction(0)] * start + [Fraction(rng.randint(-4, 4))
                                         for _ in range(n - start)]
            for r in rows:
                f = sum(a * b for a, b in zip(v, r)) / sum(a * a for a in r)
                v = [a - f * b for a, b in zip(v, r)]
            if not any(v):
                break
            den = math.lcm(*(a.denominator for a in v))
            rows.append([a * den for a in v])
        else:
            return rows


def assert_primitive_normal(r, rows):
    """``r.normal`` is the primitive integer vector with positive last
    nonzero coordinate spanning sympy's nullspace of ``rows``."""
    (vec,) = sympy.Matrix(rows).nullspace()
    vec = [Fraction(str(v)) for v in vec]
    assert parallel(r.normal, vec)
    assert all(c.denominator == 1 for c in r.normal)
    assert math.gcd(*(int(c) for c in r.normal)) == 1
    assert next(c for c in reversed(r.normal) if c) > 0
    assert r.passed == all(v != 0 for v in vec)
    if not r.passed:
        assert r.witness.kind == "normal_zero_coordinate"
        first_zero = next(j for j, v in enumerate(vec) if v == 0)
        assert (r.witness.i, r.witness.j) == (1, first_zero + 1)


def test_hyperplane_normal_matches_sympy_nullspace():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 5)
        while True:
            rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)]
                    for _ in range(n - 1)]
            if all(any(row) for row in rows) and \
                    sympy.Matrix(rows).rank() == n - 1:
                break
        r = check_hyperplane_basis(ExactMatrix(rows))
        rows_orthogonal = all(
            sum(a * b for a, b in zip(rows[i], rows[j])) == 0
            for i in range(n - 1) for j in range(i + 1, n - 1))
        if not rows_orthogonal:
            assert not r.passed
            assert r.witness.kind == "row_inner_product"
            continue
        assert_primitive_normal(r, rows)
    for _ in range(25):
        n = rng.randint(2, 6)
        # generic orthogonal rows, mostly passing
        rows = orthogonal_rows(rng, n - 1, n)
        assert_primitive_normal(
            check_hyperplane_basis(ExactMatrix(rows)), rows)
        # first column zero in every row: the normal is e_1
        rows = orthogonal_rows(rng, n - 1, n, lead_zero=True)
        r = check_hyperplane_basis(ExactMatrix(rows))
        assert r.normal == (1,) + (0,) * (n - 1)
        assert_primitive_normal(r, rows)
        # e_1 is a row: the normal's first coordinate is 0, so the
        # projection of e_1 vanishes and a later coordinate is used
        rows = [[1] + [0] * (n - 1)] + orthogonal_rows(rng, n - 2, n,
                                                       lead_zero=True)
        r = check_hyperplane_basis(ExactMatrix(rows))
        assert r.normal[0] == 0 and (r.witness.i, r.witness.j) == (1, 1)
        assert_primitive_normal(r, rows)


def test_hyperplane_zero_coordinate_fails():
    r = check_hyperplane_basis(ExactMatrix([[1, 0, 0], [0, 1, 0]]))
    assert not r.passed
    assert r.witness.kind == "normal_zero_coordinate"
    assert r.witness.i == 1
    assert r.normal == (0, 0, 1)


def test_hyperplane_zero_row_fails():
    r = check_hyperplane_basis(ExactMatrix([[1, -1, 0], [0, 0, 0]]))
    assert not r.passed
    assert r.witness.to_json_dict() == {
        "kind": "zero_row", "i": 2, "j": 2, "residual": "0"}


def test_hyperplane_nonorthogonal_rows_fail():
    r = check_hyperplane_basis(ExactMatrix([[1, 1, 0], [1, 0, 1]]))
    assert not r.passed
    assert r.witness.kind == "row_inner_product"


def test_hyperplane_rejects_bad_shape():
    with pytest.raises(DimensionError):
        check_hyperplane_basis(ExactMatrix.identity(3))


def test_hyperplane_irrational_entries_fall_back_to_float():
    c = sqrt_rational(Fraction(1, 2))
    m = ExactMatrix([[c, c, 0], [make(Fraction(1, 2), 2),
                     make(Fraction(-1, 2), 2), 0]])
    r = check_hyperplane_basis(m)
    assert not r.passed  # normal (0,0,1) has zero coordinates
    assert r.witness.kind == "normal_zero_coordinate"
    assert (r.witness.i, r.witness.j) == (1, 1)
    assert r.normal == (0, 0, 1)


def test_hyperplane_irrational_pass_is_flagged():
    c = sqrt_rational(Fraction(1, 2))
    m = ExactMatrix([[c, c]])
    r = check_hyperplane_basis(m)
    assert r.passed
    assert r.normal == (-1, 1)
    assert "approximate" not in r.to_json_dict()


def test_hyperplane_irrational_normal_passes_without_normal():
    s2 = make(1, 2)
    m = ExactMatrix([[1, 0, -1], [-s2, 2, -s2]])  # normal (1, sqrt 2, 1)
    r = check_hyperplane_basis(m)
    assert r.passed and r.witness is None
    assert r.normal is None
    assert r.to_json_dict() == {"passed": True,
                                "property": "hyperplane_basis"}


def test_hyperplane_irrational_row_norm_is_a_domain_error():
    m = ExactMatrix([[1, 0, 0], [0, 1 + sqrt_rational(2), 1]])
    with pytest.raises(DomainError, match="row 2 has irrational squared"):
        check_hyperplane_basis(m)


def test_hyperplane_rows_of_two_radicands_scan_their_terms():
    # rows of several radicands keep the term path: the witness and its
    # residual are those of the term-tuple reference
    s2, s3 = make(1, 2), make(1, 3)
    m = ExactMatrix([[1, s2, 0, 1], [s2, 1 + s3, 1, 0], [0, 0, s3, 2]])
    r = check_hyperplane_basis(m)
    assert r == reference_check(m)
    assert r.witness.to_json_dict() == {
        "kind": "row_inner_product", "i": 1, "j": 2,
        "residual": "2*sqrt(2) + sqrt(6)"}


def test_unbiased_pair_identity_vs_sign_core():
    half = Fraction(1, 2)
    b2 = ExactMatrix([[-1, 1, 1, 1], [1, -1, 1, 1],
                      [1, 1, -1, 1], [1, 1, 1, -1]]).scale(half)
    r = check_unbiased_pair(ExactMatrix.identity(4), b2)
    assert r.passed and r.prop is MatrixProperty.UNBIASED_PAIR


def test_unbiased_pair_identity_vs_itself_fails():
    r = check_unbiased_pair(ExactMatrix.identity(4), ExactMatrix.identity(4))
    assert not r.passed
    assert r.witness.kind == "cross_product_squared"
    assert (r.witness.i, r.witness.j) == (1, 1)
    assert r.witness.residual == "3/4"


def test_unbiased_pair_precondition_names_input():
    skew = ExactMatrix([[1, 1], [0, 1]])
    with pytest.raises(PreconditionError, match="first"):
        check_unbiased_pair(skew, ExactMatrix.identity(2))
    with pytest.raises(PreconditionError, match="second"):
        check_unbiased_pair(ExactMatrix.identity(2), skew)
    with pytest.raises(DimensionError):
        check_unbiased_pair(ExactMatrix.identity(2), ExactMatrix.identity(3))


def test_report_json_shapes():
    r = check_tight_frame(ExactMatrix([[1, 1], [1, -1]]))
    d = r.to_json_dict()
    assert d["passed"] and d["property"] == "tight_frame"
    assert d["k"] == "2" and d["unit_rows"] is False
    r = check_unitary(ExactMatrix([[1, 1], [1, -1]]))
    d = r.to_json_dict()
    assert not d["passed"]
    assert d["witness"] == {"kind": "row_inner_product", "i": 1, "j": 1,
                            "residual": "1"}


# ---------------------------------------------------------------------------
# the graded Gram against the pair-by-pair scan it replaced

# squarefree radicands with shared prime factors, so that different
# pairs of radicands fold onto one core (sqrt(2)*sqrt(15) and
# sqrt(6)*sqrt(5) both give sqrt(30))
POOL = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 42)
_ONE = make_terms(1, 1, 1)


def _scan_witness(rows, kind, diag):
    """The first mismatch of the Gram of ``rows`` against ``diag * I``
    (only off the diagonal when ``diag`` is None), scanned pair by
    pair: the oracle."""
    for i in range(len(rows)):
        for j in range(i + (diag is None), len(rows)):
            got = dot_terms(rows[i], rows[j])
            want = diag if i == j else ()
            if got != want:
                diff = add_terms(got, neg_terms(want))
                return {"kind": kind, "i": i + 1, "j": j + 1,
                        "residual": str(RadicalScalar._raw(diff))}
    return None


def reference_report(a, check):
    """``check_<check>(a).to_json_dict()`` as the scan computes it."""
    if check == "unitary":
        w = _scan_witness(a._data, "row_inner_product", _ONE)
        out = {"passed": w is None, "property": "unitary"}
    elif check == "orthogonal_columns":
        w = _scan_witness(a.transpose()._data, "column_inner_product",
                          None)
        out = {"passed": w is None, "property": "orthogonal_columns"}
    else:
        cols = a.transpose()._data
        k = dot_terms(cols[0], cols[0])
        if len(k) != 1 or k[0][0] != 1 or k[0][1] <= 0:
            return {"passed": False, "property": "tight_frame",
                    "witness": {"kind": "column_norm_squared", "i": 1,
                                "j": 1,
                                "residual": str(RadicalScalar._raw(k))}}
        w = _scan_witness(cols, "column_inner_product", k)
        out = {"passed": w is None, "property": "tight_frame",
               "k": str(Fraction(k[0][1], k[0][2]))}
        if w is None:
            out["unit_rows"] = all(dot_terms(r, r) == _ONE for r in a._data)
    if w is not None:
        out["witness"] = w
    return out


CHECKS = {"unitary": check_unitary, "tight_frame": check_tight_frame,
          "orthogonal_columns": check_orthogonal_columns}


def assert_matches_scan(a):
    for name, check in CHECKS.items():
        if name == "unitary" and not a.is_square:
            continue
        if name == "tight_frame" and a.rows < a.cols:
            continue
        assert check(a).to_json_dict() == reference_report(a, name), name


def random_scalar(rng, big=False):
    top = 10 ** 30 if big else 5
    value = RadicalScalar(0)
    for _ in range(rng.randint(1, 3)):
        num = rng.choice((-1, 1)) * rng.randint(1, top)
        value = value + make(Fraction(num, rng.randint(1, 6)),
                             rng.choice(POOL))
    return value


def random_matrix(rng, big=False):
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    return ExactMatrix([[random_scalar(rng, big) if rng.random() < 0.7
                         else 0 for _ in range(cols)] for _ in range(rows)])


def kron(a, b):
    return ExactMatrix([[a.entry(i, j) * b.entry(k, m)
                         for j in range(a.cols) for m in range(b.cols)]
                        for i in range(a.rows) for k in range(b.rows)])


def rotation(c, s):
    return ExactMatrix([[c, s], [-s, c]])


# exact (cos, sin) pairs; the last has coefficients near 10^30
# (Euclid's formula with m = 10^15 + 3, n = 10^15)
_M, _N = 10 ** 15 + 3, 10 ** 15
UNIT_PAIRS = [
    (make(Fraction(1, 2), 3), RadicalScalar(Fraction(1, 2))),
    (make(Fraction(1, 2), 2), make(Fraction(1, 2), 2)),
    (make(Fraction(1, 4), 6) + make(Fraction(1, 4), 2),
     make(Fraction(1, 4), 6) - make(Fraction(1, 4), 2)),
    (RadicalScalar(Fraction(3, 5)), RadicalScalar(Fraction(4, 5))),
    (RadicalScalar(Fraction(_M * _M - _N * _N, _M * _M + _N * _N)),
     RadicalScalar(Fraction(2 * _M * _N, _M * _M + _N * _N))),
]


def signed_permutation(a, rng):
    rows = list(range(a.rows))
    cols = list(range(a.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    signs = [rng.choice((-1, 1)) for _ in cols]
    return ExactMatrix([[a.entry(i, j) * s for j, s in zip(cols, signs)]
                        for i in rows])


def random_unitary(rng, pairs=UNIT_PAIRS):
    """A signed permutation of a block diagonal of Kronecker products
    of exact rotations, with a constant-first-row block: entries carry
    up to four radicands, and up to 12 rows."""
    u = rotation(*rng.choice(pairs))
    for _ in range(rng.randint(0, 2)):
        u = kron(u, rotation(*rng.choice(pairs)))
    blocks = [u]
    if u.rows < 8 and rng.random() < 0.7:
        blocks.append(constant_first_row(rng.randint(2, 12 - u.rows)))
    return signed_permutation(block_diag(blocks), rng)


def with_doubled_entry(a, i, j):
    return ExactMatrix([[a.entry(r, c) * (2 if (r, c) == (i, j) else 1)
                         for c in range(a.cols)] for r in range(a.rows)])


def defects(a, rng):
    """``a``, copies with one entry doubled (in the first row, the last
    row and anywhere), and a copy with its last row doubled, which on
    an orthonormal basis only the last diagonal entry reveals."""
    yield a
    for r in (0, a.rows - 1, rng.randrange(a.rows)):
        nonzero = [c for c in range(a.cols) if a.entry(r, c)]
        if nonzero:
            yield with_doubled_entry(a, r, rng.choice(nonzero))
    yield ExactMatrix([a.row(i) for i in range(a.rows - 1)]
                      + [[2 * x for x in a.row(a.rows - 1)]])


def test_gram_path_reaches_the_size_cut(gram_path, monkeypatch):
    # graded_only must force the graded Gram on a 2 x 2 input, or the
    # tests that take gram_path run the scan twice
    built = []

    class Counted(graded._Graded):
        def __init__(self, rows) -> None:
            built.append(len(rows))
            super().__init__(rows)

    monkeypatch.setattr(graded, "_Graded", Counted)
    rows = ExactMatrix([[1, make(1, 2)], [make(1, 2), -1]])._data
    want = [2] if gram_path == "graded_only" else []
    assert _kernel.gram_mismatch(rows, (3, 1)) is None
    assert built == want
    built.clear()
    three = ((1, 3, 1),)
    assert _kernel.gram_terms(rows, 1, 1) == ((three, ()), ((), three))
    assert built == want


@pytest.mark.parametrize("seed", range(6))
def test_graded_gram_matches_scan_on_random_matrices(seed, gram_path):
    rng = random.Random(seed)
    for _ in range(12):
        assert_matches_scan(random_matrix(rng, big=rng.random() < 0.3))


@pytest.mark.parametrize("seed", range(6))
def test_graded_gram_matches_scan_on_unitaries_and_frames(seed, gram_path):
    rng = random.Random(100 + seed)
    for _ in range(3):
        u = random_unitary(rng)
        # orthogonal columns of different squared norms
        scaled = ExactMatrix([[u.entry(i, j) * (j + 1) for j in range(u.cols)]
                              for i in range(u.rows)])
        # two orthonormal bases stacked: a 2-tight frame
        frame = vstack(u, signed_permutation(u, rng))
        for base in (u, scaled, frame):
            for a in defects(base, rng):
                assert_matches_scan(a)


@pytest.mark.parametrize("pair", (3, 2), ids=("one_radicand", "folded"))
def test_graded_gram_matches_scan_across_blocks(pair):
    # 70 rows are taken in blocks of 58, so a defect in the last 12 rows
    # is found after the first block passes
    rng = random.Random(11 + pair)
    a = block_diag([
        signed_permutation(constant_first_row(58), rng),
        kron(rotation(*UNIT_PAIRS[pair]),
             signed_permutation(constant_first_row(6), rng))])
    assert graded._Graded(a._data).block == 58
    c = next(c for c in range(58, 70) if a.entry(64, c))
    last = list(defects(a, rng))[-1]
    # a zero row has no diagonal entry in the graded Gram's stream
    zero_row = ExactMatrix([[0] * a.cols if i == 64 else a.row(i)
                            for i in range(a.rows)])
    for b in (a, with_doubled_entry(a, 64, c), last, zero_row):
        assert_matches_scan(b)


def test_graded_gram_matches_scan_on_family_frames(gram_path):
    rng = random.Random(7)
    for frame in (ap_two_tight(3, 4), ap_two_tight(Fraction(1, 3), 2),
                  kron(ap_two_tight(1, 2), ExactMatrix.identity(2)),
                  two_constant_diag(9)):
        for a in defects(signed_permutation(frame, rng), rng):
            assert_matches_scan(a)


def test_graded_gram_folds_cancelling_pairs_of_radicands(gram_path):
    # sqrt(2)*sqrt(15) - sqrt(6)*sqrt(5) + sqrt(3)*sqrt(10) - 1*sqrt(30)
    # is 0: four pairs of radicands fold onto core 30 and cancel
    u = [make(1, 2), make(1, 6), make(1, 3), make(1, 1)] * 3
    v = [make(1, 15), make(-1, 5), make(1, 10), make(-1, 30)] * 3
    zero = [0] * 12
    m = ExactMatrix([zero, u, zero, v] + [zero] * 8).transpose()
    # rows of several radicands, expanded and folded, not packed
    rows = graded._Graded(m.transpose()._data)
    expanded = rows.e_row.tolist()
    assert len(set(expanded)) < len(expanded) and rows.packs is None
    assert check_orthogonal_columns(m).passed
    v[-1] = make(1, 30)
    m = ExactMatrix([zero, u, zero, v] + [zero] * 8).transpose()
    assert check_orthogonal_columns(m).witness.to_json_dict() == {
        "kind": "column_inner_product", "i": 2, "j": 4,
        "residual": "2*sqrt(30)"}
    assert_matches_scan(m)


@pytest.mark.parametrize("over", (False, True))
def test_graded_gram_object_path_past_the_int64_bound(over, gram_path):
    """x times a 12 x 12 signed permutation: its columns' Gram is x^2 I,
    and x is the first value (or the last one before it) whose bound
    x^2 * 12 columns * 2 reaches 2^63."""
    x = math.isqrt((2 ** 63 - 1) // 24) + over
    rng = random.Random(3)
    a = signed_permutation(ExactMatrix.identity(12).scale(x), rng)
    cols = a.transpose()._data
    [(left, _, _)] = graded._Graded(cols).packs
    assert left.dtype == (object if over else graded.np.int64)
    for b in defects(a, rng):
        report = check_tight_frame(b)
        assert report.to_json_dict() == reference_report(b, "tight_frame")
    assert check_tight_frame(a).k_value == x * x


def test_column_gram_of_a_read_back_unitary_stays_in_int64(monkeypatch):
    """The columns of constant_first_row(128) read back from a file carry
    one radicand each and about 120 denominators per row: their Gram is
    made of int64 products only, for orthogonal columns and for the
    witness of a failing tight check, and a doubled entry gives the pair
    scan's witness.  A square tight check is proven on the row Gram, one
    pack, and builds the columns' Gram only when that fails."""
    m = deserialize(serialize(constant_first_row(128)))
    built = []

    class Seen(graded._Graded):
        def __init__(self, rows) -> None:
            super().__init__(rows)
            built.append(self)

    monkeypatch.setattr(graded, "_Graded", Seen)
    assert check_orthogonal_columns(m).passed
    tight = check_tight_frame(m)
    assert tight.passed and tight.k_value == 1 and tight.unit_rows
    assert [len(g.packs) > 1 for g in built] == [True, False]
    # column 90's products with the columns of block 1 (rows 32-63 of
    # the column Gram) change
    bad = with_doubled_entry(m, 40, 90)
    checks = (check_orthogonal_columns, check_tight_frame)
    got = [check(bad).to_json_dict() for check in checks]
    assert [len(g.packs) > 1 for g in built] == [True, False, True, False,
                                                 True]
    for g in built:
        assert all(a.dtype == graded.np.int64
                   for left, right, _ in g.packs for a in (left, right))
    monkeypatch.setattr(_kernel, "_SCAN_BELOW", 128 ** 3)
    assert got == [check(bad).to_json_dict() for check in checks]
    for report in got:
        assert not report["passed"]
        assert 32 <= report["witness"]["i"] - 1 < 64


@pytest.mark.parametrize("seed", range(6))
def test_square_tight_check_matches_the_column_gram(seed, gram_path,
                                                   monkeypatch):
    """A square tight check is proven on the row Gram and reads the
    column Gram only to name a failure's witness: its reports are the
    column scan's on tight, scaled-orthogonal and defective inputs, and
    a passing one never reads the columns' Gram."""
    rng = random.Random(300 + seed)
    grams = []
    real = _kernel.gram_mismatch
    monkeypatch.setattr(
        _kernel, "gram_mismatch",
        lambda rows, diag: grams.append(type(rows)) or real(rows, diag))
    for _ in range(3):
        u = random_unitary(rng)
        n = u.rows
        c = rng.choice((make(1, 2), RadicalScalar(3), make(Fraction(1, 3), 6)))
        tight = u.scale(c)
        # rows and columns of several squared norms: A A^T and A^T A are
        # diagonal, and not k I
        scaled = ExactMatrix([[u.entry(i, j) * (j + 1) for j in range(n)]
                              for i in range(n)])
        rows = ExactMatrix([[u.entry(i, j) * (i + 1) for j in range(n)]
                            for i in range(n)])
        for base in (tight, scaled, rows):
            for a in defects(base, rng):
                grams.clear()
                report = check_tight_frame(a).to_json_dict()
                assert report == reference_report(a, "tight_frame")
                if report["passed"]:
                    assert _kernel.Columns not in grams
                elif "k" in report:
                    assert grams[-1] is _kernel.Columns


def test_tight_frames_are_taken_apart_once(monkeypatch, tmp_path, capsys):
    """The 128 x 64 weight-in-front frame is taken apart at most once in
    all, not once a call: as built (its builder hands its split over)
    never, and read back from either exact format once, by its tight
    check, whose column Gram and row norms read the same split, by
    ``gram_projection`` and by a second tight check together;
    ``unit_rows`` makes no ``dot_terms`` call, the one call being the
    first column's squared norm.  ``pave`` takes a file apart once for
    its tight report and its Gram."""
    splits, calls = [], []
    real_split, real_dot = _kernel._split, _kernel.dot_terms
    monkeypatch.setattr(_kernel, "_split",
                        lambda rows: splits.append(1) or real_split(rows))
    monkeypatch.setattr(_kernel, "dot_terms",
                        lambda u, v: calls.append(1) or real_dot(u, v))
    frame = weight_in_front(make_two_row_table(
        [7, 1, 19, 4, 12, 9, 23, 2] * 4, 24))
    assert frame.shape == (128, 64) and not _kernel._small(frame._data)
    assert splits == []
    texts = {fmt: serialize(frame, fmt) for fmt in ("exact-json", "csv")}
    for again in (frame, *map(deserialize, texts.values())):
        takes = 0 if again is frame else 1
        splits.clear()
        calls.clear()
        report = check_tight_frame(again)
        assert report.passed and report.k_value == 2 and report.unit_rows
        assert (len(splits), len(calls)) == (takes, 1)
        paving.gram_projection(again, 2)
        assert check_tight_frame(again) == report
        assert len(splits) == takes
    for fmt, text in texts.items():
        path = tmp_path / f"frame.{fmt}"
        path.write_text(text)
        splits.clear()
        assert cli.main(["pave", str(path), "--sample", "2"]) == 0
        assert len(splits) == 1
    capsys.readouterr()


def test_graded_gram_of_many_radicands_stays_small(monkeypatch):
    """A 32 x 32 CSV of square roots of distinct odd primes carries 1024
    radicands: the graded Gram takes each product's core from its own
    radicands, with no table of pairs of radicands, gives the pair
    scan's reports, and each check's traced peak stays under 8 MiB."""
    primes = [p for p in range(3, 9000, 2)
              if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    cells = iter(primes[:32 * 32])
    m = deserialize("\n".join(",".join(f"sqrt({next(cells)})"
                                        for _ in range(32))
                               for _ in range(32)))
    checks = (check_unitary, check_orthogonal_columns)
    got = []
    for check in checks:
        tracemalloc.start()
        try:
            got.append(check(m).to_json_dict())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
    monkeypatch.setattr(_kernel, "_SCAN_BELOW", 32 ** 3)
    assert got == [check(m).to_json_dict() for check in checks]
    for report in got:
        assert not report["passed"]
