"""Exact property certification: unitarity, tightness, hyperplane bases,
unbiased pairs, and the float cross-checks behind every exact pass."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError)
from exactframes.matrices import ExactMatrix, from_fraction_rows
from exactframes.radicals import make, sqrt_rational
from exactframes.verify import (MatrixProperty, check_equal_norm_rows,
                                check_hyperplane_basis,
                                check_orthogonal_columns, check_tight_frame,
                                check_unbiased_pair, check_unitary)


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
        r = check_hyperplane_basis(from_fraction_rows(rows))
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
            check_hyperplane_basis(from_fraction_rows(rows)), rows)
        # first column zero in every row: the normal is e_1
        rows = orthogonal_rows(rng, n - 1, n, lead_zero=True)
        r = check_hyperplane_basis(from_fraction_rows(rows))
        assert r.normal == (1,) + (0,) * (n - 1)
        assert_primitive_normal(r, rows)
        # e_1 is a row: the normal's first coordinate is 0, so the
        # projection of e_1 vanishes and a later coordinate is used
        rows = [[1] + [0] * (n - 1)] + orthogonal_rows(rng, n - 2, n,
                                                       lead_zero=True)
        r = check_hyperplane_basis(from_fraction_rows(rows))
        assert r.normal[0] == 0 and (r.witness.i, r.witness.j) == (1, 1)
        assert_primitive_normal(r, rows)


def test_hyperplane_zero_coordinate_fails():
    r = check_hyperplane_basis(ExactMatrix([[1, 0, 0], [0, 1, 0]]))
    assert not r.passed
    assert r.witness.kind == "normal_zero_coordinate"
    assert r.witness.i == 1
    assert r.normal == (0, 0, 1)


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
