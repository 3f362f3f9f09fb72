"""Tests for the unitary constructors: staircase bases with constant
first row(s), two-constant unitaries, block doublings, weaves, and the
three mutually unbiased bases of R^4."""

import random
from fractions import Fraction

import pytest

from exactframes.errors import (BlockFormError, DimensionError, DomainError,
                                PreconditionError)
from exactframes.io import serialize
from exactframes.io import serialize
from exactframes.matrices import ExactMatrix, block_diag
from exactframes.radicals import RadicalScalar, make, sqrt_rational
from exactframes.two_tight import ap_two_tight
from exactframes.unitary import (BlockForm, WeaveCoefficients, block_pair,
                                 constant_first_row, constant_two_rows,
                                 mub_r4, third_case, two_constant_block_example,
                                 two_constant_diag, weave)
from exactframes.verify import (check_tight_frame, check_unbiased_pair,
                                check_unitary)


def sq(p, q=1):
    return sqrt_rational(Fraction(p, q))


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([-1, 1])
    return ExactMatrix(rows)


ROTATIONS = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]


def rotation_coeffs(p, q, r):
    return ExactMatrix([[Fraction(p, r), Fraction(q, r)],
                        [Fraction(-q, r), Fraction(p, r)]])


def test_constant_first_row_one_by_one():
    assert constant_first_row(1) == ExactMatrix([[1]])


def test_constant_first_row_three_display():
    s6 = sq(1, 6)
    expected = ExactMatrix([
        [sq(1, 3), sq(1, 3), sq(1, 3)],
        [-2 * s6, s6, s6],
        [0, -sq(1, 2), sq(1, 2)],
    ])
    assert constant_first_row(3) == expected


def test_constant_first_row_four_display():
    half = Fraction(1, 2)
    s12 = sq(1, 12)
    s6 = sq(1, 6)
    expected = ExactMatrix([
        [half, half, half, half],
        [-3 * s12, s12, s12, s12],
        [0, -2 * s6, s6, s6],
        [0, 0, -sq(1, 2), sq(1, 2)],
    ])
    assert constant_first_row(4) == expected


@pytest.mark.parametrize("n", list(range(1, 17)) + [25, 33])
def test_constant_first_row_is_unitary(n):
    m = constant_first_row(n)
    assert m.shape == (n, n)
    report = check_unitary(m)
    assert report.passed, report.witness
    for j in range(n):
        assert m.entry(0, j) == sq(1, n)


@pytest.mark.parametrize("n", range(2, 12))
def test_constant_first_row_staircase_sparsity(n):
    # row 0 is full; row i >= 1 has n - i + 1 nonzero entries
    assert constant_first_row(n).sparsity() == n + (n * (n + 1)) // 2 - 1


def test_constant_first_row_rejects_nonpositive():
    with pytest.raises(DomainError):
        constant_first_row(0)
    with pytest.raises(DomainError):
        constant_first_row(-3)


def test_constant_two_rows_four_is_normalized_sign_core():
    h = Fraction(1, 2)
    expected = ExactMatrix([
        [-h, h, h, h],
        [h, -h, h, h],
        [h, h, -h, h],
        [h, h, h, -h],
    ])
    assert constant_two_rows(4) == expected


def test_constant_two_rows_six_display():
    s6 = sq(1, 6)
    expected = ExactMatrix([
        [s6, s6, s6, s6, s6, s6],
        [-s6, -s6, -s6, s6, s6, s6],
        [-sq(2, 3), s6, s6, 0, 0, 0],
        [0, -sq(1, 2), sq(1, 2), 0, 0, 0],
        [0, 0, 0, -sq(2, 3), s6, s6],
        [0, 0, 0, 0, -sq(1, 2), sq(1, 2)],
    ])
    assert constant_two_rows(6) == expected


def test_constant_two_rows_eight_display():
    s8 = sq(1, 8)
    s12 = sq(1, 12)
    s6 = sq(1, 6)
    expected = ExactMatrix([
        [s8, s8, s8, s8, s8, s8, s8, s8],
        [-s8, -s8, -s8, -s8, s8, s8, s8, s8],
        [-sq(3, 4), s12, s12, s12, 0, 0, 0, 0],
        [0, -sq(2, 3), s6, s6, 0, 0, 0, 0],
        [0, 0, -sq(1, 2), sq(1, 2), 0, 0, 0, 0],
        [0, 0, 0, 0, -sq(3, 4), s12, s12, s12],
        [0, 0, 0, 0, 0, -sq(2, 3), s6, s6],
        [0, 0, 0, 0, 0, 0, -sq(1, 2), sq(1, 2)],
    ])
    assert constant_two_rows(8) == expected


@pytest.mark.parametrize("two_n", range(4, 34, 2))
def test_constant_two_rows_is_unitary(two_n):
    m = constant_two_rows(two_n)
    assert m.shape == (two_n, two_n)
    report = check_unitary(m)
    assert report.passed, report.witness
    s = sq(1, two_n)
    for i in (0, 1):
        assert all(m.entry(i, j) in (s, -s) for j in range(two_n))
    if two_n > 4:
        assert all(m.entry(0, j) == s for j in range(two_n))


def constant_two_rows_by_rows(two_n):
    """Reference: the header rows, then each staircase row padded with
    zeros, one row at a time."""
    if two_n == 4:
        return ExactMatrix([[-1 if i == j else 1 for j in range(4)]
                            for i in range(4)]).scale(Fraction(1, 2))
    n = two_n // 2
    c = sq(1, two_n)
    rows = [[c] * two_n, [-c] * n + [c] * n]
    stair = constant_first_row(n)
    zero = RadicalScalar(0)
    for i in range(1, n):
        rows.append(list(stair.row(i)) + [zero] * n)
    for i in range(1, n):
        rows.append([zero] * n + list(stair.row(i)))
    return ExactMatrix(rows)


def test_constant_two_rows_bytes_match_row_by_row_build():
    for two_n in range(4, 131, 2):
        assert serialize(constant_two_rows(two_n)) == serialize(
            constant_two_rows_by_rows(two_n)), two_n


@pytest.mark.parametrize("bad", [2, 5, 7, -4, 0])
def test_constant_two_rows_rejects_bad_sizes(bad):
    with pytest.raises(DomainError):
        constant_two_rows(bad)


def test_two_constant_diag_three_display():
    third = Fraction(1, 3)
    expected = ExactMatrix([
        [-third, 2 * third, 2 * third],
        [2 * third, -third, 2 * third],
        [2 * third, 2 * third, -third],
    ])
    assert two_constant_diag(3) == expected


def test_two_constant_diag_six_display():
    d = Fraction(-2, 3)
    o = Fraction(1, 3)
    expected = ExactMatrix(
        [[d if i == j else o for j in range(6)] for i in range(6)])
    assert two_constant_diag(6) == expected


def test_two_constant_diag_two_is_swap():
    assert two_constant_diag(2) == ExactMatrix([[0, 1], [1, 0]])


@pytest.mark.parametrize("n", range(2, 20))
def test_two_constant_diag_is_symmetric_involution(n):
    m = two_constant_diag(n)
    assert m.is_symmetric()
    assert check_unitary(m).passed
    assert m @ m == ExactMatrix.identity(n)


def test_two_constant_diag_rejects_small():
    with pytest.raises(DomainError):
        two_constant_diag(1)


def test_block_pair_plain_needs_equal_squares():
    a = make(Fraction(1, 2), 3)   # sqrt(3)/2
    b = RadicalScalar(Fraction(1, 2))
    u = constant_first_row(3)
    with pytest.raises(BlockFormError) as exc:
        block_pair(u, u, a, b, BlockForm.PLAIN)
    assert exc.value.defect == RadicalScalar(Fraction(1, 2))
    assert "defect" in str(exc.value)


def test_block_pair_plain_succeeds_on_equal_squares():
    c = sq(1, 2)
    u = constant_first_row(3)
    v = two_constant_diag(3)
    m = block_pair(u, v, c, c, BlockForm.PLAIN)
    assert m.shape == (6, 6)
    assert check_unitary(m).passed
    # plain form repeats the left block in both block rows
    for i in range(3):
        for j in range(3):
            assert m.entry(i, j) == m.entry(i + 3, j)
            assert m.entry(i, j + 3) == -m.entry(i + 3, j + 3)


@pytest.mark.parametrize("p,q,r", ROTATIONS)
def test_block_pair_balanced_rational_circle_points(p, q, r):
    a = RadicalScalar(Fraction(p, r))
    b = RadicalScalar(Fraction(q, r))
    u = constant_two_rows(4)
    v = two_constant_diag(4)
    m = block_pair(u, v, a, b, BlockForm.BALANCED)
    assert m.shape == (8, 8)
    report = check_unitary(m)
    assert report.passed, report.witness


def test_block_pair_balanced_radical_coefficients():
    a = sq(1, 3)
    b = sq(2, 3)
    u = constant_first_row(4)
    m = block_pair(u, u, a, b)
    assert check_unitary(m).passed


def test_block_pair_is_balanced_by_default():
    a = RadicalScalar(Fraction(3, 5))
    b = RadicalScalar(Fraction(4, 5))
    u = two_constant_diag(3)
    assert block_pair(u, u, a, b) == block_pair(u, u, a, b,
                                                BlockForm.BALANCED)


def test_block_pair_rejects_off_circle_coefficients():
    u = two_constant_diag(3)
    with pytest.raises(DomainError, match="a\\^2 \\+ b\\^2"):
        block_pair(u, u, RadicalScalar(1), RadicalScalar(1))


def test_block_pair_rejects_non_unitary_blocks():
    u = two_constant_diag(3)
    bad = ExactMatrix([[1, 2, 3], [0, 1, 0], [0, 0, 1]])
    c = sq(1, 2)
    with pytest.raises(PreconditionError, match="first block"):
        block_pair(bad, u, c, c)
    with pytest.raises(PreconditionError, match="second block"):
        block_pair(u, bad, c, c)


def test_block_pair_rejects_mismatched_shapes():
    c = sq(1, 2)
    with pytest.raises(DimensionError):
        block_pair(two_constant_diag(3), two_constant_diag(4), c, c)


def test_two_constant_block_example_display():
    m = two_constant_block_example()
    a = sq(1, 5)       # 2 * sqrt(1/20)
    b = sq(1, 20)
    assert m.shape == (8, 8)
    assert m.row(0) == (-a, a, a, a, -b, b, b, b)
    assert m.row(4) == (-b, b, b, b, a, -a, -a, -a)
    assert check_unitary(m).passed


def test_two_constant_block_example_is_a_balanced_pair():
    h = two_constant_diag(4)
    rebuilt = block_pair(h, h, make(Fraction(2, 5), 5),
                         make(Fraction(1, 5), 5), BlockForm.BALANCED)
    assert two_constant_block_example() == rebuilt


def test_third_case_display():
    a = sq(1, 12)
    b = RadicalScalar(Fraction(1, 2))
    expected = ExactMatrix([
        [a, a, a, -b, -b, b],
        [a, a, a, -b, b, -b],
        [a, a, a, b, -b, -b],
        [-b, b, b, a, a, a],
        [b, -b, b, a, a, a],
        [b, b, -b, a, a, a],
    ])
    m = third_case()
    assert m == expected
    assert check_unitary(m).passed
    # the sign pattern balances exactly: 3a^2 == b^2
    assert 3 * a * a == b * b


def test_weave_coefficients_validate_columns():
    with pytest.raises(PreconditionError, match=r"columns \(1, 2\)"):
        WeaveCoefficients(ExactMatrix([[1, 1], [1, 1]]))


def test_weave_coefficients_orthonormal_flag():
    rot = WeaveCoefficients(rotation_coeffs(3, 4, 5))
    assert rot.is_orthonormal
    scaled = WeaveCoefficients(ExactMatrix([[3, 4], [-4, 3]]))
    assert not scaled.is_orthonormal
    tall = WeaveCoefficients(ExactMatrix([[1, 0], [0, 1], [0, 0]]))
    assert not tall.is_orthonormal


def test_weave_identity_coefficients_is_block_diag():
    a = constant_first_row(3)
    b = two_constant_diag(3)
    coeffs = WeaveCoefficients(ExactMatrix.identity(2))
    assert weave(coeffs, [a, b]) == block_diag([a, b])


def test_weave_rotation_of_unitaries_is_unitary():
    coeffs = WeaveCoefficients(rotation_coeffs(3, 4, 5))
    woven = weave(coeffs, [constant_first_row(3), two_constant_diag(3)])
    assert woven.shape == (6, 6)
    assert check_unitary(woven).passed


def test_weave_randomized_exact_unitaries():
    rng = random.Random(20260814)
    for _ in range(20):
        n = rng.randrange(2, 5)
        width = rng.randrange(2, 4)
        perm = signed_permutation(rng, width)
        p, q, r = rng.choice(ROTATIONS)
        core = rotation_coeffs(p, q, r)
        if width > 2:
            core = block_diag([core, ExactMatrix.identity(width - 2)])
        coeffs = WeaveCoefficients(perm @ core)
        blocks = [signed_permutation(rng, n) for _ in range(width)]
        woven = weave(coeffs, blocks)
        report = check_unitary(woven)
        assert report.passed, report.witness


def test_weave_allows_ragged_column_counts():
    coeffs = WeaveCoefficients(rotation_coeffs(3, 4, 5))
    wide = constant_first_row(3)
    narrow = ExactMatrix([[1, 0], [0, 1], [0, 0]])
    woven = weave(coeffs, [wide, narrow])
    assert woven.shape == (6, 5)
    from exactframes.verify import check_orthogonal_columns
    assert check_orthogonal_columns(woven).passed


def test_weave_of_two_tight_blocks_is_two_tight():
    coeffs = WeaveCoefficients(rotation_coeffs(5, 12, 13))
    woven = weave(coeffs, [ap_two_tight(1, 2), ap_two_tight(2, 3)])
    assert woven.shape == (16, 8)
    report = check_tight_frame(woven)
    assert report.passed
    assert report.k_value == Fraction(2)
    assert report.unit_rows


def test_weave_rejects_unequal_row_counts():
    coeffs = WeaveCoefficients(ExactMatrix.identity(2))
    with pytest.raises(DimensionError, match="equal row counts"):
        weave(coeffs, [ExactMatrix.identity(3), ExactMatrix.identity(2)])


def test_weave_rejects_wrong_block_count():
    coeffs = WeaveCoefficients(ExactMatrix.identity(2))
    with pytest.raises(DimensionError):
        weave(coeffs, [ExactMatrix.identity(3)])


def test_weave_rejects_non_orthogonal_block():
    coeffs = WeaveCoefficients(ExactMatrix.identity(2))
    bad = ExactMatrix([[1, 1], [0, 1]])
    with pytest.raises(PreconditionError, match="block 2"):
        weave(coeffs, [ExactMatrix.identity(2), bad])


def test_mub_r4_bases():
    b1, b2, b3 = mub_r4()
    h = Fraction(1, 2)
    assert b1 == ExactMatrix.identity(4)
    assert b2 == ExactMatrix([
        [-h, h, h, h],
        [h, -h, h, h],
        [h, h, -h, h],
        [h, h, h, -h],
    ])
    assert b3 == ExactMatrix([
        [h, h, h, h],
        [h, -h, h, -h],
        [h, h, -h, -h],
        [h, -h, -h, h],
    ])
    for basis in (b1, b2, b3):
        assert check_unitary(basis).passed


def test_mub_r4_pairwise_unbiased():
    bases = mub_r4()
    quarter = RadicalScalar(Fraction(1, 4))
    cross_count = 0
    for i in range(3):
        for j in range(i + 1, 3):
            report = check_unbiased_pair(bases[i], bases[j])
            assert report.passed, report.witness
            product = bases[i] @ bases[j].transpose()
            for r in range(4):
                for c in range(4):
                    e = product.entry(r, c)
                    assert e * e == quarter
                    cross_count += 1
    assert cross_count == 48
