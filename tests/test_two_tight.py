"""Tests for the unit-norm 2-tight frame constructions: arithmetic
progression frames, two-row weight tables, sign matrices, the
weight-in-front family, and the structural doubling step."""

import random
from fractions import Fraction

import pytest

from exactframes.errors import (DimensionError, DomainError,
                                TableValidationError)
from exactframes.io import serialize
from exactframes.matrices import ExactMatrix, hstack, vstack
from exactframes.radicals import sqrt_rational
from exactframes.two_tight import (TwoRowTable, abcd_outline, ap_two_tight,
                                   iterate_two_tight, make_two_row_table,
                                   sign_matrix, weight_in_front)
from exactframes.verify import check_tight_frame


def sq(p, q=1):
    return sqrt_rational(Fraction(p, q))


# Shared by both 16 x 8 displays: the doubled sign core, used once for
# the eight top-weight rows and again for the eight bottom-weight rows.
SIGN_GRID_16 = [
    [-1, 1, 1, 1, -1, 1, 1, 1],
    [1, -1, 1, 1, 1, -1, 1, 1],
    [1, 1, -1, 1, 1, 1, -1, 1],
    [1, 1, 1, -1, 1, 1, 1, -1],
    [-1, 1, 1, 1, 1, -1, -1, -1],
    [1, -1, 1, 1, -1, 1, -1, -1],
    [1, 1, -1, 1, -1, -1, 1, -1],
    [1, 1, 1, -1, -1, -1, -1, 1],
    [-1, 1, 1, 1, -1, 1, 1, 1],
    [1, -1, 1, 1, 1, -1, 1, 1],
    [1, 1, -1, 1, 1, 1, -1, 1],
    [1, 1, 1, -1, 1, 1, 1, -1],
    [-1, 1, 1, 1, 1, -1, -1, -1],
    [1, -1, 1, 1, -1, 1, -1, -1],
    [1, 1, -1, 1, -1, -1, 1, -1],
    [1, 1, 1, -1, -1, -1, -1, 1],
]


def signed_weights(top, bottom):
    rows = []
    for i, signs in enumerate(SIGN_GRID_16):
        weights = top if i < 8 else bottom
        rows.append([s * sq(w, 64) for s, w in zip(signs, weights)])
    return ExactMatrix(rows)


def test_ap_two_tight_display():
    expected = ExactMatrix([
        [-sq(7, 16), sq(5, 16), sq(3, 16), sq(1, 16)],
        [sq(7, 16), -sq(5, 16), sq(3, 16), sq(1, 16)],
        [sq(7, 16), sq(5, 16), -sq(3, 16), sq(1, 16)],
        [sq(7, 16), sq(5, 16), sq(3, 16), -sq(1, 16)],
        [-sq(1, 16), sq(3, 16), sq(5, 16), sq(7, 16)],
        [sq(1, 16), -sq(3, 16), sq(5, 16), sq(7, 16)],
        [sq(1, 16), sq(3, 16), -sq(5, 16), sq(7, 16)],
        [sq(1, 16), sq(3, 16), sq(5, 16), -sq(7, 16)],
    ])
    m = ap_two_tight(1, 2)
    assert m == expected
    assert m.row(0) == (-sq(7, 16), sq(5, 16), sq(3, 16), sq(1, 16))


def test_ap_two_tight_bottom_half_reverses_both_axes():
    m = ap_two_tight(3, 5)
    upper = ExactMatrix([list(m.row(i)) for i in range(4)])
    lower = ExactMatrix([list(m.row(i)) for i in range(4, 8)])
    assert lower == upper.reverse_both()


def test_ap_two_tight_constant_step_zero():
    m = ap_two_tight(1, 0)
    half = Fraction(1, 2)
    for i in range(8):
        for j in range(4):
            assert m.entry(i, j) in (half, -half)


def test_ap_two_tight_general_entries():
    m = ap_two_tight(2, 3)
    # normalization is 4a + 6b = 26; weights descend 11, 8, 5, 2
    assert m.row(0) == (-sq(11, 26), sq(8, 26), sq(5, 26), sq(2, 26))


@pytest.mark.parametrize("a,b", [(1, 2), (1, 0), (2, 3), (7, 1),
                                 (Fraction(1, 3), Fraction(5, 7))])
def test_ap_two_tight_is_two_tight(a, b):
    report = check_tight_frame(ap_two_tight(a, b))
    assert report.passed, report.witness
    assert report.k_value == Fraction(2)
    assert report.unit_rows


def test_ap_two_tight_randomized():
    rng = random.Random(977)
    for _ in range(15):
        a = Fraction(rng.randrange(1, 60), rng.randrange(1, 9))
        b = Fraction(rng.randrange(0, 60), rng.randrange(1, 9))
        report = check_tight_frame(ap_two_tight(a, b))
        assert report.passed and report.unit_rows
        assert report.k_value == Fraction(2)


def test_ap_two_tight_rejects_bad_progressions():
    with pytest.raises(DomainError, match="positive"):
        ap_two_tight(0, 1)
    with pytest.raises(DomainError, match="positive"):
        ap_two_tight(-1, 1)
    with pytest.raises(DomainError, match=">= 0"):
        ap_two_tight(1, -1)


def test_two_row_table_attributes():
    t = TwoRowTable((15, 13, 11, 9, 7, 5, 3, 1),
                    (1, 3, 5, 7, 9, 11, 13, 15), 16)
    assert t.width == 8
    assert t.order == 3
    assert t.m == Fraction(16)
    assert t.top == tuple(Fraction(v) for v in (15, 13, 11, 9, 7, 5, 3, 1))
    assert t == make_two_row_table((15, 13, 11, 9), 16)


def test_two_row_table_rejects_width_mismatch():
    with pytest.raises(TableValidationError, match="different widths"):
        TwoRowTable((1, 2, 3, 4), (4, 3, 2), 5)


@pytest.mark.parametrize("width", [2, 3, 5, 6, 7])
def test_two_row_table_rejects_bad_widths(width):
    half = [Fraction(1)] * width
    with pytest.raises(TableValidationError, match="power of two"):
        TwoRowTable(half, half, 2)


def test_two_row_table_rejects_nonpositive_m():
    with pytest.raises(TableValidationError, match="positive"):
        TwoRowTable((0, 0, 0, 0), (0, 0, 0, 0), 0)


def test_two_row_table_rejects_negative_entries():
    with pytest.raises(TableValidationError) as exc:
        TwoRowTable((3, -1, 2, 4), (1, 5, 2, 0), 4)
    assert exc.value.bad_columns == (2,)
    assert "nonnegative" in str(exc.value)


def test_two_row_table_reports_bad_pairs_and_row_sums():
    # claimed in print to need only correct row and column totals, but
    # column 6 breaks the pair identity and the bottom row comes up short
    with pytest.raises(TableValidationError) as exc:
        TwoRowTable((20, 24, 19, 25, 1, 7, 2, 6),
                    (6, 2, 7, 1, 25, 14, 24, 20), 26)
    err = exc.value
    assert err.bad_columns == (6,)
    assert err.row_sums == (Fraction(104), Fraction(99))
    assert err.expected_row_sum == Fraction(104)
    assert "column 6: 7 + 14 = 21" in str(err)
    assert "row sums are 104 and 99" in str(err)


def test_two_row_table_reports_pairs_even_with_good_row_sums():
    with pytest.raises(TableValidationError) as exc:
        TwoRowTable((3, 1, 2, 2), (2, 2, 2, 2), 4)
    err = exc.value
    assert err.bad_columns == (1, 2)
    assert err.row_sums == (Fraction(8), Fraction(8))
    assert "row sums" not in str(err)


def test_make_two_row_table_halves():
    t = make_two_row_table((15, 13, 11, 9), 16)
    assert t.top == (15, 13, 11, 9, 7, 5, 3, 1)
    assert t.bottom == (1, 3, 5, 7, 9, 11, 13, 15)
    t = make_two_row_table((15, 14, 13, 12), 16)
    assert t.top == (15, 14, 13, 12, 4, 3, 2, 1)
    assert t.bottom == (1, 2, 3, 4, 12, 13, 14, 15)


def test_make_two_row_table_sixteen_column_listing():
    t = make_two_row_table((32, 31, 30, 29, 25, 24, 23, 22), 40)
    assert t.top == (32, 31, 30, 29, 25, 24, 23, 22,
                     18, 17, 16, 15, 11, 10, 9, 8)
    assert t.bottom == (8, 9, 10, 11, 15, 16, 17, 18,
                        22, 23, 24, 25, 29, 30, 31, 32)
    assert t.order == 4


def test_make_two_row_table_allows_repeats_and_increases():
    t = make_two_row_table((5, 5), 10)
    assert t.top == (5, 5, 5, 5)
    # entries need not decrease across the row
    t = make_two_row_table((4, 3), 5)
    assert t.top == (4, 3, 2, 1)
    assert t.bottom == (1, 2, 3, 4)


def test_make_two_row_table_allows_m_equal_to_max():
    t = make_two_row_table((4, 2), 4)
    assert t.top == (4, 2, 2, 0)
    assert t.bottom == (0, 2, 2, 4)


def test_make_two_row_table_rejections():
    with pytest.raises(DomainError, match="power-of-two"):
        make_two_row_table((1, 2, 3), 4)
    with pytest.raises(DomainError, match="at least 2"):
        make_two_row_table((3,), 4)
    with pytest.raises(DomainError, match="positive"):
        make_two_row_table((2, 0), 3)
    with pytest.raises(DomainError, match="below the largest"):
        make_two_row_table((5, 3), 4)


def test_abcd_outline():
    t = abcd_outline(1, 2, 3, 4)
    assert t.m == Fraction(10)
    assert t.top == (1, 2, 3, 4, 6, 7, 8, 9)
    assert t.bottom == (9, 8, 7, 6, 4, 3, 2, 1)
    frame = weight_in_front(t)
    assert frame.shape == (16, 8)
    report = check_tight_frame(frame)
    assert report.passed and report.unit_rows
    assert report.k_value == Fraction(2)


def test_sign_matrix_base_case():
    expected = ExactMatrix([
        [-1, 1, 1, 1],
        [1, -1, 1, 1],
        [1, 1, -1, 1],
        [1, 1, 1, -1],
    ])
    assert sign_matrix(2) == expected


def test_sign_matrix_doubles():
    s = sign_matrix(2)
    d = sign_matrix(3)
    for i in range(4):
        for j in range(4):
            assert d.entry(i, j) == s.entry(i, j)
            assert d.entry(i, j + 4) == s.entry(i, j)
            assert d.entry(i + 4, j) == s.entry(i, j)
            assert d.entry(i + 4, j + 4) == -s.entry(i, j)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_sign_matrix_gram(order):
    s = sign_matrix(order)
    n = 2 ** order
    assert s.shape == (n, n)
    assert s.transpose() @ s == ExactMatrix.identity(n).scale(n)


def test_sign_matrix_rejects_small_orders():
    with pytest.raises(DomainError):
        sign_matrix(1)


def doubled_sign_matrix(order):
    """Reference: the sign matrix doubled as whole exact matrices."""
    s = ExactMatrix([[-1 if i == j else 1 for j in range(4)]
                     for i in range(4)])
    for _ in range(order - 2):
        s = vstack(hstack(s, s), hstack(s, s.scale(-1)))
    return s


def weight_in_front_by_products(table):
    """Reference: each entry the product of a sign and a magnitude."""
    k = table.order
    signs = doubled_sign_matrix(k)
    norm = Fraction(2) ** (k - 1) * table.m
    rows = []
    for weights in (table.top, table.bottom):
        mags = [sqrt_rational(w / norm) for w in weights]
        for i in range(1 << k):
            rows.append([signs.entry(i, j) * mags[j]
                         for j in range(table.width)])
    return ExactMatrix(rows)


@pytest.mark.parametrize("order", range(2, 8))
def test_sign_matrix_bytes_match_matrix_doubling(order):
    assert serialize(sign_matrix(order)) == serialize(
        doubled_sign_matrix(order))


@pytest.mark.parametrize("seed", range(10))
def test_weight_in_front_bytes_match_signed_products(seed):
    rng = random.Random(seed)
    values = [Fraction(rng.randint(1, 30), rng.randint(1, 4))
              for _ in range(rng.choice((2, 4, 8)))]
    # an m of max(values) gives zero weights
    table = make_two_row_table(values, max(values) + rng.randint(0, 3))
    assert serialize(weight_in_front(table)) == serialize(
        weight_in_front_by_products(table))


def test_weight_in_front_odd_weights_display():
    table = make_two_row_table((15, 13, 11, 9), 16)
    expected = signed_weights((15, 13, 11, 9, 7, 5, 3, 1),
                              (1, 3, 5, 7, 9, 11, 13, 15))
    assert weight_in_front(table) == expected


def test_weight_in_front_odd_weights_is_an_iterate():
    a = ExactMatrix([[(-1 if i == j else 1) * sq(w, 64)
                      for j, w in enumerate((15, 13, 11, 9))]
                     for i in range(4)])
    b = ExactMatrix([[(-1 if i == j else 1) * sq(w, 64)
                      for j, w in enumerate((7, 5, 3, 1))]
                     for i in range(4)])
    table = make_two_row_table((15, 13, 11, 9), 16)
    assert weight_in_front(table) == iterate_two_tight(a, b)


def test_weight_in_front_heavy_head_display():
    table = make_two_row_table((15, 14, 13, 12), 16)
    expected = signed_weights((15, 14, 13, 12, 4, 3, 2, 1),
                              (1, 2, 3, 4, 12, 13, 14, 15))
    frame = weight_in_front(table)
    assert frame == expected
    report = check_tight_frame(frame)
    assert report.passed and report.unit_rows
    assert report.k_value == Fraction(2)


def test_weight_in_front_tolerates_zero_weights():
    frame = weight_in_front(make_two_row_table((4, 2), 4))
    report = check_tight_frame(frame)
    assert report.passed and report.unit_rows


def test_weight_in_front_randomized_sums():
    rng = random.Random(40129)
    for _ in range(12):
        k = rng.choice([2, 3, 4])
        count = 2 ** (k - 1)
        values = [Fraction(rng.randrange(1, 40), rng.randrange(1, 5))
                  for _ in range(count)]
        m = max(values) + Fraction(rng.randrange(0, 30), 7)
        table = make_two_row_table(values, m)
        frame = weight_in_front(table)
        assert frame.shape == (2 ** (k + 1), 2 ** k)
        norm = Fraction(2) ** (k - 1) * table.m
        raw = frame.scale(sqrt_rational(norm))
        for i in range(raw.rows):
            assert raw.row_norm_squared(i) == norm
        raw_t = raw.transpose()
        for j in range(raw.cols):
            assert raw_t.row_norm_squared(j) == Fraction(2) ** k * table.m
        report = check_tight_frame(frame)
        assert report.passed and report.unit_rows
        assert report.k_value == Fraction(2)


def test_iterate_two_tight_structure():
    left = ExactMatrix([[1, 2], [3, 4]])
    right = ExactMatrix([[5, 6], [7, 8]])
    expected = ExactMatrix([
        [1, 2, 5, 6],
        [3, 4, 7, 8],
        [1, 2, -5, -6],
        [3, 4, -7, -8],
        [8, 7, 4, 3],
        [6, 5, 2, 1],
        [8, 7, -4, -3],
        [6, 5, -2, -1],
    ])
    assert iterate_two_tight(left, right) == expected


def test_iterate_two_tight_doubles_a_frame():
    frame = ap_two_tight(1, 2)
    doubled = iterate_two_tight(frame, frame).scale(Fraction(1, 2))
    assert doubled.shape == (32, 8)
    report = check_tight_frame(doubled)
    assert report.passed
    assert report.k_value == Fraction(2)
    assert not report.unit_rows
    assert doubled.row_norm_squared(0) == Fraction(1, 2)


def test_iterate_two_tight_rejects_shape_mismatch():
    with pytest.raises(DimensionError, match="equal shapes"):
        iterate_two_tight(ExactMatrix.identity(2), ExactMatrix.identity(3))
