"""Recursive sparse hyperplane bases and their sparsity accounting."""

import re
from fractions import Fraction

import pytest

from exactframes import _kernel
from exactframes.errors import CombineModeError, DomainError
from exactframes.hyperplane import (HyperplaneBasis, TopRowMode, base_case,
                                    build, combine, predicted_sparsity)
from exactframes.matrices import ExactMatrix
from exactframes.verify import check_hyperplane_basis
from hyperplane_reference import (_as_int_rows, reference_base_case,
                                  reference_build, reference_combine)


@pytest.mark.parametrize("n,rows,normal,sparsity", (
    (2, [[1, 1]], (1, -1), 2),
    (3, [[1, 2, 1], [0, -1, 2]], (-5, 2, 1), 5),
    (4, [[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]], (1, 1, -1, -1), 8),
))
def test_base_cases(n, rows, normal, sparsity):
    h = base_case(n)
    assert h.matrix == ExactMatrix(rows)
    assert h.normal == normal
    assert h.sparsity == sparsity
    assert h.dimension == n
    assert check_hyperplane_basis(h.matrix).passed


def test_base_case_rejects_other_sizes():
    for n in (1, 5, 0):
        with pytest.raises(DomainError):
            base_case(n)
    with pytest.raises(DomainError):
        build(1)
    with pytest.raises(DomainError):
        predicted_sparsity(1)


def test_build_6_display():
    assert build(6).matrix == ExactMatrix([
        [1, 1, 1, 1, 1, 1],
        [1, 1, -1, -1, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ])
    assert build(6).normal == (1, 1, 1, 1, -2, -2)


def test_build_8_display():
    # each size-4 block swaps its ones row for the block normal
    block = [[1, 1, -1, -1], [1, -1, 0, 0], [0, 0, 1, -1]]
    expected = [[1] * 8]
    for r in block:
        expected.append(r + [0] * 4)
    for r in block:
        expected.append([0] * 4 + r)
    assert build(8).matrix == ExactMatrix(expected)
    assert build(8).normal == (1, 1, 1, 1, -1, -1, -1, -1)


def test_combine_ones_equals_build():
    got = combine(base_case(4), base_case(4), TopRowMode.ONES)
    assert got.matrix == build(8).matrix
    got6 = combine(base_case(4), base_case(2), TopRowMode.ONES)
    assert got6.matrix == build(6).matrix
    assert got6.sparsity == 16


def test_combine_weighted_top_row():
    got = combine(base_case(3), base_case(2), TopRowMode.WEIGHTED)
    assert got.matrix.row(0) == tuple(
        ExactMatrix([[-10, 4, 2, -30, 30]]).row(0))
    assert got.normal == (-5, 2, 1, 1, -1)
    assert got.sparsity == 12
    assert check_hyperplane_basis(got.matrix).passed


def test_combine_ones_mode_error_names_block():
    with pytest.raises(CombineModeError, match="first.*WEIGHTED"):
        combine(base_case(3), base_case(2), TopRowMode.ONES)
    with pytest.raises(CombineModeError, match="second"):
        combine(base_case(2), base_case(3), TopRowMode.ONES)


def test_combine_ones_accepts_swappable_block():
    # a block whose first row is proportional to ones trades places
    # with its normal to expose an all-ones normal
    h = HyperplaneBasis(ExactMatrix([[1, 1]]), (1, -1))
    got = combine(h, h, TopRowMode.ONES)
    assert check_hyperplane_basis(got.matrix).passed
    assert got.matrix.row(1) == tuple(ExactMatrix([[1, -1, 0, 0]]).row(0))


def test_build_5_pattern():
    h = build(5)
    assert h.sparsity == 12
    assert h.normal == (-5, 2, 1, 1, -1)
    assert check_hyperplane_basis(h.matrix).passed
    assert h.matrix.row(0) == tuple(
        ExactMatrix([[-10, 4, 2, -30, 30]]).row(0))


def test_build_7_block_sizes():
    h = build(7)
    assert h.sparsity == 20
    # top row spans all 7, block of 4 before block of 3
    assert h.matrix.entry(1, 0) == ExactMatrix([[1]]).entry(0, 0)
    assert h.matrix.entry(1, 4).is_zero
    assert h.matrix.entry(4, 3).is_zero
    assert not h.matrix.entry(4, 4).is_zero
    assert check_hyperplane_basis(h.matrix).passed


@pytest.mark.parametrize("n,count", ((4, 8), (6, 16), (7, 20), (8, 24)))
def test_sparsity_table(n, count):
    assert build(n).sparsity == count
    assert predicted_sparsity(n) == count


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_sparsity_doubling_recurrence(n):
    assert predicted_sparsity(2 * n) == 2 * predicted_sparsity(n) + 2 * n


def test_predicted_matches_built_sparsity():
    for n in range(2, 40):
        assert build(n).sparsity == predicted_sparsity(n)


def test_build_passes_checker_up_to_64():
    for n in range(2, 65):
        h = build(n)
        r = check_hyperplane_basis(h.matrix)
        assert r.passed, (n, r.witness)
        assert "approximate" not in r.to_json_dict()
        assert all(c != 0 for c in h.normal)
        assert len(h.normal) == n
        # the construction's normal agrees with the certified one up to
        # scale
        pivot = next(i for i, c in enumerate(r.normal) if c)
        ratio = Fraction(h.normal[pivot]) / r.normal[pivot]
        assert all(h.normal[i] == ratio * r.normal[i] for i in range(n))


def test_normalized_bases_are_orthonormal():
    for n in (2, 3, 4, 6, 8, 12):
        m = build(n).matrix.normalize_rows()
        assert m.sparsity() == build(n).sparsity
        for i in range(m.rows):
            assert m.row_norm_squared(i) == ExactMatrix([[1]]).entry(0, 0)
        r = check_hyperplane_basis(m)
        assert r.passed


def test_normalized_bases_report_the_built_normal():
    for n in range(2, 65):
        h = build(n)
        r = check_hyperplane_basis(h.matrix.normalize_rows())
        assert r.passed, n
        assert r.normal in (h.normal, tuple(-c for c in h.normal)), n


def test_rows_orthogonal_to_stored_normal():
    for n in range(2, 33):
        h = build(n)
        for i in range(h.matrix.rows):
            dot = sum(
                h.matrix.entry(i, j).as_fraction() * h.normal[j]
                for j in range(n))
            assert dot == 0


@pytest.mark.parametrize("sizes", (range(2, 301), (1024,)))
def test_build_is_the_reference_recursion(sizes):
    # the reference's rows are dense: the term rows, the integer rows
    # and the normal of build(n), which reads only its rows' values,
    # must be theirs
    for n in sizes:
        got, want = build(n), reference_build(n)
        assert got.matrix._data == want.matrix._data, n
        ones = (1,) * (n - 1)
        dense = tuple(map(tuple, _as_int_rows(want.matrix)))
        assert got.matrix._data.ints == (ones, dense, ones), n
        assert got.normal == want.normal, n
        assert type(got.matrix._data) is _kernel.TermRows, n
        assert vars(got.matrix._data).keys() == {"ints"}, n


@pytest.mark.parametrize("mode", (None, TopRowMode.ONES, TopRowMode.WEIGHTED))
def test_combine_is_the_reference_combine(mode):
    blocks = [(base_case(n), reference_base_case(n)) for n in (2, 3, 4)]
    blocks += [(build(n), reference_build(n)) for n in range(5, 13)]
    # a WEIGHTED block whose second row is ones over part of it only
    blocks.append((combine(base_case(2), base_case(3)),
                   reference_combine(reference_base_case(2),
                                     reference_base_case(3))))
    for h1, r1 in blocks:
        for h2, r2 in blocks:
            try:
                want = reference_combine(r1, r2, mode)
            except CombineModeError as exc:
                with pytest.raises(CombineModeError,
                                   match=re.escape(str(exc))):
                    combine(h1, h2, mode)
                continue
            got = combine(h1, h2, mode)
            assert got.matrix == want.matrix
            assert got.normal == want.normal
            assert type(got.matrix._data) is _kernel.TermRows
            assert vars(got.matrix._data).keys() == {"ints"}


def test_combine_rejects_non_integer_blocks():
    h = HyperplaneBasis(ExactMatrix([[Fraction(1, 2), Fraction(1, 2)]]),
                        (1, -1))
    for mode in (None, TopRowMode.ONES, TopRowMode.WEIGHTED):
        with pytest.raises(DomainError, match=r"1/2 at \(1, 1\)"):
            combine(base_case(2), h, mode)
