"""Matrices built from integer rows of one radicand each: the unitary
families build their term tuples from such rows, and their rows carry
those integer rows as ``ints``, whose graded Gram is one integer product.
Everything here is compared with a tuple-built reference
(``unitary_reference``) and with the same rows as a plain ``tuple``,
which the graded Gram reads into the same integer rows."""

import copy
import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import unitary_reference as reference
from exactframes import _kernel, unitary
from exactframes._kernel import graded
from exactframes.io import FORMATS, deserialize, serialize
from exactframes.matrices import ExactMatrix, block_diag, hstack, vstack
from exactframes.two_tight import make_two_row_table, weight_in_front
from exactframes.verify import check_tight_frame, check_unitary

FAMILIES = ("constant_first_row", "constant_two_rows", "two_constant_diag")


def sizes(family):
    """Every valid n from 2 to 70 and 128; constant_two_rows(4) is the
    sign matrix, built without integer rows."""
    if family == "constant_two_rows":
        return [*range(6, 71, 2), 128]
    return [*range(2, 71), 128]


def with_entry(m, i, j, value):
    """``m`` rebuilt from its integer rows with entry (i, j) of the
    rows replaced by ``value``."""
    rads, ints, dens = m._data.ints
    ints = [list(row) for row in ints]
    ints[i][j] = value
    return ExactMatrix._from_int_rows(m.cols, rads, [(0, r) for r in ints],
                                      dens)


def assert_graded_front_ends_agree(m, diag=(1, 1)):
    """The rows as built, with their integer rows, and as a plain tuple,
    in the graded Gram and in the pair scan, give the same mismatch and
    the same scaled Gram."""
    ints, split = m._data, tuple(m._data)
    with mock.patch.object(_kernel, "_SCAN_BELOW", 0):
        want = _kernel.gram_mismatch(split, diag)
        assert _kernel.gram_mismatch(ints, diag) == want
        terms = _kernel.gram_terms(split, 3, 7)
        assert _kernel.gram_terms(ints, 3, 7) == terms
    assert _kernel.gram_mismatch(ints, diag) == want
    assert _kernel.gram_mismatch(split, diag) == want
    assert _kernel.gram_terms(ints, 3, 7) == terms
    return want


@pytest.mark.parametrize("family", FAMILIES)
def test_families_match_the_tuple_reference(family):
    build, ref = getattr(unitary, family), getattr(reference, family)
    for n in sizes(family):
        m, want = build(n), ref(n)
        assert type(m._data) is _kernel.TermRows
        assert vars(m._data).keys() == {"ints"}
        assert m._data == want._data
        assert m == want and hash(m) == hash(want)
        for fmt in FORMATS:
            assert serialize(m, fmt) == serialize(want, fmt)


@pytest.mark.parametrize("family", FAMILIES)
def test_int_rows_give_the_graded_gram_of_the_tuples(family):
    build = getattr(unitary, family)
    for n in sizes(family):
        assert assert_graded_front_ends_agree(build(n)) is None


@pytest.mark.parametrize("family", FAMILIES)
def test_a_changed_int_entry_gives_the_same_witness(family):
    rng = random.Random(family)
    build = getattr(unitary, family)
    for n in sizes(family):
        m = build(n)
        i, j = rng.randrange(n), rng.randrange(n)
        # (v + d)^2 != v^2 for odd d: row i's norm changes
        bad = with_entry(m, i, j, m._data.ints[1][i][j] + rng.choice((1, -3)))
        hit = assert_graded_front_ends_agree(bad)
        assert hit is not None and hit[0] <= i <= hit[1]
        # the same matrix read back without its integer rows
        plain = ExactMatrix._raw(n, n, tuple(bad._data))
        assert check_unitary(bad) == check_unitary(plain)
        assert not check_unitary(bad).passed


def refuse_the_split(monkeypatch):
    def refuse(rows):
        raise AssertionError("split the term tuples")

    monkeypatch.setattr(graded, "_split_terms", refuse)


def test_the_unitary_check_reads_the_int_rows(monkeypatch):
    """Rows of one radicand each certify without a split of their term
    tuples, as built, as a plain tuple and read back from either exact
    format; a frame whose rows and columns carry several radicands
    still takes the split."""
    refuse_the_split(monkeypatch)
    for family in FAMILIES:
        m = getattr(unitary, family)(128)
        plain = ExactMatrix._raw(128, 128, tuple(m._data))
        read = [deserialize(serialize(m, fmt)) for fmt in ("exact-json",
                                                            "csv")]
        for again in (m, plain, *read):
            assert check_unitary(again).passed
        # read back, the rows were read into integer rows, not split
        assert all(type(again._data) is _kernel.TermRows
                   and vars(again._data).keys() == {"ints"}
                   for again in read)
    monkeypatch.setattr(_kernel, "_SCAN_BELOW", 0)
    frame = weight_in_front(make_two_row_table((7, 5, 3, 1), 8))
    with pytest.raises(AssertionError, match="split the term tuples"):
        check_tight_frame(frame)


def test_small_grams_of_int_rows_make_no_term_products(monkeypatch):
    """Below the size cut, rows of one radicand each, as built, as a
    plain tuple and read back from either exact format, take their Gram
    as integer dot products, without a ``dot_terms`` call; a frame whose
    rows carry several radicands still scans its term tuples."""
    calls = []
    real = _kernel.dot_terms
    monkeypatch.setattr(_kernel, "dot_terms",
                        lambda u, v: calls.append(1) or real(u, v))
    for family in FAMILIES:
        m = getattr(unitary, family)(8)
        assert _kernel._small(m._data)
        plain = ExactMatrix._raw(8, 8, tuple(m._data))
        read = [deserialize(serialize(m, fmt)) for fmt in ("exact-json",
                                                            "csv")]
        for again in (m, plain, *read):
            assert check_unitary(again).passed
            assert _kernel.gram_terms(again._data, 3, 7) == (
                ExactMatrix.identity(8).scale(Fraction(3, 7))._data)
    assert calls == []
    frame = weight_in_front(make_two_row_table((7, 5, 3, 1), 8))
    for rows in (frame._data, frame.transpose()._data):
        assert _kernel._small(rows) and _kernel.int_rows(rows) is None
        _kernel.gram_terms(rows, 1, 1)
    # one call per pair of rows and per pair of columns
    assert len(calls) == 16 * 17 // 2 + 8 * 9 // 2


def count_reads(monkeypatch):
    """The calls to ``_kernel._split`` and ``_kernel._int_rows``, the
    two ways to read rows, as one list of their names."""
    reads = []
    for name in ("_split", "_int_rows"):
        real = getattr(_kernel, name)
        monkeypatch.setattr(_kernel, name, lambda rows, name=name, real=real:
                            reads.append(name) or real(rows))
    return reads


def test_transforms_leave_the_int_rows_empty(monkeypatch):
    """Every transform, constructor and reader holds its rows as a
    ``TermRows`` with nothing read yet; built rows carry their integer
    rows and are read zero times by their checks, and rows read back
    from a file are read once, however many checks take them."""
    reads = count_reads(monkeypatch)
    m = unitary.constant_first_row(6)
    assert type(m._data) is _kernel.TermRows
    assert vars(m._data).keys() == {"ints"}
    rebuilt = ExactMatrix(m.row(i) for i in range(m.rows))
    for t in (m.transpose(), m.scale(2), m.reverse_rows(), m.reverse_cols(),
              m.reverse_both(), vstack(m, m), hstack(m, m),
              block_diag([m, m]), m.normalize_rows(), rebuilt, m @ m,
              ExactMatrix.identity(3), deserialize(serialize(m, "csv")),
              deserialize(serialize(m)),
              unitary.weave(unitary.WeaveCoefficients(
                  ExactMatrix.identity(2)), [m, m])):
        assert type(t._data) is _kernel.TermRows
        assert vars(t._data) == {}
        assert all(type(row) is tuple for row in t._data)
    # weave's column checks read the blocks' columns, which no matrix keeps
    reads.clear()
    built = unitary.constant_first_row(12)
    read = deserialize(serialize(built, "csv"))
    assert _kernel._small(read._data)
    for again, want in ((built, []), (read, ["_int_rows"])):
        for _ in range(2):
            assert check_unitary(again).passed
        assert reads == want
        reads.clear()


def test_raw_keeps_the_int_rows_and_still_certifies(monkeypatch):
    refuse_the_split(monkeypatch)
    for family in FAMILIES:
        m = getattr(unitary, family)(128)
        again = ExactMatrix._raw(m.rows, m.cols, m._data)
        assert again._data.ints is m._data.ints
        assert check_unitary(again).passed


def test_int_rows_survive_pickle_and_deepcopy(monkeypatch):
    """Copied rows keep what their builder set, ``ints`` or ``split``,
    and their checks read them no more than the originals."""
    reads = count_reads(monkeypatch)
    m = unitary.two_constant_diag(128)
    frame = weight_in_front(make_two_row_table((7, 5, 3, 1), 8))
    for rows in (pickle.loads(pickle.dumps(m._data)), copy.deepcopy(m._data),
                 pickle.loads(pickle.dumps(m))._data,
                 copy.deepcopy(m)._data):
        assert type(rows) is _kernel.TermRows
        assert rows == m._data and hash(rows) == hash(m._data)
        assert vars(rows).keys() == {"ints"}
        assert rows.ints == m._data.ints
        assert check_unitary(ExactMatrix._raw(128, 128, rows)).passed
    for rows in (pickle.loads(pickle.dumps(frame._data)),
                 copy.deepcopy(frame)._data):
        assert type(rows) is _kernel.TermRows
        assert vars(rows).keys() == {"split"}
        assert rows.split == frame._data.split
    assert reads == []


def test_int_rows_are_kept_over_their_least_denominator():
    # rows as (offset, values): zeros after the first row's values, and
    # no values at all in the second
    m = ExactMatrix._from_int_rows(3, (1, 2, 3), ((0, [2, 4]), (1, []),
                                                  (0, [-3, 6, 9])), (6, 5, 3))
    assert m._data.ints == ((1, 2, 3), ((1, 2, 0), (0, 0, 0), (-1, 2, 3)),
                            (3, 1, 1))
    assert m._data == tuple(tuple(_kernel.root_terms(v, d, r) for v in row)
                            for r, row, d in zip(*m._data.ints))


def random_int_rows(rng, n, width):
    """Rows of random radicands and denominators, one of them zero; the
    entries fit int64 with room for the Gram, fit int64 without it, or
    do not fit int64."""
    rads = [rng.choice((1, 2, 3, 5, 6, 7, 10, 30)) for _ in range(n)]
    top = rng.choice((40, 1 << 40, 1 << 70))
    ints = [[rng.choice((0, 0, rng.randint(-top, top))) for _ in range(width)]
            for _ in range(n)]
    if n > 1:
        ints[rng.randrange(n)] = [0] * width
    dens = [rng.randint(1, 12) for _ in range(n)]
    return rads, ints, dens


@pytest.mark.parametrize("seed", range(8))
def test_both_front_ends_fill_the_same_arrays(seed):
    """Built integer rows are one pack of themselves: int64 exactly when
    ``top**2 * width < 2**62``, Python ints otherwise."""
    rng = random.Random(seed)
    for _ in range(6):
        n, width = rng.randint(1, 9), rng.randint(1, 9)
        rads, ints, dens = random_int_rows(rng, n, width)
        m = ExactMatrix._from_int_rows(width, rads, [(0, r) for r in ints],
                                       dens)
        ints = m._data.ints[1]
        gram = graded._Graded(m._data)
        [(left, right, scale)] = gram.packs
        assert left is right and scale == gram.common == 1
        top = max(abs(v) for row in ints for v in row)
        assert left.dtype == (np.int64 if top * top * width < 2 ** 62
                              else object)
        assert left.tolist() == [list(row) for row in ints]
        if left.dtype == object:
            assert all(type(v) is int for v in left.ravel().tolist())
        for diag in ((1, 1), (2, 3), None):
            assert_graded_front_ends_agree(m, diag)
