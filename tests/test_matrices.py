"""Dense exact matrices: structure operators and block assembly."""

import hashlib
import random
from fractions import Fraction

import pytest

from exactframes import io, matrices
from exactframes.errors import DimensionError, DomainError
from exactframes.matrices import ExactMatrix, block_diag, hstack, vstack
from exactframes.radicals import ZERO, RadicalScalar, make, sqrt_rational


def rand_matrix(rng, rows, cols):
    def cell():
        if rng.random() < 0.3:
            return 0
        return make(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    rng.randint(1, 30))
    return ExactMatrix([[cell() for _ in range(cols)] for _ in range(rows)])


def test_constructor_coerces_and_validates():
    m = ExactMatrix([[1, Fraction(1, 2)], [make(1, 2), 0]])
    assert m.shape == (2, 2)
    assert m.entry(0, 1) == RadicalScalar(Fraction(1, 2))
    assert m.entry(1, 0) == make(1, 2)
    with pytest.raises(DimensionError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        ExactMatrix([])
    with pytest.raises(DimensionError):
        ExactMatrix([[]])


def test_identity_and_entry_indexing():
    eye = ExactMatrix.identity(3)
    assert eye.entry(0, 0) == RadicalScalar(1)
    assert eye.entry(0, 2) == ZERO
    assert eye.row(1) == (ZERO, RadicalScalar(1), ZERO)
    assert eye.column(2) == (ZERO, ZERO, RadicalScalar(1))
    with pytest.raises(IndexError):
        eye.entry(3, 0)
    with pytest.raises(IndexError):
        eye.entry(0, -4)


def test_transpose():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert t.entry(2, 0) == RadicalScalar(3)
    assert t.transpose() == m


def test_matmul():
    a = ExactMatrix([[1, 2], [3, 4]])
    eye = ExactMatrix.identity(2)
    assert a.matmul(eye) == a
    assert (a @ eye) == a
    b = ExactMatrix([[make(1, 2), 0], [0, make(1, 2)]])
    assert b.matmul(b) == ExactMatrix([[2, 0], [0, 2]])
    with pytest.raises(DimensionError):
        a.matmul(ExactMatrix([[1, 2, 3]]))


def test_matmul_properties_randomized():
    rng = random.Random(31)
    for _ in range(20):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 3, 2)
        c = rand_matrix(rng, 2, 2)
        assert a.matmul(b).matmul(c) == a.matmul(b.matmul(c))
        assert a.matmul(b).transpose() == \
            b.transpose().matmul(a.transpose())


def test_reversals():
    m = ExactMatrix([[1, 2], [3, 4], [5, 6]])
    assert m.reverse_rows() == ExactMatrix([[5, 6], [3, 4], [1, 2]])
    assert m.reverse_cols() == ExactMatrix([[2, 1], [4, 3], [6, 5]])
    assert m.reverse_both() == ExactMatrix([[6, 5], [4, 3], [2, 1]])
    assert m.reverse_rows().reverse_cols() == m.reverse_both()
    assert m.reverse_cols().reverse_rows() == m.reverse_both()
    assert m.reverse_both().reverse_both() == m
    assert m.reverse_rows().reverse_rows() == m
    assert m.reverse_cols().reverse_cols() == m


def test_stacking():
    a = ExactMatrix([[1, 2]])
    b = ExactMatrix([[3, 4]])
    assert hstack(a, b) == ExactMatrix([[1, 2, 3, 4]])
    assert vstack(a, b) == ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        hstack(a, ExactMatrix([[1], [2]]))
    with pytest.raises(DimensionError):
        vstack(a, ExactMatrix([[1], [2]]))


def test_block_diag():
    d = block_diag([ExactMatrix([[1, 2]]), ExactMatrix([[3], [4]])])
    assert d == ExactMatrix([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert block_diag([ExactMatrix.identity(2)]) == ExactMatrix.identity(2)
    with pytest.raises(DimensionError):
        block_diag([])


def test_scale_and_sparsity():
    m = ExactMatrix([[1, 0, 2], [0, 3, 0]])
    assert m.sparsity() == 3
    assert m.scale(Fraction(1, 2)).sparsity() == 3
    assert m.scale(make(1, 2)).entry(0, 2) == make(2, 2)
    assert m.scale(0).sparsity() == 0
    assert ExactMatrix([[0, 0], [0, 0]]).sparsity() == 0


def test_row_norm_and_normalize():
    m = ExactMatrix([[1, 2, 1], [0, -1, 2]])
    assert m.row_norm_squared(0) == RadicalScalar(6)
    n = m.normalize_rows()
    assert n.entry(0, 0) == sqrt_rational(Fraction(1, 6))
    assert n.row_norm_squared(0) == RadicalScalar(1)
    assert n.row_norm_squared(1) == RadicalScalar(1)
    assert n.sparsity() == m.sparsity()


def test_normalize_rejects_irrational_norm():
    bad = ExactMatrix([[make(1, 1) + make(1, 2), 0]])
    with pytest.raises(DomainError):
        bad.normalize_rows()
    with pytest.raises(DomainError):
        ExactMatrix([[0, 0]]).normalize_rows()


def test_is_symmetric():
    assert ExactMatrix([[1, 2], [2, 1]]).is_symmetric()
    assert not ExactMatrix([[1, 2], [3, 1]]).is_symmetric()
    assert not ExactMatrix([[1, 2, 3]]).is_symmetric()


def test_to_float_rows():
    m = ExactMatrix([[make(1, 2), Fraction(1, 4)]])
    got = m.to_float_rows()
    assert got[0][0] == pytest.approx(2 ** 0.5, abs=1e-15)
    assert got[0][1] == 0.25


@pytest.fixture
def converted(monkeypatch):
    """The term tuples handed to RadicalScalar.to_float and to the cell
    renderer of matrices, in order."""
    calls = {"float": [], "text": []}
    to_float, render = RadicalScalar.to_float, matrices._format_terms

    def counted_float(self):
        calls["float"].append(self._terms)
        return to_float(self)

    def counted_text(terms):
        calls["text"].append(terms)
        return render(terms)

    monkeypatch.setattr(RadicalScalar, "to_float", counted_float)
    monkeypatch.setattr(matrices, "_format_terms", counted_text)
    return calls


def test_each_distinct_entry_is_converted_once_per_call(converted,
                                                        monkeypatch):
    m = ExactMatrix([[make(1, 2), 0, make(1, 2)], [0, Fraction(1, 3), 0]])
    cells = [RadicalScalar(x)._terms for x in (make(1, 2), 0, Fraction(1, 3))]
    for _ in range(2):
        rows = m.to_float_rows()
        digest = m._text_digest()
    assert rows == [[2 ** 0.5, 0.0, 2 ** 0.5], [0.0, 1 / 3, 0.0]]
    assert digest == hashlib.sha256(str(m).encode()).hexdigest()
    # each call has a memo of its own; the digest's two passes share one
    assert converted["float"] == cells * 2
    assert converted["text"][:6] == cells * 2

    rendered = []
    for fmt, (cell, sep) in list(io._WRITERS.items()):
        def counted(terms, fmt=fmt, cell=cell):
            rendered.append((fmt, terms))
            return cell(terms)
        monkeypatch.setitem(io._WRITERS, fmt, (counted, sep))
    for fmt in io.FORMATS:
        for _ in range(2):
            io.serialize(m, fmt)
    assert rendered == [(fmt, t) for fmt in io.FORMATS for _ in range(2)
                        for t in cells]


def test_mostly_distinct_entries_stop_the_memo_growing(converted,
                                                       monkeypatch):
    monkeypatch.setattr(matrices, "_MEMO_TRIAL", 2)
    m = ExactMatrix([[1, 2, 3, 4], [1, 2, 3, 4]])
    assert m.to_float_rows() == [[1.0, 2.0, 3.0, 4.0]] * 2
    # 1 and 2 fill the memo; 3 finds it mostly distinct, so it keeps
    # nothing more: 1 and 2 are converted once, 3 and 4 at each sight
    assert [t[0][1] for t in converted["float"]] == [1, 2, 3, 4, 3, 4]
    m._text_digest()
    # the digest reads the cells twice, through one memo
    assert [t[0][1] for t in converted["text"]] == [1, 2, 3, 4, 3, 4,
                                                    3, 4, 3, 4]


def test_a_stopped_memo_keeps_nothing_more(monkeypatch):
    monkeypatch.setattr(matrices, "_MEMO_TRIAL", 8)
    memos = []

    class Recorded(matrices._CellMemo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(matrices, "_CellMemo", Recorded)
    monkeypatch.setattr(io, "_CellMemo", Recorded)
    cells = [Fraction(k + 1, k + 2) for k in range(32 * 32)]
    m = ExactMatrix([cells[i:i + 32] for i in range(0, 32 * 32, 32)])
    for fmt in io.FORMATS:
        io.serialize(m, fmt)
    m.to_float_rows()
    m._text_digest()
    # 8 texts fill the memo, and the cells seen by then are fewer than
    # twice as many: it keeps nothing more, however many cells follow
    assert len(memos) == len(io.FORMATS) + 2
    assert all(len(memo) <= 16 for memo in memos)


def test_str_alignment():
    text = str(ExactMatrix([[1, -10], [Fraction(1, 2), 3]]))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[") and lines[0].endswith("]")
    assert len(lines[0]) == len(lines[1])


def test_equality_and_hash():
    a = ExactMatrix([[make(1, 8)]])
    b = ExactMatrix([[make(2, 2)]])
    assert a == b and hash(a) == hash(b)
    assert a != ExactMatrix([[make(2, 2), 0]])
    assert a != "not a matrix"
