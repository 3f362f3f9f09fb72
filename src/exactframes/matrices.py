"""Dense exact matrices over :class:`~exactframes.radicals.RadicalScalar`.

Rows are the frame vectors throughout the package: an ``M x N`` matrix
holds ``M`` vectors in ``R^N`` as its rows, so the synthesis operator of
a frame is the transpose.  Matrices are immutable; all arithmetic is
exact and ``==`` is exact entrywise equality.

Internally each entry is a canonical kernel term tuple, which keeps the
hot paths (Gram matrices, products) free of wrapper objects.  Every
matrix holds its rows as a :class:`~exactframes._kernel.TermRows`,
which keeps its integer rows and its split once read, so that a second
check of the same matrix reads neither again.  A matrix built from
integer rows of one radicand each carries those integer rows from the
start, for the Grams and the hyperplane check of its re-check; one
built from a table of distinct cells carries the table as its split.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Iterator, Sequence

from exactframes import _kernel
from exactframes.errors import DimensionError, DomainError
from exactframes.radicals import (RadicalScalar, _format_terms, _terms_of,
                                  sqrt_rational)

EntryLike = RadicalScalar | Fraction | int

# A cell memo (a read's parsed cells, a write's or a conversion's texts
# or floats) keeps each cell until it holds this many cells and they are
# more than half of the cells seen, and then nothing more for the rest
# of the call: an input of mostly distinct cells remembers about this
# many.  Every cell is still looked up, which saves a repeat it holds.
_MEMO_TRIAL = 1024


class _CellMemo(dict):
    """The value of each distinct cell of one call, by its key.
    ``memo[key]`` makes a missing value with ``make`` and offers it to
    :meth:`keep`; :meth:`row` maps a row in C and adds it to ``seen``,
    the count of cells seen.  The csv reader makes its values inline,
    sets ``seen`` and calls :meth:`keep`."""

    __slots__ = ("make", "seen", "full")

    def __init__(self, make=None) -> None:
        self.make = make
        self.seen = 0
        self.full = False

    def __missing__(self, key):
        value = self.make(key)
        self.keep(key, value)
        return value

    def keep(self, key, value) -> None:
        """Keep ``value`` under ``key`` by the rule of ``_MEMO_TRIAL``."""
        if self.full:
            return
        if len(self) >= _MEMO_TRIAL and 2 * len(self) > self.seen:
            self.full = True
        else:
            self[key] = value

    def row(self, cells) -> list:
        values = list(map(self.__getitem__, cells))
        self.seen += len(values)
        return values


class ExactMatrix:
    """Immutable dense matrix with exact radical-scalar entries."""

    __slots__ = ("_rows", "_cols", "_data")

    def __init__(self, rows: Iterable[Iterable[EntryLike]]) -> None:
        data = _kernel.TermRows(tuple(map(_terms_of, row)) for row in rows)
        if not data:
            raise DimensionError("matrix needs at least one row")
        width = len(data[0])
        if width == 0:
            raise DimensionError("matrix needs at least one column")
        if any(len(row) != width for row in data):
            raise DimensionError("rows have unequal lengths")
        self._rows = len(data)
        self._cols = width
        self._data = data

    @classmethod
    def _raw(cls, rows: int, cols: int, data: tuple) -> ExactMatrix:
        """The matrix of the term-tuple rows ``data``, kept as they are
        when they are a :class:`~exactframes._kernel.TermRows`."""
        self = object.__new__(cls)
        self._rows = rows
        self._cols = cols
        self._data = (data if isinstance(data, _kernel.TermRows)
                      else _kernel.TermRows(data))
        return self

    @classmethod
    def _from_int_rows(cls, cols: int, rads, rows, dens) -> ExactMatrix:
        """The ``len(rows) x cols`` matrix whose row ``i``, with
        ``rows[i] = (offset, values)``, is ``sqrt(rads[i]) * v / dens[i]``
        for each ``v`` of the list of Python ints ``values`` from column
        ``offset`` on, and zero elsewhere; ``rads[i]`` is squarefree and
        ``dens[i] > 0``.  A dense row is the row at offset 0.

        Only the values are read: the term tuple of each distinct value
        is built once, and each row is a row of zeros, ``()`` in the term
        rows and ``0`` in the integer rows, with its values put in place
        in one slice assignment.  ``_data`` carries as its ``ints`` the
        dense integer rows, each divided by the gcd of its values and
        denominator, so that ``dens[i]`` is the least common denominator
        of row ``i``; the Grams and the hyperplane check read them.
        Every transform builds new rows, without them.
        """
        data, int_rows, int_dens = [], [], []
        cells: dict = {}
        for r, (offset, values), d in zip(rads, rows, dens):
            distinct = set(values)
            g = gcd(d, *distinct)
            if g > 1:
                d //= g
                values = [v // g for v in values]
                distinct = {v // g for v in distinct}
            memo = cells.setdefault((r, d), {})
            for v in distinct.difference(memo):
                memo[v] = _kernel.root_terms(v, d, r)
            span = slice(offset, offset + len(values))
            terms, ints = [()] * cols, [0] * cols
            terms[span] = map(memo.__getitem__, values)
            ints[span] = values
            data.append(tuple(terms))
            int_rows.append(tuple(ints))
            int_dens.append(d)
        data = _kernel.TermRows(data)
        data.ints = (tuple(rads), tuple(int_rows), tuple(int_dens))
        return cls._raw(len(data), cols, data)

    @classmethod
    def _from_cells(cls, cols: int, cells: list, ids: list) -> ExactMatrix:
        """The matrix with ``cols`` columns whose cell at row-major
        position ``p`` is the canonical term tuple ``cells[ids[p]]``.
        Each row is looked up in C, and ``_data`` carries ``(cells,
        ids)`` as its split, ``ids`` kept as machine ints, so that the
        Grams and row norms of its re-check do not take it apart."""
        # imported here, its only use, so that loading the package does
        # not load it
        from array import array

        get = cells.__getitem__
        data = _kernel.TermRows(tuple(map(get, ids[p:p + cols]))
                                for p in range(0, len(ids), cols))
        data.split = (cells, array("i", ids))
        return cls._raw(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        if n < 1:
            raise DimensionError("identity needs n >= 1")
        one = _terms_of(1)
        return cls._raw(n, n, tuple(
            tuple(one if i == j else () for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._cols)

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def entry(self, i: int, j: int) -> RadicalScalar:
        """Entry at 0-based position ``(i, j)``."""
        return RadicalScalar._raw(self._data[i][j])

    def row(self, i: int) -> tuple[RadicalScalar, ...]:
        return tuple(RadicalScalar._raw(t) for t in self._data[i])

    def column(self, j: int) -> tuple[RadicalScalar, ...]:
        return tuple(RadicalScalar._raw(row[j]) for row in self._data)

    def transpose(self) -> ExactMatrix:
        return ExactMatrix._raw(self._cols, self._rows,
                                tuple(zip(*self._data)))

    def matmul(self, other: ExactMatrix) -> ExactMatrix:
        if self._cols != other._rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}")
        product = _kernel.matmul_terms(self._data, other._data)
        return ExactMatrix._raw(self._rows, other._cols,
                                tuple(tuple(row) for row in product))

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        return self.matmul(other)

    def scale(self, factor: EntryLike) -> ExactMatrix:
        """Multiply every entry by an exact scalar."""
        f = _terms_of(factor)
        if len(f) == 1 and f[0][0] == 1:
            _, num, den = f[0]
            data = tuple(tuple(_kernel.scale_terms(t, num, den)
                               for t in row) for row in self._data)
        else:
            data = tuple(tuple(_kernel.mul_terms(t, f) for t in row)
                         for row in self._data)
        return ExactMatrix._raw(self._rows, self._cols, data)

    def reverse_rows(self) -> ExactMatrix:
        return ExactMatrix._raw(self._rows, self._cols, self._data[::-1])

    def reverse_cols(self) -> ExactMatrix:
        return ExactMatrix._raw(self._rows, self._cols,
                                tuple(row[::-1] for row in self._data))

    def reverse_both(self) -> ExactMatrix:
        return ExactMatrix._raw(self._rows, self._cols,
                                tuple(row[::-1] for row in self._data[::-1]))

    def sparsity(self) -> int:
        """Number of nonzero entries."""
        return sum(1 for row in self._data for t in row if t)

    def row_norm_squared(self, i: int) -> RadicalScalar:
        return RadicalScalar._raw(
            _kernel.dot_terms(self._data[i], self._data[i]))

    def normalize_rows(self) -> ExactMatrix:
        """Scale each row to unit Euclidean norm.

        Exact only when every squared row norm is rational (true for all
        integer matrices); raises DomainError otherwise or on zero rows.
        Only the support of each row is read and scaled, each distinct
        cell of a row once; its zeros stay the shared ``()``.
        """
        out = []
        columns = range(self._cols)
        # squared norm -> the factor that scales it to 1
        factors: dict[tuple, tuple] = {}
        for i, row in enumerate(self._data):
            at = list(compress(columns, row))
            cells = list(map(row.__getitem__, at))
            nsq = _kernel.dot_terms(cells, cells)
            if not nsq:
                raise DomainError(f"row {i + 1} is zero, cannot normalize")
            if len(nsq) != 1 or nsq[0][0] != 1:
                raise DomainError(
                    f"row {i + 1} has irrational squared norm; "
                    "exact normalization is not available")
            factor = factors.get(nsq)
            if factor is None:
                factor = factors[nsq] = sqrt_rational(
                    Fraction(nsq[0][2], nsq[0][1]))._terms
            scaled = {t: _kernel.mul_terms(t, factor) for t in set(cells)}
            new = list(row)
            for c, t in zip(at, cells):
                new[c] = scaled[t]
            out.append(tuple(new))
        return ExactMatrix._raw(self._rows, self._cols, tuple(out))

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        d = self._data
        return all(d[i][j] == d[j][i]
                   for i in range(self._rows) for j in range(i))

    def to_float_rows(self) -> list[list[float]]:
        """Nearest floats of the entries; each distinct entry is
        converted once while the memo keeps it."""
        floats = _CellMemo(lambda t: RadicalScalar._raw(t).to_float())
        return list(map(floats.row, self._data))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __str__(self) -> str:
        return "\n".join(self._text_lines())

    def _text_digest(self) -> str:
        """Hex sha256 of ``str(self)``, fed line by line so that the
        text of a large matrix is never held whole."""
        # imported here, its only use, so that loading the package does
        # not load it
        import hashlib

        h = hashlib.sha256()
        sep = b""
        for line in self._text_lines():
            h.update(sep + line.encode("utf-8"))
            sep = b"\n"
        return h.hexdigest()

    def _text_lines(self) -> Iterator[str]:
        """The lines of ``str(self)``, one per row, each cell
        right-aligned to its column.  The cells are read twice, for the
        column widths and for the lines, and one memo serves both
        passes, so each distinct entry is formatted once while the memo
        keeps it."""
        texts = _CellMemo(_format_terms)
        widths = [0] * self._cols
        for cells in map(texts.row, self._data):
            widths = list(map(max, widths, map(len, cells)))
        for cells in map(texts.row, self._data):
            yield "[" + "  ".join(map(str.rjust, cells, widths)) + "]"

    def __repr__(self) -> str:
        return f"<ExactMatrix {self._rows}x{self._cols}>"


def hstack(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    if left.rows != right.rows:
        raise DimensionError(
            f"hstack needs equal row counts, got {left.shape} and "
            f"{right.shape}")
    data = tuple(a + b for a, b in zip(left._data, right._data))
    return ExactMatrix._raw(left.rows, left.cols + right.cols, data)


def vstack(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    if top.cols != bottom.cols:
        raise DimensionError(
            f"vstack needs equal column counts, got {top.shape} and "
            f"{bottom.shape}")
    return ExactMatrix._raw(top.rows + bottom.rows, top.cols,
                            top._data + bottom._data)


def block_diag(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    if not blocks:
        raise DimensionError("block_diag needs at least one block")
    total_cols = sum(b.cols for b in blocks)
    data = []
    offset = 0
    for b in blocks:
        for row in b._data:
            data.append(((),) * offset + row
                        + ((),) * (total_cols - offset - b.cols))
        offset += b.cols
    return ExactMatrix._raw(len(data), total_cols, tuple(data))
