"""The exact arithmetic kernel on radical-term tuples (see ``pycore``)
and the Gram matrices of term-tuple rows.

A Gram is read as one stream of ``(i, j, terms)`` in row-major order:
every diagonal entry and every nonzero entry above the diagonal.  Below
a fixed size the rows are scanned pair by pair, which is faster there
than the fixed cost of the numpy calls: rows of one radicand each as
integer dot products in Python ints (:func:`_int_scan`), and only rows
of several radicands on their term tuples (:func:`_scan`).  At or above
it the entries come from integer matrix products in ``graded``, the
only kernel module that imports numpy.  It is imported on the first
such Gram, so a command whose Grams all stay below the cut never loads
numpy.

The rows of every matrix are a :class:`TermRows`, which keeps both
reads of itself once taken, or carries the one its builder made.  Rows
of one radicand each are integer rows over a root and a denominator:
:func:`int_rows` reads them so, for the integer scan, the graded Gram
and the hyperplane check.  :func:`int_dot` is the inner product of two
such rows, and :func:`int_term` makes the term of a nonzero one, for
the integer scan and the graded Gram alike.  Other rows are taken apart
for the graded Gram by :func:`split`: their distinct cells, and which
of them stands at each position.  So a matrix is read at most once
each way, however many checks read it: the Gram of its rows, the Gram
of its columns (a :class:`Columns`, read at or above the size cut
without transposing the rows) and its row norms (:func:`row_norms`) all
read the same split.
"""

from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import mul

from exactframes._kernel.pycore import (add_terms, dot_terms, is_squarefree,
                                        matmul_terms, mul_terms, neg_terms,
                                        root_terms, scale_terms,
                                        squarefree_split)

__all__ = ["Columns", "TermRows", "add_terms", "dot_terms",
           "gram_mismatch", "gram_terms", "int_dot", "int_rows", "int_term",
           "is_squarefree", "matmul_terms", "mul_terms", "neg_terms",
           "root_terms", "row_norms", "scale_terms", "split",
           "squarefree_split"]

# Inputs with fewer entry products n (n + 1) / 2 * width than this are
# scanned pair by pair: as integer dot products when int_rows reads the
# rows, else on their term tuples.  Measured with the integer scan on
# the small tiers of the construct and verify benchmarks (n <= 16), in
# one process with the cut switched from job to job (Python 3.11, numpy
# 2.4, 2-CPU Xeon; 25 rounds at each of two seeds): from 800 to 4200
# the median job stayed within -0.8 % and +1.3 % of 1200, inside the
# noise, and at 400 it took up to 3.1 % longer.  At 2200 three n = 14-16
# orthogonal-columns jobs, whose column Grams carry several radicands a
# row, took 1.4-1.7 times as long.  In a tight loop the graded Gram of
# built integer rows is faster from about n = 10.  The scans also keep
# numpy unloaded: about 170 ms of a fresh process's start (README).
_SCAN_BELOW = 1200


class _Ids(dict):
    """The number of each distinct key, in order of first lookup."""

    def __missing__(self, key) -> int:
        self[key] = number = len(self)
        return number


def _split(rows) -> tuple:
    ids = _Ids()
    at: list = []
    for row in rows:
        at += map(ids.__getitem__, row)
    return list(ids), at


def _int_rows(rows) -> tuple | None:
    rads, ints, dens = [], [], []
    for row in rows:
        cols = list(compress(range(len(row)), row))
        cells = set(map(row.__getitem__, cols))
        rad = next(iter(cells))[0][0] if cells else 1
        if any(len(t) != 1 or t[0][0] != rad for t in cells):
            return None
        den = lcm(*[t[0][2] for t in cells])
        value = {t: t[0][1] * (den // t[0][2]) for t in cells}
        out = [0] * len(row)
        for c in cols:
            out[c] = value[row[c]]
        rads.append(rad)
        ints.append(out)
        dens.append(den)
    return rads, ints, dens


class TermRows(tuple):
    """The rows of a matrix, term tuples, that keep both reads of
    themselves once taken: ``split`` (:func:`split`) and ``ints``
    (:func:`int_rows`).  A builder may set either one.  Slicing,
    adding, zipping or ``tuple()`` of the rows gives a plain tuple,
    without them."""

    @cached_property
    def split(self) -> tuple:
        return _split(self)

    @cached_property
    def ints(self) -> tuple | None:
        return _int_rows(self)


def split(rows) -> tuple:
    """``(cells, ids)``: cells of the term-tuple ``rows``, and the index
    in ``cells`` of the cell at each position, a sequence of ints in
    row-major order.  A :class:`TermRows` gives its own split, which
    its builder may have made with a cell listed twice; other rows are
    taken apart here, each cell looked up once in C and each distinct
    cell listed once."""
    return rows.split if isinstance(rows, TermRows) else _split(rows)


def int_rows(rows) -> tuple | None:
    """``(rads, ints, dens)`` with row ``i`` of ``rows`` equal to
    ``sqrt(rads[i]) * ints[i][c] / dens[i]``, ``dens[i]`` its least
    common denominator, or None when some row carries two radicands.
    A zero row reads as radicand 1.

    A :class:`TermRows` gives its own ``ints``; other rows are read
    here, each row once over its support and each distinct cell of it
    once, up to the first row of two radicands.
    """
    return rows.ints if isinstance(rows, TermRows) else _int_rows(rows)


class Columns:
    """The columns of term-tuple rows, for their Gram
    (:func:`gram_mismatch`, :func:`gram_terms`): ``len``, ``[j]`` and
    iteration give what the tuple of column tuples would give, one
    column at a time.  Below the size cut the Gram scans that tuple; at
    or above it the graded Gram takes the columns apart as the split of
    ``rows`` with rows and columns swapped, so that the rows are not
    transposed."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __iter__(self):
        return zip(*self.rows)


def int_dot(u, v) -> int:
    """The inner product of two integer rows."""
    return sum(map(mul, u, v))


def int_term(v: int, r: int, s: int, d: int) -> tuple:
    """The canonical term tuple of ``v * sqrt(r) * sqrt(s) / d``, for
    squarefree ``r`` and ``s``, ``v != 0`` and ``d > 0``: with ``g =
    gcd(r, s)``, ``g * v * sqrt((r/g) * (s/g)) / d`` in lowest terms.
    The core ``(r/g) * (s/g)`` is squarefree, so nothing is factored."""
    g = gcd(r, s)
    v *= g
    h = gcd(v, d)
    return ((r // g * (s // g), v // h, d // h),)


def _small(rows) -> bool:
    n = len(rows)
    return n * (n + 1) // 2 * len(rows[0]) < _SCAN_BELOW


def _scan(rows, num: int, den: int, diagonal: bool):
    """The Gram stream of ``rows`` times ``num/den``, pair by pair;
    without the diagonal entries unless ``diagonal``."""
    for i, row in enumerate(rows):
        for j in range(i + (not diagonal), len(rows)):
            terms = dot_terms(row, rows[j])
            if terms or i == j:
                yield i, j, scale_terms(terms, num, den)


def _int_scan(read: tuple, num: int, den: int, diagonal: bool):
    """:func:`_scan` of rows of one radicand each, read as
    ``(rads, ints, dens)`` (:func:`int_rows`): each pair is one integer
    dot product, and only a nonzero one is made a term."""
    rads, ints, dens = read
    for i, u in enumerate(ints):
        r, d = rads[i], dens[i] * den
        for j in range(i + (not diagonal), len(ints)):
            v = int_dot(u, ints[j])
            if v:
                yield i, j, int_term(v * num, r, rads[j], d * dens[j])
            elif i == j:
                yield i, j, ()


def _stream(rows, num: int, den: int, diagonal: bool):
    if _small(rows):
        if isinstance(rows, Columns):
            rows = tuple(rows)
        read = int_rows(rows)
        if read is None:
            return _scan(rows, num, den, diagonal)
        return _int_scan(read, num, den, diagonal)
    from exactframes._kernel import graded
    return graded.entries(rows, num, den)


def gram_mismatch(rows, diag: tuple[int, int] | None
                  ) -> tuple[int, int, tuple] | None:
    """The first ``(i, j, entry)``, 0-based with ``i <= j`` in
    row-major order, where ``entry = <rows[i], rows[j]>`` (a canonical
    term tuple) differs from ``p/q`` on the diagonal (``diag == (p,
    q)``, in lowest terms with ``p, q > 0``) and from 0 off it, or None.

    ``diag=None`` compares only the pairs with ``i < j``.
    """
    want = ((1,) + diag,) if diag else None
    for i, j, terms in _stream(rows, 1, 1, diag is not None):
        if i < j or diag and terms != want:
            return i, j, terms
    return None


def gram_terms(rows, num: int, den: int) -> tuple:
    """The Gram matrix of ``rows`` times ``num/den`` (``num != 0``,
    ``den > 0``) as rows of canonical term tuples: entry (i, j) is
    ``scale_terms(dot_terms(rows[i], rows[j]), num, den)``."""
    n = len(rows)
    out = [[()] * n for _ in range(n)]
    for i, j, terms in _stream(rows, num, den, True):
        out[i][j] = out[j][i] = terms
    return tuple(map(tuple, out))


def row_norms(rows):
    """The squared norm of each row of ``rows``, the diagonal of their
    Gram, as canonical term tuples, taken where the Gram would be: below
    the size cut one ``dot_terms`` per row, lazily, and at or above it
    from the rows' split (:func:`exactframes._kernel.graded.norms`)."""
    if _small(rows):
        return map(dot_terms, rows, rows)
    from exactframes._kernel import graded
    return graded.norms(rows)
