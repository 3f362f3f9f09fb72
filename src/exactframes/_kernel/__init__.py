"""The exact arithmetic kernel on radical-term tuples (see ``pycore``)
and the Gram matrices of term-tuple rows.

A Gram is read as one stream of ``(i, j, terms)`` in row-major order:
every diagonal entry and every nonzero entry above the diagonal.  Below
a fixed size the rows are scanned pair by pair (:func:`_scan`), which is
faster there than the fixed cost of the numpy calls; at or above it the
entries come from integer matrix products in ``graded``, the only
kernel module that imports numpy.  It is imported on the first such
Gram, so a command whose Grams all stay below the cut never loads numpy.

Rows of one radicand each are integer rows over a root and a
denominator: :func:`int_rows` reads them so, for the graded Gram and
the hyperplane check, whether the rows were built that way (an
:class:`IntRows`) or read from a file.
"""

from itertools import compress
from math import lcm

from exactframes._kernel.pycore import (add_terms, dot_terms, is_squarefree,
                                        matmul_terms, mul_terms, neg_terms,
                                        root_terms, scale_terms,
                                        squarefree_split)

__all__ = ["IntRows", "add_terms", "dot_terms", "gram_mismatch",
           "gram_terms", "int_rows", "is_squarefree", "matmul_terms",
           "mul_terms", "neg_terms", "root_terms", "scale_terms",
           "squarefree_split"]

# Inputs with fewer entry products n (n + 1) / 2 * width than this are
# scanned pair by pair.  Measured on the small tiers of the construct
# and verify benchmarks (n <= 16), in one process with the cut switched
# from job to job (Python 3.11, numpy 2.4, 2-CPU Xeon): at 400 their
# median job took 6.7 % and 7.9 % longer than scanning everything, at
# 1200 it stayed within 1.2 %, inside the +-3 % noise.  Repeated calls
# in a tight loop cross over near 300 already.  The scan also keeps
# numpy unloaded: about 170 ms of a fresh process's start (README).
_SCAN_BELOW = 1200


class IntRows(tuple):
    """Rows of term tuples that also carry their :func:`int_rows` as
    ``ints = (rads, ints, dens)``, so that the rows are not read again.
    Slicing, adding or rebuilding the rows gives a plain tuple, without
    ``ints``."""


def int_rows(rows) -> tuple | None:
    """``(rads, ints, dens)`` with row ``i`` of ``rows`` equal to
    ``sqrt(rads[i]) * ints[i][c] / dens[i]``, ``dens[i]`` its least
    common denominator, or None when some row carries two radicands.
    A zero row reads as radicand 1.

    An :class:`IntRows` gives its own ``ints``; any other row is read
    once over its support, and each distinct cell of it once, up to the
    first row of two radicands.
    """
    if isinstance(rows, IntRows):
        return rows.ints
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


def _stream(rows, num: int, den: int, diagonal: bool):
    if _small(rows):
        return _scan(rows, num, den, diagonal)
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
