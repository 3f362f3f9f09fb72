"""Exact Gram matrices of term-tuple rows by integer matrix products.

Each row is written as ``sum_r sqrt(r) * V_r[i] / D[i]``: ``D[i]`` is
the least common denominator of row ``i`` and ``V_r`` is the integer
matrix of its ``sqrt(r)`` coefficients times ``D[i]``.  These arrays
come from one of two front ends, picked by the type of the rows.  Rows
that are an :class:`~exactframes._kernel.IntRows` (the unitary
families, through ``ExactMatrix._from_int_rows``) carry integer rows of
one radicand each, and the nonzero entries of their dense array are the
terms directly.  Other rows (read from a file, or transformed) are
split term by term.  Everything after the front end is shared.  Then

    <row_i, row_j> = sum_{r, s} g * (V_r V_s^T)[i, j]
                     * sqrt((r/g) * (s/g)) / (D[i] D[j]),   g = gcd(r, s),

and for squarefree ``r`` and ``s`` the core ``(r/g) * (s/g)`` is
squarefree, so nothing is factored.  Given ``r``, the core fixes ``s``
(as prime sets, ``s`` is ``r`` with the core's primes flipped), so at
most one pair of the radicands of rows ``i`` and ``j`` lands on each
(i, j, core).

The rows ``V_r[i]`` ("expanded rows") are taken a block of rows at a
time, sorted by radicand within the block, and multiplied a chunk at a
time: each chunk only against the expanded rows whose columns meet its
own, over those columns, so the mostly-zero expanded matrix is never
multiplied whole.  The nonzero products of a block are summed per
(core, i, j) by sorting, so memory follows one block's entries of the
Gram.  When every row, or every column, carries at most one radicand,
the pairs (i, j) and the products map one to one and nothing is summed.

:func:`entries` gives the Gram stream of :mod:`exactframes._kernel`
times a rational: for each block of rows, every nonzero entry (i, j)
with ``i <= j`` as a canonical term tuple, the same tuple the pair scan
gives, sorted into row-major order, and the zero diagonal entry of each
zero row.  A reader that stops early stops after the block it stops in.

There is no float anywhere.  Arrays are int64 only when a bound proven
from the inputs keeps every sum below 2^63 (see :func:`_dtype`);
otherwise the same code runs on arrays of Python ints.

The package (:mod:`exactframes._kernel`) scans a Gram below its size
cut pair by pair and reads :func:`entries` for the rest; it imports
this module, and with it numpy, on the first such Gram.  No other
kernel module imports numpy.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from exactframes._kernel import IntRows

# expanded rows per chunk product
_CHUNK = 32
# pairs (i, j) per block of rows, about: the products of one block are
# alive at once
_BLOCK_PAIRS = 1 << 12
# products gathered before each merge into a block's sorted sums
_MERGE_ENTRIES = 1 << 12


def _starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``key`` starts."""
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _most(group: np.ndarray, k: np.ndarray, size: int) -> int:
    """The most distinct values of ``k`` (each below ``size``) that
    share a value of ``group``."""
    if not len(k):
        return 0
    key = np.sort(group * size + k)
    key = key[_starts(key)]
    return int(np.bincount(key // size).max())


def _dtype(top: int, width: int, maxrad: int, most: int):
    """int64 when no sum can reach 2^63, else object (Python ints).

    A product of two expanded rows is a sum of ``width`` terms of at
    most ``top**2``; it is scaled by ``g <= maxrad``, and at most
    ``most`` (the most radicands one row carries) scaled products fold
    into one (i, j, core).  The factor 2 leaves headroom.  Unfolded
    products are scaled by ``g`` in Python ints, so callers pass
    ``maxrad = most = 1`` for them.
    """
    if top * top * width * maxrad * max(most, 1) * 2 < 1 << 63:
        return np.int64
    return object


def _split_terms(rows) -> tuple:
    """The parts of :class:`_Graded` taken from term-tuple rows, term
    by term: ``(dens, rads, t_i, t_k, t_c, vals, top, most)``.  The
    term at row ``t_i``, column ``t_c`` and radicand ``rads[t_k]`` is
    ``sqrt(rads[t_k]) * vals / dens[t_i]``, in row-major order; ``top``
    is the largest ``|vals|`` and ``most`` the most radicands one row
    carries."""
    dens = []
    rad_ids: dict[int, int] = {}
    at, rad, cols, vals = [], [], [], []
    for i, row in enumerate(rows):
        d = lcm(*[t[2] for e in row for t in e])
        dens.append(d)
        for c, e in enumerate(row):
            for r, num, den in e:
                at.append(i)
                rad.append(rad_ids.setdefault(r, len(rad_ids)))
                cols.append(c)
                vals.append(num * (d // den))
    t_i, t_k, t_c = (np.array(x, dtype=np.intp) for x in (at, rad, cols))
    top = max(map(abs, vals), default=0)
    return (dens, list(rad_ids), t_i, t_k, t_c, vals, top,
            _most(t_i, t_k, len(rad_ids)))


def _read_ints(rads, ints, dens) -> tuple:
    """The parts of :func:`_split_terms` read from integer rows of one
    radicand each, row ``i`` being ``sqrt(rads[i]) * ints[i] /
    dens[i]`` with ``dens[i]`` its least common denominator (as an
    :class:`~exactframes._kernel.IntRows` carries them): the nonzero
    entries of the dense rows, in the same order and with the same
    values as the terms split from the rows' term tuples."""
    try:
        dense = np.array(ints, dtype=np.int64)
    except OverflowError:
        dense = np.array(ints, dtype=object)
    t_i, t_c = np.nonzero(dense)
    vals = dense[t_i, t_c]
    del dense
    top = max(int(vals.max(initial=0)), -int(vals.min(initial=0)))
    # radicands numbered in the order the term split meets them
    rad_ids: dict[int, int] = {}
    live = t_i[_starts(t_i)]
    k_of_row = np.zeros(len(rads), dtype=np.intp)
    k_of_row[live] = [rad_ids.setdefault(rads[i], len(rad_ids))
                      for i in live.tolist()]
    return (list(dens), list(rad_ids), t_i, k_of_row[t_i], t_c, vals, top,
            min(len(vals), 1))


class _Graded:
    """The rows of a matrix as expanded integer rows.

    ``rads`` lists the radicands; expanded row ``e`` is the
    ``sqrt(rads[e_rad[e]])`` part of row ``e_row[e]`` times
    ``dens[e_row[e]]``.  Its nonzero entries are ``t_val`` at columns
    ``t_col``, for the terms with ``t_row == e`` (``t_row`` ascends);
    as the left factor of a product they are ``t_left``, which differs
    only when each column carries one radicand (see ``__init__``).
    Expanded rows are sorted by block of rows, then radicand, then row.
    The pair of rows ``(i, j)`` is numbered ``i * n + j``, so pairs
    with ``i <= j`` are numbered in the order of the pair scan.

    The terms come from one of two front ends: the integer rows of an
    :class:`~exactframes._kernel.IntRows` (:func:`_read_ints`), or the
    term tuples of any other rows, split term by term
    (:func:`_split_terms`).  Everything after them is shared.
    """

    def __init__(self, rows) -> None:
        self.n = n = len(rows)
        self.width = width = len(rows[0])
        (self.dens, rads, t_i, t_k, t_c, vals, top, most) = (
            _read_ints(*rows.ints) if isinstance(rows, IntRows)
            else _split_terms(rows))
        weight = None
        # one radicand per row: the products map one to one onto the
        # pairs (i, j)
        self.single = most <= 1
        if self.single:
            self.dtype = _dtype(top, width, 1, 1)
        elif _most(t_c, t_k, len(rads)) <= 1:
            # one radicand per column: <row_i, row_j> is rational, the
            # sum over the columns of their radicand times the
            # coefficients, so rows stay whole and the left factor of
            # each product carries the radicands
            self.single = True
            self.dtype = _dtype(top, width, max(rads), 1)
            weight = np.array(rads, dtype=self.dtype)[t_k]
            t_k = np.zeros_like(t_k)
            rads = [1]
        else:
            self.dtype = _dtype(top, width, max(rads), most)
        self.rads = rads
        self.block = max(1, _BLOCK_PAIRS // n)
        key = (t_i // self.block * len(rads) + t_k) * n + t_i
        by = np.argsort(key, kind="stable")
        key = key[by]
        first = _starts(key)
        self.e_row, self.e_rad = t_i[by][first], t_k[by][first]
        self.t_row = np.cumsum(first) - 1
        self.t_col = t_c[by]
        self.t_val = np.asarray(vals, dtype=self.dtype)[by]
        del vals
        self.t_left = self.t_val if weight is None else (
            self.t_val * weight[by])
        if not self.single:
            self._core_tables()

    def _core_tables(self) -> None:
        """``cores`` ascending, and for each pair of radicand indices
        that share a column, the index of its core in ``core_of`` and
        its gcd in ``g_of``."""
        meets = np.zeros((len(self.rads), self.width), dtype=np.intp)
        meets[self.e_rad[self.t_row], self.t_col] = 1
        by_pair = {}
        for x, y in zip(*(p.tolist() for p
                          in np.nonzero(np.triu(meets @ meets.T)))):
            r, s = self.rads[x], self.rads[y]
            g = gcd(r, s)
            by_pair[x, y] = ((r // g) * (s // g), g)
        self.cores = sorted({core for core, _ in by_pair.values()})
        index = {core: c for c, core in enumerate(self.cores)}
        shape = (len(self.rads), len(self.rads))
        self.core_of = np.zeros(shape, dtype=np.intp)
        self.g_of = np.zeros(shape, dtype=self.dtype)
        for (x, y), (core, g) in by_pair.items():
            self.core_of[x, y] = self.core_of[y, x] = index[core]
            self.g_of[x, y] = self.g_of[y, x] = g

    def stream(self, num: int, den: int):
        """The Gram stream times ``num/den`` (:func:`entries`)."""
        count = -(-self.n // self.block)
        bounds = np.searchsorted(self.e_row // self.block,
                                 np.arange(count + 1)).tolist()
        for b in range(count):
            # a zero row has no entry in the products; every other row
            # has a nonzero diagonal entry, its first
            due = i0 = b * self.block
            for i, j, terms in self._entries(i0, bounds[b], bounds[b + 1],
                                             num, den):
                for k in range(due, i):
                    yield k, k, ()
                due = i + 1
                yield i, j, terms
            for k in range(due, min(i0 + self.block, self.n)):
                yield k, k, ()

    def _entries(self, i0: int, lo: int, hi: int, num: int, den: int):
        """The nonzero entries ``(i, j, terms)``, ``i <= j``, of the
        block of rows from ``i0`` (the expanded rows ``lo <= e < hi``),
        in row-major order."""
        dens, rads = self.dens, self.rads

        def term(core, i, j, v):
            t_num, t_den = v * num, dens[i] * dens[j] * den
            g = gcd(t_num, t_den)
            return core, t_num // g, t_den // g

        if self.single:
            # one product per pair (i, j), in radicand order: sorting
            # compares only (i, j)
            for i, j, x, y, v in sorted(
                    entry for a, b, p in self.products(i0, lo, hi)
                    for entry in zip(
                        self.e_row[a].tolist(), self.e_row[b].tolist(),
                        self.e_rad[a].tolist(), self.e_rad[b].tolist(),
                        p.tolist())):
                r, s = rads[x], rads[y]
                g = gcd(r, s)
                yield i, j, (term((r // g) * (s // g), i, j, g * v),)
        else:
            pair, core, sums = self.fold(i0, lo, hi)
            for k, group in groupby(zip(pair.tolist(), core.tolist(),
                                        sums.tolist()), key=itemgetter(0)):
                i, j = divmod(k, self.n)
                yield i, j, tuple(term(self.cores[c], i, j, v)
                                  for _, c, v in group)

    def products(self, i0: int, lo: int, hi: int):
        """``(a, b, p)`` arrays over the pairs of an expanded row ``a``
        in ``[lo, hi)``, the block of rows from ``i0``, and any ``b``
        with ``e_row[a] <= e_row[b]`` whose product ``p = <row a, row
        b>`` is nonzero."""
        row = self.e_row
        starts = np.searchsorted(self.t_row,
                                 list(range(lo, hi, _CHUNK)) + [hi])
        for c0, t0, t1 in zip(range(lo, hi, _CHUNK), starts[:-1],
                              starts[1:]):
            c1 = min(c0 + _CHUNK, hi)
            # the chunk's columns, numbered in order
            used = np.zeros(self.width, dtype=bool)
            used[self.t_col[t0:t1]] = True
            pos = np.cumsum(used) - 1
            # the expanded rows of this block or later ones with an
            # entry in those columns
            hit = used[self.t_col]
            near = np.zeros(len(row), dtype=bool)
            near[self.t_row[hit]] = True
            near &= row >= i0
            cand = np.flatnonzero(near)
            hit &= near[self.t_row]
            left = np.zeros((c1 - c0, pos[-1] + 1), dtype=self.dtype)
            left[self.t_row[t0:t1] - c0, pos[self.t_col[t0:t1]]] = (
                self.t_left[t0:t1])
            right = np.zeros((len(cand), pos[-1] + 1), dtype=self.dtype)
            right[np.searchsorted(cand, self.t_row[hit]),
                  pos[self.t_col[hit]]] = self.t_val[hit]
            prod = left @ right.T
            keep = prod != 0
            keep &= row[c0:c1, None] <= row[cand]
            a, b = np.nonzero(keep)
            yield a + c0, cand[b], prod[a, b]

    def fold(self, i0: int, lo: int, hi: int) -> tuple:
        """``(pair, core, sums)`` for the expanded rows ``[lo, hi)`` of
        the block of rows from ``i0``: ``sqrt(cores[core[k]])`` has coefficient
        ``sums[k] / (D[i] D[j])`` in ``<row_i, row_j>``, with ``(i, j)``
        numbered ``pair[k]``, for every nonzero one, sorted by pair and
        then core.  For rows with more than one radicand."""
        ncores = len(self.cores)
        keys = [np.zeros(0, dtype=np.intp)]
        sums = [np.zeros(0, dtype=self.dtype)]

        def merge():
            k, v = np.concatenate(keys), np.concatenate(sums)
            order = np.argsort(k, kind="stable")
            k, v = k[order], v[order]
            starts = np.flatnonzero(_starts(k))
            if len(starts):
                v = np.add.reduceat(v, starts)
                k = k[starts]
            live = v != 0
            keys[:] = [k[live]]
            sums[:] = [v[live]]

        pending = 0
        for a, b, p in self.products(i0, lo, hi):
            ra, rb = self.e_rad[a], self.e_rad[b]
            pair = self.e_row[a] * self.n + self.e_row[b]
            keys.append(pair * ncores + self.core_of[ra, rb])
            sums.append(self.g_of[ra, rb] * p)
            pending += len(p)
            if pending > _MERGE_ENTRIES:
                merge()
                pending = 0
        merge()
        pair, core = np.divmod(keys[0], ncores)
        return pair, core, sums[0]


def entries(rows, num: int, den: int):
    """The Gram stream of ``rows`` times ``num/den`` (see
    :mod:`exactframes._kernel`) by the graded Gram, whatever the size
    of ``rows``."""
    return _Graded(rows).stream(num, den)
