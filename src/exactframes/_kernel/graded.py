"""Exact Gram matrices of term-tuple rows by integer matrix products.

Each row is written as ``sum_r sqrt(r) * V_r[i] / D[i]``: ``D[i]`` is
the least common denominator of row ``i`` and ``V_r`` is the integer
matrix of its ``sqrt(r)`` coefficients times ``D[i]``.  Then

    <row_i, row_j> = sum_{r, s} g * (V_r V_s^T)[i, j]
                     * sqrt((r/g) * (s/g)) / (D[i] D[j]),   g = gcd(r, s),

and for squarefree ``r`` and ``s`` the core ``(r/g) * (s/g)`` is
squarefree, so nothing is factored.  Given ``r``, the core fixes ``s``
(as prime sets, ``s`` is ``r`` with the core's primes flipped), so at
most one pair of the radicands of rows ``i`` and ``j`` lands on each
(i, j, core).

Rows of one radicand ``r_i`` each, whether built (the unitary
families) or read from a file, are read as dense integer rows ``V``
(:func:`~exactframes._kernel.int_rows`, once per matrix, which keeps
them), so their Gram is the one integer product ``V V^T``: entry (i, j)
is ``g * (V V^T)[i, j]`` times ``sqrt(core) / (D[i] D[j])``, with ``g``
and the core taken from ``r_i`` and ``r_j``.  That is one pack (below) of the matrix ``V``.

Else, when some row carries more than one radicand but every column carries
one (the columns of the unitary families, as the orthogonal-columns
and tight-frame checks read them), every entry is rational and the
rows are not expanded.  ``D[i]`` would be the lcm of the denominators
of all the columns, far past int64, so each column is scaled by its
own instead: column ``c`` is ``sqrt(rho_c) * U_c / E_c`` and

    G = sum_c (rho_c / E_c^2) U_c U_c^T.

The columns are grouped into packs whose common denominator keeps a
proven bound, each pack's product is one int64 matrix product per
block of rows, and the packs are summed in Python ints
(:func:`_packs`).  These packs are the integer rows' case with every
row's radicand and denominator 1.

Other rows, where rows and columns both carry several radicands, are
split term by term (:func:`_split_terms`), in arrays, from the rows'
split (:func:`~exactframes._kernel.split`, taken once per matrix, which
keeps it): their distinct cells, each taken apart once, and the cell at
each position.  The columns of a :class:`~exactframes._kernel.Columns`
are the same split with rows and columns swapped, so a column Gram
neither transposes the rows nor takes them apart again, and
:func:`norms` reads the row norms from it too.
The rows ``V_r[i]`` ("expanded rows") are taken a block of rows at a
time, sorted by radicand within the block, and multiplied a chunk at a
time: each chunk only against the expanded rows whose columns meet its
own, over those columns, so the mostly-zero expanded matrix is never
multiplied whole.  Those candidates are found once per block.  Each
nonzero product takes ``g`` and its core from its own two radicands, so
no table of pairs of radicands is built.  The products of a block are
keyed by (i, j, core) in one integer and summed per key by sorting, so
memory follows one block's entries of the Gram.

:func:`entries` gives the Gram stream of :mod:`exactframes._kernel`
times a rational: for each block of rows, every nonzero entry (i, j)
with ``i <= j`` as a canonical term tuple, the same tuple the pair scan
gives, in row-major order, and the zero diagonal entry of each zero
row.  A reader that stops early stops after the block it stops in.

There is no float anywhere.  Arrays are int64 only when a bound proven
from the inputs keeps every sum and sort key below 2^63 (see
:func:`_dtype`, :meth:`_Graded.fold` and :func:`_packs`); otherwise the
same code runs on arrays of Python ints.

The package (:mod:`exactframes._kernel`) scans a Gram below its size
cut pair by pair and reads :func:`entries` for the rest; it imports
this module, and with it numpy, on the first such Gram.  No other
kernel module imports numpy.
"""

from __future__ import annotations

from itertools import compress, groupby
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from exactframes._kernel import Columns, int_rows, int_term, split

# expanded rows per chunk product
_CHUNK = 32
# pairs (i, j) per block of rows, about: the products of one block are
# alive at once
_BLOCK_PAIRS = 1 << 12
# fewest products gathered before each merge into a block's sorted sums
_MERGE_ENTRIES = 1 << 12
# a sum below 2^62 leaves int64 a factor 2 of headroom
_HALF = 1 << 62


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
    """int64 when no sum of expanded-row products can reach 2^63, else
    object (Python ints).

    A product of two expanded rows is a sum of ``width`` terms of at
    most ``top**2``; it is scaled by ``g <= maxrad``, the largest
    radicand, and at most ``most`` (the most radicands one row
    carries) scaled products fold into one (i, j, core).  The factor 2
    leaves headroom.  The one pack of rows of one radicand each is
    scaled only after it is summed, in Python ints, so it takes
    ``maxrad = most = 1``.  The packs of a column Gram have their own
    bound (:func:`_packs`).
    """
    if top * top * width * maxrad * max(most, 1) < _HALF:
        return np.int64
    return object


def _split_terms(rows) -> tuple:
    """Term-tuple rows taken apart term by term, from their split
    (:func:`~exactframes._kernel.split`): ``(rads, t_i, t_k, t_c, term,
    nums, dens)``.  The term at row ``t_i``, column ``t_c`` and radicand
    ``rads[t_k]`` is ``sqrt(rads[t_k]) * nums[term] / dens[term]``;
    ``nums`` and ``dens`` hold each term of the split's cells once.
    The terms are in row-major order.  The columns of a
    :class:`~exactframes._kernel.Columns` are the split of its rows with
    ``t_i`` and ``t_c`` swapped, in column-major order, and nothing is
    transposed."""
    swap = isinstance(rows, Columns)
    if swap:
        rows = rows.rows
    cells, at = split(rows)
    rad_ids: dict[int, int] = {}
    first, size, rad, nums, dens = [], [], [], [], []
    for cell in cells:
        first.append(len(nums))
        size.append(len(cell))
        for r, num, den in cell:
            rad.append(rad_ids.setdefault(r, len(rad_ids)))
            nums.append(num)
            dens.append(den)
    at = np.asarray(at)
    # the terms at each position, and the position of each term
    size = np.array(size, dtype=np.intp)[at]
    pos = np.repeat(np.arange(len(at)), size)
    # the k-th term of a cell is term first[cell] + k of the table, and
    # t - k terms lie at earlier positions when it is the t-th
    term = np.array(first, dtype=np.intp)[at]
    del at
    term -= np.cumsum(size)
    term += size
    term = np.repeat(term, size)
    term += np.arange(len(term))
    t_i, t_c = np.divmod(pos, len(rows[0]))
    del pos
    if swap:
        t_i, t_c = t_c, t_i
    t_k = np.array(rad, dtype=np.intp)[term]
    return list(rad_ids), t_i, t_k, t_c, term, nums, dens


def _over(group: np.ndarray, size: int, term: np.ndarray, nums: list,
          dens: list) -> tuple:
    """``(common, vals)`` for terms ``nums[term] / dens[term]`` in
    ``size`` groups, term ``t`` in group ``group[t]``: the least common
    denominator of each group (1 for an empty one), and an array of each
    term's numerator over its group's, int64 when a bound allows and
    Python ints otherwise.  Each distinct pair of a group and a
    denominator is taken once in Python."""
    den_ids: dict[int, int] = {}
    den_of = np.array([den_ids.setdefault(d, len(den_ids)) for d in dens],
                      dtype=np.intp)
    values = list(den_ids)
    key = group * len(values)
    key += den_of[term]
    if size * len(values) <= len(key):
        # a table of every pair is no larger than the terms: no sort
        seen = np.zeros(size * len(values), dtype=bool)
        seen[key] = True
        pairs = np.flatnonzero(seen)
        pair = (np.cumsum(seen) - 1)[key]
    else:
        pairs, pair = np.unique(key, return_inverse=True)
    del key
    pairs = [divmod(p, len(values)) for p in pairs.tolist()]
    common = [1] * size
    for g, d in pairs:
        common[g] = lcm(common[g], values[d])
    scale = [common[g] // values[d] for g, d in pairs]
    top = max(map(abs, nums), default=0) * max(scale, default=0)
    dtype = np.int64 if top < 1 << 63 else object
    vals = (np.array(nums, dtype=dtype)[term]
            * np.array(scale, dtype=dtype)[pair])
    return common, vals


def _packs(rads: list, ints: list, dens: list) -> tuple:
    """The column Gram's factors of rows whose every column carries one
    radicand: ``(packs, common)``.

    Column ``c`` is ``sqrt(rho_c) * U_c / E_c``, as the columns'
    :func:`~exactframes._kernel.int_rows` read it, so that

        G = sum_c (rho_c / E_c^2) U_c U_c^T.

    The nonzero columns are taken by ascending ``E_c``, each into the
    first pack that stays in bounds, or else into a new one.  A pack's
    ``Q = lcm(E_c^2)`` keeps ``sum_c rho_c (Q / E_c^2) max|U_c|^2 * 2 <
    2^63``, a bound on every partial sum of the pack's product, so the
    pack is int64; the columns that break the bound alone form one pack
    of Python ints.  A pack is ``(left, right, scale)``, two C-ordered
    ``n x |pack|`` arrays, ``right`` holding the ``U_c`` and ``left``
    the same times ``w_c = rho_c Q / E_c^2``, so that ``G = sum_packs
    scale * left right^T / common`` with ``common = lcm(Q)``.
    """
    costs = [r * max(map(abs, u)) ** 2 for r, u in zip(rads, ints)]
    fits, big = [], []
    for c in sorted(compress(range(len(ints)), costs), key=dens.__getitem__):
        e2, cost = dens[c] ** 2, costs[c]
        if cost >= _HALF:
            big.append(c)
            continue
        for pack in fits:
            cols, q, total = pack
            q2 = lcm(q, e2)
            total = total * (q2 // q) + cost * (q2 // e2)
            if total < _HALF:
                cols.append(c)
                pack[1:] = q2, total
                break
        else:
            fits.append([[c], e2, cost])
    groups = [(cols, q, np.int64) for cols, q, _ in fits]
    if big:
        groups.append((big, lcm(*[dens[c] ** 2 for c in big]), object))
    common = lcm(*[q for _, q, _ in groups])
    packs = []
    for cols, q, dtype in groups:
        right = np.array([ints[c] for c in cols], dtype=dtype).T.copy()
        weight = np.array([rads[c] * (q // dens[c] ** 2) for c in cols],
                          dtype=dtype)
        packs.append((right * weight, right, common // q))
    return packs, common


def _select(mask: np.ndarray, *arrays) -> tuple:
    """``arrays`` where ``mask`` holds: the arrays themselves when it
    holds everywhere."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _ranks(at: np.ndarray) -> tuple:
    """``(cand, rank)`` for ascending expanded rows ``at``: the distinct
    ones, and the place of each of ``at`` among them."""
    first = _starts(at)
    return at[first], np.cumsum(first) - 1


class _Graded:
    """The rows of a matrix as packs whose integer products are its
    Gram, or as expanded integer rows.

    ``rows`` are term-tuple rows, or a
    :class:`~exactframes._kernel.Columns` for a column Gram.  The back
    end is the first that fits the rows, as
    :func:`~exactframes._kernel.int_rows` reads them and their
    transpose (a Columns' own rows, else one column at a time).  Rows of one
    radicand each are one pack ``(V, V, 1)`` of their dense integer
    rows, with ``common = 1``, and row ``i`` is ``sqrt(row_rads[i]) *
    V[i] / dens[i]``.  Else, when every column carries one radicand,
    ``packs`` holds the factors of the column Gram (:func:`_packs`),
    and every ``row_rads[i]`` and ``dens[i]`` is 1.  Otherwise
    ``packs`` is None and the rows are split term by term
    (:func:`_split_terms`) and expanded.

    ``rads`` is then the array of the radicands (int64 below 2^31,
    Python ints past that); expanded row ``e`` is the
    ``sqrt(rads[e_rad[e]])`` part of row ``e_row[e]`` times
    ``dens[e_row[e]]``.  Its nonzero entries are ``t_val`` at columns
    ``t_col``, for the terms with ``t_row == e`` (``t_row`` ascends).
    Expanded rows are sorted by block of rows, then radicand, then row.
    The pair of rows ``(i, j)`` is numbered ``i * n + j``, so pairs
    with ``i <= j`` are numbered in the order of the pair scan.  The
    core of two radicands is below ``span``, so ``pair * span + core``
    numbers the (i, j, core) in the stream's order (:meth:`fold`).
    """

    def __init__(self, rows) -> None:
        self.n = n = len(rows)
        self.width = width = len(rows[0])
        self.block = max(1, _BLOCK_PAIRS // n)
        read = int_rows(rows)
        if read is not None:
            # one radicand per row: the Gram is one integer product
            self.row_rads, ints, self.dens = read
            try:
                v = np.array(ints, dtype=np.int64)
            except OverflowError:
                v = np.array(ints, dtype=object)
            top = max(int(v.max(initial=0)), -int(v.min(initial=0)))
            v = v.astype(_dtype(top, width, 1, 1), copy=False)
            self.packs, self.common = [(v, v, 1)], 1
            return
        read = int_rows(rows.rows if isinstance(rows, Columns)
                        else zip(*rows))
        if read is not None:
            # one radicand per column: <row_i, row_j> is rational, and
            # each column is scaled by its own denominator
            self.packs, self.common = _packs(*read)
            self.row_rads = self.dens = (1,) * n
            return
        rads, t_i, t_k, t_c, term, nums, dens = _split_terms(rows)
        most = _most(t_i, t_k, len(rads))
        self.packs = None
        self.dens, vals = _over(t_i, n, term, nums, dens)
        del term
        top = int(np.abs(vals).max(initial=0))
        maxrad = max(rads, default=1)
        self.dtype = _dtype(top, width, maxrad, most)
        self.rads = np.array(rads, dtype=np.int64 if maxrad < 1 << 31
                             else object)
        self.span = maxrad * maxrad + 1
        key = (t_i // self.block * len(rads) + t_k) * n + t_i
        by = np.argsort(key, kind="stable")
        key = key[by]
        first = _starts(key)
        self.e_row, self.e_rad = t_i[by][first], t_k[by][first]
        self.t_row = np.cumsum(first) - 1
        self.t_col = t_c[by]
        self.t_val = vals.astype(self.dtype, copy=False)[by]

    def stream(self, num: int, den: int):
        """The Gram stream times ``num/den`` (:func:`entries`)."""
        count = -(-self.n // self.block)
        if self.packs is None:
            bounds = np.searchsorted(self.e_row // self.block,
                                     np.arange(count + 1)).tolist()
            blocks = (self._entries(b * self.block, bounds[b],
                                    bounds[b + 1], num, den)
                      for b in range(count))
        else:
            blocks = (self._packed(b * self.block, num, den)
                      for b in range(count))
        for b, block in enumerate(blocks):
            # a zero row has no entry in the products; every other row
            # has a nonzero diagonal entry, its first
            due = i0 = b * self.block
            for i, j, terms in block:
                for k in range(due, i):
                    yield k, k, ()
                due = i + 1
                yield i, j, terms
            for k in range(due, min(i0 + self.block, self.n)):
                yield k, k, ()

    def _packed(self, i0: int, num: int, den: int):
        """The nonzero entries ``(i, j, terms)``, ``i <= j``, of the
        block of rows from ``i0``, in row-major order, from the packs:
        each pack's product in one matrix product, and more than one
        pack combined in Python ints.  Each sum is scaled, as in the
        module docstring, by the two rows' radicands and denominators
        (:func:`~exactframes._kernel.int_term`, as the integer scan
        below the size cut scales its dot products)."""
        i1 = min(i0 + self.block, self.n)
        prods = [left[i0:i1] @ right[i0:].T for left, right, _ in self.packs]
        keep = np.arange(i1 - i0)[:, None] <= np.arange(self.n - i0)
        keep &= np.any([prod != 0 for prod in prods], axis=0)
        a, b = np.nonzero(keep)
        if len(prods) == 1:
            sums = prods[0][a, b].tolist()
        else:
            sums = 0
            for prod, (_, _, scale) in zip(prods, self.packs):
                sums = sums + prod[a, b].astype(object) * scale
            sums = sums.tolist()
        rads, dens, t_den = self.row_rads, self.dens, self.common * den
        for i, j, v in zip((a + i0).tolist(), (b + i0).tolist(), sums):
            if v:
                yield i, j, int_term(v * num, rads[i], rads[j],
                                     t_den * dens[i] * dens[j])

    def _entries(self, i0: int, lo: int, hi: int, num: int, den: int):
        """The nonzero entries ``(i, j, terms)``, ``i <= j``, of the
        block of rows from ``i0`` (the expanded rows ``lo <= e < hi``),
        in row-major order, from :meth:`fold`."""
        dens = self.dens
        pair, core, sums = self.fold(i0, lo, hi)
        for k, group in groupby(zip(pair.tolist(), core.tolist(),
                                    sums.tolist()), key=itemgetter(0)):
            i, j = divmod(k, self.n)
            t_den = dens[i] * dens[j] * den
            terms = []
            for _, c, v in group:
                t_num = v * num
                g = gcd(t_num, t_den)
                terms.append((c, t_num // g, t_den // g))
            yield i, j, tuple(terms)

    def products(self, i0: int, lo: int, hi: int):
        """``(a, b, p)`` arrays over the pairs of an expanded row ``a``
        in ``[lo, hi)``, the block of rows from ``i0``, and any ``b``
        with ``e_row[a] <= e_row[b]`` whose product ``p = <row a, row
        b>`` is nonzero.

        The candidates ``b`` are the expanded rows from ``lo`` on (those
        of this block of rows and later ones) with an entry in the
        block's columns: their terms, and the row of ``right`` each goes
        to, are found once per block, and a chunk that meets fewer
        columns than its block takes those in its own columns."""
        row, t_row = self.e_row, self.t_row
        t_col, t_val = self.t_col, self.t_val
        s0, s1 = np.searchsorted(t_row, [lo, hi]).tolist()
        used = np.zeros(self.width, dtype=bool)
        used[t_col[s0:s1]] = True
        block_used = np.count_nonzero(used)
        terms = _select(used[t_col[s0:]], t_row[s0:], t_col[s0:],
                        t_val[s0:])
        block_terms = terms + _ranks(terms[0])
        starts = np.searchsorted(t_row, list(range(lo, hi, _CHUNK)) + [hi])
        for c0, t0, t1 in zip(range(lo, hi, _CHUNK), starts[:-1],
                              starts[1:]):
            c1 = min(c0 + _CHUNK, hi)
            # the chunk's columns, numbered in order
            used = np.zeros(self.width, dtype=bool)
            used[t_col[t0:t1]] = True
            pos = np.cumsum(used) - 1
            if pos[-1] + 1 < block_used:
                terms = _select(used[block_terms[1]], *block_terms[:3])
                at, col, val, cand, rank = terms + _ranks(terms[0])
            else:
                at, col, val, cand, rank = block_terms
            left = np.zeros((c1 - c0, pos[-1] + 1), dtype=self.dtype)
            left[t_row[t0:t1] - c0, pos[t_col[t0:t1]]] = t_val[t0:t1]
            right = np.zeros((len(cand), pos[-1] + 1), dtype=self.dtype)
            right[rank, pos[col]] = val
            prod = left @ right.T
            keep = prod != 0
            keep &= row[c0:c1, None] <= row[cand]
            a, b = np.nonzero(keep)
            yield a + c0, cand[b], prod[a, b]

    def fold(self, i0: int, lo: int, hi: int) -> tuple:
        """``(pair, core, sums)`` for the expanded rows ``[lo, hi)`` of
        the block of rows from ``i0``: ``sqrt(core[k])`` has coefficient
        ``sums[k] / (D[i] D[j])`` in ``<row_i, row_j>``, with ``(i, j)``
        numbered ``pair[k]``, for every nonzero one, sorted by pair and
        then core.

        Each product of the expanded rows of radicands ``r`` and ``s``
        is scaled by ``g = gcd(r, s)`` and keyed by ``pair * span +
        (r/g) * (s/g)``, so that one sort of the keys orders the sums
        by pair and then core.  The keys are int64 while ``n^2 * span``
        stays below 2^62, and Python ints past that."""
        n, span = self.n, self.span
        wide = n * n * span >= _HALF
        rad = self.rads[self.e_rad]
        keys = [np.zeros(0, dtype=object if wide else np.int64)]
        sums = [np.zeros(0, dtype=self.dtype)]

        def merge():
            k, v = np.concatenate(keys), np.concatenate(sums)
            order = np.argsort(k)
            k, v = k[order], v[order]
            first = _starts(k)
            if not first.all():
                # products are nonzero, and only their sums can cancel
                starts = np.flatnonzero(first)
                v = np.add.reduceat(v, starts)
                live = v != 0
                k, v = k[starts][live], v[live]
            keys[:] = [k]
            sums[:] = [v]

        pending = 0
        for a, b, p in self.products(i0, lo, hi):
            r, s = rad[a], rad[b]
            g = np.gcd(r, s)
            pair = self.e_row[a] * n + self.e_row[b]
            if wide:
                pair = pair.astype(object)
            keys.append(pair * span + np.lcm(r, s) // g)
            sums.append(g.astype(self.dtype, copy=False) * p)
            pending += len(p)
            # merge once the new products outnumber the merged sums, so
            # that the sort work stays near linear when little folds
            if pending > max(_MERGE_ENTRIES, len(keys[0])):
                merge()
                pending = 0
        merge()
        # np.divmod has no loop for Python ints
        return keys[0] // span, keys[0] % span, sums[0]


def entries(rows, num: int, den: int):
    """The Gram stream of ``rows`` times ``num/den`` (see
    :mod:`exactframes._kernel`) by the graded Gram, whatever the size
    of ``rows``."""
    return _Graded(rows).stream(num, den)


def norms(rows) -> list:
    """The squared norm of each row of ``rows`` as a canonical term
    tuple, the diagonal of their Gram, from the rows' split: the square
    ``rad * v^2`` of each term, on core 1, summed a row at a time in one
    array (int64 under the bound of :func:`_dtype`, else Python ints),
    and the cross terms ``2 g v_a v_b sqrt((r_a/g) (r_b/g))`` of each
    cell of several terms, ``g = gcd(r_a, r_b)``, in Python ints, all
    over the square of the row's common denominator."""
    n, width = len(rows), len(rows[0])
    rads, t_i, t_k, t_c, term, nums, dens = _split_terms(rows)
    common, vals = _over(t_i, n, term, nums, dens)
    top = int(np.abs(vals).max(initial=0))
    dtype = _dtype(top, width, max(rads, default=1),
                   _most(t_i, t_k, len(rads)))
    vals = vals.astype(dtype, copy=False)
    squares = np.array(rads, dtype=dtype)[t_k] * vals * vals
    # t_i ascends: the first term of each nonzero row
    firsts = np.flatnonzero(_starts(t_i))
    sums = np.add.reduceat(squares, firsts).tolist() if len(firsts) else []
    cross: dict[int, dict] = {}
    cell = t_i * width + t_c
    later = np.flatnonzero(~_starts(cell))
    if len(later):
        # the terms of the cells of several terms, cell by cell
        many = np.union1d(later - 1, later)
        for at, terms in groupby(zip(cell[many].tolist(), t_k[many].tolist(),
                                     vals[many].tolist()), key=itemgetter(0)):
            terms = [(rads[k], v) for _, k, v in terms]
            acc = cross.setdefault(at // width, {})
            for a, (r, u) in enumerate(terms):
                for s, v in terms[a + 1:]:
                    g = gcd(r, s)
                    core = r // g * (s // g)
                    acc[core] = acc.get(core, 0) + 2 * g * u * v
    out = [()] * n
    for i, total in zip(t_i[firsts].tolist(), sums):
        d = common[i] ** 2
        acc = cross.get(i, {})
        # cross terms never land on core 1: a cell's radicands differ
        acc[1] = total
        out[i] = tuple((c, v // h, d // h) for c, v in sorted(acc.items())
                       if v for h in (gcd(v, d),))
    return out
