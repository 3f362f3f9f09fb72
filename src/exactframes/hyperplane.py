"""Sparse orthogonal bases for hyperplanes of R^n.

A hyperplane basis here is an ``(n-1) x n`` integer matrix whose rows
are nonzero, pairwise orthogonal, and orthogonal to a normal vector
with every coordinate nonzero (so the hyperplane contains no span of a
subset of the coordinate basis).  Rows are kept unnormalized to
preserve sparsity and integrality; :meth:`ExactMatrix.normalize_rows`
turns any of them into an orthonormal basis exactly.

Larger bases are produced by :func:`combine`, which stacks two blocks
diagonally and prepends one new row spanning both column groups.  The
two top-row modes differ in what that new row looks like and what the
combined normal is; :func:`build` picks block sizes recursively so the
result is as sparse as this family allows.

The recursion runs on lists of Python ints and builds each block size
once.  Each row is kept as the run of values that holds its nonzero
entries and the column where the run starts, and a basis it returns is
built from those values alone: about ``n log2 n`` of them for the
``n (n - 1)`` cells of ``build(n)``.  Its rows carry those integer rows
(``ints`` of :class:`~exactframes._kernel.TermRows`), so that
:func:`~exactframes.verify.check_hyperplane_basis` reads them as
integers without taking the term tuples apart.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from exactframes.errors import CombineModeError, DomainError
from exactframes.matrices import ExactMatrix


class TopRowMode(enum.Enum):
    """How :func:`combine` forms the new top row.

    ONES: both blocks are first brought to a form whose rows are
    orthogonal to the all-ones vector; the top row is all ones and the
    combined normal is the integer vector ``(q, ..., q, -p, ..., -p)``
    reduced by ``gcd(p, q)``.

    WEIGHTED: blocks are used exactly as given.  With block normals
    ``u`` (length p) and ``v`` (length q) the top row is
    ``(|v|^2 u | -|u|^2 v)`` and the combined normal is ``(u | v)``.
    """

    ONES = "ones"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class HyperplaneBasis:
    """An exact hyperplane basis with its certified normal vector."""

    matrix: ExactMatrix
    normal: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.cols

    @property
    def sparsity(self) -> int:
        return self.matrix.sparsity()


_BASE_ROWS = {
    2: ([[1, 1]], (1, -1)),
    3: ([[1, 2, 1], [0, -1, 2]], (-5, 2, 1)),
    4: ([[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]], (1, 1, -1, -1)),
}


def base_case(n: int) -> HyperplaneBasis:
    """The hand-built bases for dimensions 2, 3 and 4."""
    if n not in _BASE_ROWS:
        raise DomainError(f"base cases exist for n in (2, 3, 4), not {n}")
    return _basis(_base(n))


# A basis inside the recursion is ``(n, rows, normal)``: its dimension,
# its rows as pairs ``(offset, values)``, row ``(o, v)`` holding the
# list of ints ``v`` from column ``o`` on and zeros elsewhere, and its
# normal as a tuple of ints.  Stacking blocks only shifts offsets.


def _base(n: int) -> tuple:
    rows, normal = _BASE_ROWS[n]
    return n, [(0, row) for row in rows], normal


def _basis(part: tuple) -> HyperplaneBasis:
    """The :class:`HyperplaneBasis` of a basis of the recursion.  Its
    ``(offset, values)`` rows go into the matrix as they are, so that
    only their values are read; the matrix carries the integer rows."""
    n, rows, normal = part
    ones = [1] * len(rows)
    return HyperplaneBasis(ExactMatrix._from_int_rows(n, ones, rows, ones),
                           tuple(normal))


def _as_int_rows(m: ExactMatrix) -> list[list[int]]:
    out = []
    for i, row in enumerate(m._data):
        ints = []
        for j, t in enumerate(row):
            if t and (len(t) != 1 or t[0][0] != 1 or t[0][2] != 1):
                raise DomainError(
                    "hyperplane blocks must have integer entries, found "
                    f"{m.entry(i, j)} at ({i + 1}, {j + 1})")
            ints.append(t[0][1] if t else 0)
        out.append(ints)
    return out


def _ones_form(part: tuple) -> tuple | None:
    """Equivalent basis whose normal is all ones, or None.

    If every row is orthogonal to the ones vector the basis already has
    a ones normal.  Otherwise, when some row is proportional to ones,
    swapping that row with the stored normal yields a valid basis of
    the same hyperplane arrangement with an all-ones normal (the
    orthogonality relations carry over exactly).  Any other shape
    cannot be brought into ones form.
    """
    n, rows, normal = part
    if not any(sum(v) for _, v in rows):
        return part
    for i, (o, v) in enumerate(rows):
        if o == 0 and len(v) == n and v[0] and v.count(v[0]) == n:
            return n, rows[:i] + [(0, list(normal))] + rows[i + 1:], (1,) * n
    return None


def combine(h1: HyperplaneBasis, h2: HyperplaneBasis,
            mode: TopRowMode | None = None) -> HyperplaneBasis:
    """Stack two bases diagonally and prepend a joint top row.

    ``mode=None`` chooses automatically: ONES when both blocks can be
    brought to ones form (this keeps the top row sparse in weight and
    the entries small), WEIGHTED otherwise.  Explicit ONES raises
    CombineModeError when a block has no ones form; explicit WEIGHTED
    uses the blocks exactly as given.  Both blocks must have integer
    entries (DomainError otherwise).
    """
    parts = [(h.dimension, [(0, v) for v in _as_int_rows(h.matrix)],
              tuple(h.normal)) for h in (h1, h2)]
    return _basis(_combine(*parts, mode))


def _combine(h1: tuple, h2: tuple, mode: TopRowMode | None) -> tuple:
    if mode is not TopRowMode.WEIGHTED:
        f1, f2 = _ones_form(h1), _ones_form(h2)
        if f1 is not None and f2 is not None:
            return _combine_ones(f1, f2)
        if mode is TopRowMode.ONES:
            which = "first" if f1 is None else "second"
            raise CombineModeError(
                f"the {which} block has no row proportional to ones and "
                "its rows are not orthogonal to ones; use WEIGHTED mode")
    return _combine_weighted(h1, h2)


def _stack(top: list[int], h1: tuple, h2: tuple) -> list:
    """The rows of ``top`` over the two blocks stacked diagonally."""
    p = h1[0]
    return [(0, top), *h1[1], *((o + p, v) for o, v in h2[1])]


def _combine_ones(h1: tuple, h2: tuple) -> tuple:
    p, q = h1[0], h2[0]
    g = math.gcd(p, q)
    normal = (q // g,) * p + (-(p // g),) * q
    return p + q, _stack([1] * (p + q), h1, h2), normal


def _combine_weighted(h1: tuple, h2: tuple) -> tuple:
    u, v = h1[2], h2[2]
    wu = sum(c * c for c in u)
    wv = sum(c * c for c in v)
    top = [wv * c for c in u] + [-wu * c for c in v]
    return h1[0] + h2[0], _stack(top, h1, h2), u + v


def _split(n: int) -> tuple[int, int]:
    """Block dimensions for :func:`build`, larger block first."""
    if n % 2 == 0:
        if n % 4 == 0:
            return (n // 2, n // 2)
        return (n // 2 + 1, n // 2 - 1)
    # n odd: n = 2^k + 1 + 2i with 2^k the largest power below n;
    # blocks have dimensions 2^(k-1) + 2i and 2^(k-1) + 1
    k = (n - 1).bit_length() - 1
    i2 = n - 1 - (1 << k)
    p = (1 << (k - 1)) + i2
    q = (1 << (k - 1)) + 1
    return (max(p, q), min(p, q))


def build(n: int) -> HyperplaneBasis:
    """Recursively build the sparse hyperplane basis for R^n (n >= 2)."""
    if n < 2:
        raise DomainError(f"hyperplanes of R^n need n >= 2, got {n}")
    return _basis(_built(n, {}))


def _built(n: int, memo: dict) -> tuple:
    """``build(n)`` as a basis of the recursion; ``memo`` holds each
    size built so far, so that each is built once."""
    if n not in memo:
        if n <= 4:
            memo[n] = _base(n)
        else:
            p, q = _split(n)
            memo[n] = _combine(_built(p, memo), _built(q, memo), None)
    return memo[n]


def predicted_sparsity(n: int) -> int:
    """Nonzero count of ``build(n)`` from the size recursion alone."""
    if n < 2:
        raise DomainError(f"hyperplanes of R^n need n >= 2, got {n}")
    if n <= 4:
        return {2: 2, 3: 5, 4: 8}[n]
    p, q = _split(n)
    return n + predicted_sparsity(p) + predicted_sparsity(q)
