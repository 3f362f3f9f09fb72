"""Constructions of unit-norm 2-tight frames.

A unit-norm 2-tight frame of R^n is a ``2n x n`` matrix whose rows have
unit norm and whose columns are orthogonal with squared norm 2.  The
constructions here distribute a budget of squared weights over column
positions and then fix signs with a recursive ±1 matrix so that column
orthogonality holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from exactframes import _kernel
from exactframes.errors import (DimensionError, DomainError,
                                TableValidationError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import sqrt_rational

RationalLike = Fraction | int


def _fractions(values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class TwoRowTable:
    """Two rows of squared weights that drive :func:`weight_in_front`.

    Width must be a power of two (at least 4).  Entries are nonnegative
    rationals with each column pair summing to ``m`` and both rows
    summing to ``(width / 2) * m``; violations raise
    TableValidationError listing every failing column and both row sums.
    """

    top: tuple[Fraction, ...]
    bottom: tuple[Fraction, ...]
    m: Fraction

    def __init__(self, top: Sequence[RationalLike],
                 bottom: Sequence[RationalLike], m: RationalLike) -> None:
        object.__setattr__(self, "top", _fractions(top))
        object.__setattr__(self, "bottom", _fractions(bottom))
        object.__setattr__(self, "m", Fraction(m))
        self._validate()

    def _validate(self) -> None:
        width = len(self.top)
        if len(self.bottom) != width:
            raise TableValidationError(
                f"rows have different widths: {width} and "
                f"{len(self.bottom)}")
        if width < 4 or width & (width - 1):
            raise TableValidationError(
                f"width must be a power of two and >= 4, got {width}")
        if self.m <= 0:
            raise TableValidationError(f"m must be positive, got {self.m}")
        negatives = [j + 1 for j in range(width)
                     if self.top[j] < 0 or self.bottom[j] < 0]
        if negatives:
            raise TableValidationError(
                f"entries must be nonnegative; columns {negatives} "
                "contain negative values", bad_columns=negatives)
        bad = [j + 1 for j in range(width)
               if self.top[j] + self.bottom[j] != self.m]
        sums = (sum(self.top), sum(self.bottom))
        expected = Fraction(width, 2) * self.m
        if bad or sums[0] != expected or sums[1] != expected:
            details = []
            if bad:
                pairs = ", ".join(
                    f"column {j}: {self.top[j - 1]} + {self.bottom[j - 1]}"
                    f" = {self.top[j - 1] + self.bottom[j - 1]}"
                    for j in bad)
                details.append(f"pair sums must equal m = {self.m} ({pairs})")
            if sums[0] != expected or sums[1] != expected:
                details.append(
                    f"row sums are {sums[0]} and {sums[1]} but must both "
                    f"equal {expected}")
            raise TableValidationError(
                "; ".join(details), bad_columns=bad, row_sums=sums,
                expected_row_sum=expected)

    @property
    def width(self) -> int:
        return len(self.top)

    @property
    def order(self) -> int:
        """k with width == 2**k."""
        return self.width.bit_length() - 1


def make_two_row_table(values: Sequence[RationalLike],
                       m: RationalLike) -> TwoRowTable:
    """Build the valid table ``[values | m - reversed(values)]`` over
    ``[m - values | reversed(values)]``.

    ``values`` supplies the first half of the top row; the identities
    of :class:`TwoRowTable` then hold by construction.  Needs positive
    values, a power-of-two count of them (>= 2) and ``m >= max(values)``.
    """
    vals = _fractions(values)
    if not vals or len(vals) & (len(vals) - 1):
        raise DomainError(
            f"need a power-of-two count of values, got {len(vals)}")
    if len(vals) < 2:
        raise DomainError("need at least 2 values")
    if any(v <= 0 for v in vals):
        raise DomainError("values must be positive")
    mm = Fraction(m)
    if mm < max(vals):
        raise DomainError(
            f"m = {mm} is below the largest value {max(vals)}")
    rev = vals[::-1]
    top = vals + tuple(mm - v for v in rev)
    bottom = tuple(mm - v for v in vals) + rev
    return TwoRowTable(top, bottom, mm)


def abcd_outline(a: RationalLike, b: RationalLike, c: RationalLike,
                 d: RationalLike) -> TwoRowTable:
    """Four positive weights with ``m = a + b + c + d``: the widest
    member of :func:`make_two_row_table` that needs no extra choice of
    ``m``."""
    vals = _fractions([a, b, c, d])
    return make_two_row_table(vals, sum(vals))


def sign_matrix(order: int) -> ExactMatrix:
    """The ±1 matrix of size ``2**order`` used to orient the weights.

    Base case (order 2) is the all-ones matrix with a negative diagonal;
    each step doubles by ``[[S, S], [S, -S]]``.  Its Gram matrix is
    ``2**order * I``, so the columns stay orthogonal.
    """
    if order < 2:
        raise DomainError(f"sign matrices start at order 2, got {order}")
    return ExactMatrix(_signs(order))


def _signs(order: int) -> list[list[int]]:
    """The rows of ``sign_matrix(order)`` as lists of ints."""
    s = [[-1 if i == j else 1 for j in range(4)] for i in range(4)]
    for _ in range(order - 2):
        s = [row + row for row in s] + [row + [-v for v in row] for row in s]
    return s


def _cells(weights: Sequence[Fraction], norm: Fraction) -> list:
    """The cells ``sqrt(w / norm)`` of the weights, then their
    negatives."""
    mags = [sqrt_rational(w / norm)._terms for w in weights]
    return mags + [_kernel.neg_terms(t) for t in mags]


def weight_in_front(table: TwoRowTable) -> ExactMatrix:
    """The unit-norm 2-tight frame carrying the table's weights.

    Writes ``2**k`` signed copies of each table row (k = table order):
    row ``i`` of the top half is ``sign[i][j] * sqrt(top[j] / (2^(k-1) m))``
    and the bottom half repeats this with the bottom weights and the
    same signs.  Unnormalized columns square sum to ``2**k * m`` and
    rows to ``2**(k-1) * m``; after the built-in normalization the
    result is exactly unit-norm and 2-tight.

    The rows are built from the ``4 * 2**k`` distinct cells, a weight's
    root or its negative, which the matrix carries as its split.
    """
    width = table.width
    norm = Fraction(2) ** (table.order - 1) * table.m
    cells = _cells(table.top, norm) + _cells(table.bottom, norm)
    ids = [j if s > 0 else j + width
           for row in _signs(table.order) for j, s in enumerate(row)]
    ids += [p + 2 * width for p in ids]
    return ExactMatrix._from_cells(width, cells, ids)


def ap_two_tight(a: RationalLike, b: RationalLike) -> ExactMatrix:
    """The 8x4 unit-norm 2-tight frame whose squared weights form the
    arithmetic progression ``a, a+b, a+2b, a+3b`` (descending across
    the top half, ascending across the bottom), normalized by
    ``4a + 6b``, with negative signs on the block diagonals.

    Needs ``a > 0`` and ``b >= 0``.
    """
    aa, bb = Fraction(a), Fraction(b)
    if aa <= 0:
        raise DomainError(f"the progression start must be positive, got {aa}")
    if bb < 0:
        raise DomainError(f"the progression step must be >= 0, got {bb}")
    cells = _cells([aa + (3 - j) * bb for j in range(4)], 4 * aa + 6 * bb)
    # the top half, and below it the same reversed along both axes
    ids = [j + 4 if i == j else j for i in range(4) for j in range(4)]
    return ExactMatrix._from_cells(4, cells, ids + ids[::-1])


def iterate_two_tight(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Double a pair of equal-shape blocks into
    ``[L R; L -R; R' L'; R' -L']`` with ``'`` the reversal of both axes.

    Applied to the two column halves of a unit-norm 2-tight frame this
    doubles it into another one of twice the size; the output is
    assembled structurally, so callers certify tightness themselves.
    It is assembled from the split of each block
    (:func:`~exactframes._kernel.split`) and the negatives of their
    cells, and carries its own split.
    """
    if left.shape != right.shape:
        raise DimensionError(
            f"blocks must have equal shapes, got {left.shape} and "
            f"{right.shape}")
    w = left.cols
    cells_l, ids_l = left._data.split
    cells_r, ids_r = right._data.split
    cells = cells_l + cells_r
    # the cells of R, -L and -R follow those of L
    r, neg = len(cells_l), len(cells)
    cells += [_kernel.neg_terms(t) for t in cells]
    ids_r = [p + r for p in ids_r]
    neg_l, neg_r = [p + neg for p in ids_l], [p + neg for p in ids_r]
    # a reversal of both axes reverses the row-major order
    rev_r = ids_r[::-1]
    ids = []
    for first, second in ((ids_l, ids_r), (ids_l, neg_r),
                          (rev_r, ids_l[::-1]), (rev_r, neg_l[::-1])):
        for p in range(0, len(first), w):
            ids += first[p:p + w]
            ids += second[p:p + w]
    return ExactMatrix._from_cells(2 * w, cells, ids)
