"""Constructions of exactly unitary matrices.

Everything here returns an :class:`ExactMatrix` whose unitarity is
decidable (and in the tests decided) by exact arithmetic.  Conventions:
rows are the basis vectors, and sign patterns put the negative entry on
block diagonals, matching the displayed forms these families come from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from exactframes import _kernel
from exactframes.errors import (BlockFormError, DimensionError, DomainError,
                                PreconditionError)
from exactframes.matrices import ExactMatrix, hstack, vstack
from exactframes.radicals import RadicalScalar, sqrt_rational
from exactframes.two_tight import sign_matrix
from exactframes.verify import (check_orthogonal_columns, check_unitary)


def _root(p: int) -> tuple[int, int]:
    """``(core, den)`` with ``sqrt(1/p) == sqrt(core) / den`` and
    ``core`` squarefree: for ``p == outer**2 * core``, ``den == p /
    outer``."""
    outer, core = _kernel.squarefree_split(p)
    return core, p // outer


def _staircase(n: int) -> list[tuple[int, tuple[int, list[int]], int]]:
    """Rows 2 to n of :func:`constant_first_row` as ``(radicand,
    (offset, values), denominator)``, the integer row being ``values``
    from column ``offset`` on and zero before it."""
    out = []
    for i in range(1, n):
        m = n - i + 1
        core, den = _root(m * (m - 1))
        out.append((core, (i - 1, [1 - m] + [1] * (m - 1)), den))
    return out


def constant_first_row(n: int) -> ExactMatrix:
    """Unitary with constant first row ``1/sqrt(n)`` and a staircase of
    zeros below: row j ends with ``n - j + 1`` equal entries preceded by
    one balancing negative entry.

    Sparsity is ``n + (n(n+1)/2 - 1)``, maximal for this row pattern.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return ExactMatrix([[1]])
    core, den = _root(n)
    rows = [(core, (0, [1] * n), den), *_staircase(n)]
    return ExactMatrix._from_int_rows(n, *zip(*rows))


def constant_two_rows(two_n: int) -> ExactMatrix:
    """Unitary of even dimension whose first two rows have constant
    modulus ``1/sqrt(2n)``; below them sit two copies of the
    :func:`constant_first_row` staircase, one per column half.

    Dimension 4 has no such staircase form that stays unitary, so it
    returns the normalized all-but-diagonal sign matrix instead.
    """
    if two_n < 4 or two_n % 2:
        raise DomainError(f"dimension must be even and >= 4, got {two_n}")
    if two_n == 4:
        return sign_matrix(2).scale(Fraction(1, 2))
    n = two_n // 2
    core, den = _root(two_n)
    stair = _staircase(n)
    rows = [(core, (0, [1] * two_n), den),
            (core, (0, [-1] * n + [1] * n), den),
            *stair, *((r, (o + n, row), d) for r, (o, row), d in stair)]
    return ExactMatrix._from_int_rows(two_n, *zip(*rows))


def two_constant_diag(n: int) -> ExactMatrix:
    """The unitary ``(1/n)(2J - nI)``: diagonal ``-(n-2)/n``,
    off-diagonal ``2/n``.  Symmetric and an involution."""
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    # over the least denominator, n / gcd(n, 2)
    g = 2 - n % 2
    rows = []
    for i in range(n):
        row = [2 // g] * n
        row[i] = -(n - 2) // g
        rows.append((0, row))
    return ExactMatrix._from_int_rows(n, [1] * n, rows, [n // g] * n)


class BlockForm(enum.Enum):
    """Layout of the 2x2 block doubling of a pair of unitaries.

    PLAIN is ``[[aA, bB], [aA, -bB]]``; its row Gram has off-diagonal
    blocks ``(a^2 - b^2) I``, so it is unitary only when
    ``a^2 == b^2 == 1/2``.  BALANCED is ``[[aA, bB], [bA, -aB]]`` and is
    unitary for every ``a^2 + b^2 == 1``.
    """

    PLAIN = "plain"
    BALANCED = "balanced"


def block_pair(a_mat: ExactMatrix, b_mat: ExactMatrix,
               a: RadicalScalar, b: RadicalScalar,
               form: BlockForm = BlockForm.BALANCED) -> ExactMatrix:
    """Double two n x n unitaries into a 2n x 2n unitary.

    Requires both inputs exactly unitary and ``a^2 + b^2 == 1``.  For
    PLAIN form the coefficients must additionally satisfy
    ``a^2 == b^2``; otherwise a BlockFormError carrying the exact Gram
    defect ``a^2 - b^2`` is raised.
    """
    if not (a_mat.is_square and b_mat.is_square
            and a_mat.rows == b_mat.rows):
        raise DimensionError(
            f"blocks must be square and equal size, got {a_mat.shape} "
            f"and {b_mat.shape}")
    for name, m in (("first", a_mat), ("second", b_mat)):
        if not check_unitary(m).passed:
            raise PreconditionError(f"{name} block is not unitary")
    a, b = RadicalScalar(a), RadicalScalar(b)
    if a * a + b * b != 1:
        raise DomainError(
            f"coefficients must satisfy a^2 + b^2 = 1, got "
            f"a^2 + b^2 = {a * a + b * b}")
    c, d = b, -a  # the coefficients of the lower half
    if form is BlockForm.PLAIN:
        defect = a * a - b * b
        if not defect.is_zero:
            raise BlockFormError(
                "the plain block form is unitary only when "
                f"a^2 == b^2 == 1/2; these coefficients leave an exact "
                f"row Gram defect of {defect}", defect)
        c, d = a, -b
    return vstack(hstack(a_mat.scale(a), b_mat.scale(b)),
                  hstack(a_mat.scale(c), b_mat.scale(d)))


def two_constant_block_example() -> ExactMatrix:
    """The 8x8 two-constant unitary ``[[aH, bH], [bH, -aH]]`` with
    ``H = J - 2I`` (4x4), ``b = 1/sqrt(20)`` and ``a = 2b``."""
    h = sign_matrix(2)
    b = sqrt_rational(Fraction(1, 20))
    a = 2 * b
    return vstack(hstack(h.scale(a), h.scale(b)),
                  hstack(h.scale(b), h.scale(-a)))


def third_case() -> ExactMatrix:
    """The 6x6 two-constant unitary with ``a = sqrt(1/12)``, ``b = 1/2``
    and sign pattern fixed by the requirement ``3a^2 - b^2 == 0``."""
    a = sqrt_rational(Fraction(1, 12))
    b = Fraction(1, 2)
    upper = [[-1, -1, 1], [-1, 1, -1], [1, -1, -1]]
    lower = [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
    return ExactMatrix([[a] * 3 + [s * b for s in signs] for signs in upper]
                       + [[s * b for s in signs] + [a] * 3 for signs in lower])


@dataclass(frozen=True)
class WeaveCoefficients:
    """A coefficient matrix with exactly orthogonal columns.

    Validated at construction; ``is_orthonormal`` additionally records
    whether the matrix is square with orthonormal rows, which is what
    upgrades a weave from orthogonal columns to unitarity/tightness.
    """

    matrix: ExactMatrix

    def __post_init__(self) -> None:
        report = check_orthogonal_columns(self.matrix)
        if not report.passed:
            w = report.witness
            raise PreconditionError(
                f"coefficient columns ({w.i}, {w.j}) are not orthogonal; "
                f"inner product {w.residual}")

    @property
    def is_orthonormal(self) -> bool:
        return self.matrix.is_square and check_unitary(self.matrix).passed


def weave(coeffs: WeaveCoefficients,
          blocks: list[ExactMatrix]) -> ExactMatrix:
    """Block matrix with ``(i, j)`` block ``coeffs[i, j] * blocks[j]``.

    Blocks must all have the same row count and exactly orthogonal
    columns; any inner product of two woven columns factors as a
    coefficient-column product times a block-column product, so the
    result always has exactly orthogonal columns.  With orthonormal
    square coefficients and unitary equal-size blocks the result is
    unitary; with orthonormal coefficients and unit-norm k-tight blocks
    it is again a unit-norm k-tight frame.
    """
    c = coeffs.matrix
    if c.cols != len(blocks):
        raise DimensionError(
            f"{c.cols} coefficient columns need {c.cols} blocks, "
            f"got {len(blocks)}")
    depth = blocks[0].rows
    for idx, blk in enumerate(blocks):
        if blk.rows != depth:
            raise DimensionError(
                f"blocks must have equal row counts; block {idx + 1} has "
                f"{blk.rows} rows, block 1 has {depth}")
        report = check_orthogonal_columns(blk)
        if not report.passed:
            w = report.witness
            raise PreconditionError(
                f"block {idx + 1} columns ({w.i}, {w.j}) are not "
                f"orthogonal; inner product {w.residual}")
    data = []
    for i in range(c.rows):
        band = [blk.scale(c.entry(i, j))._data
                for j, blk in enumerate(blocks)]
        data.extend(tuple(t for piece in pieces for t in piece)
                    for pieces in zip(*band))
    return ExactMatrix._raw(c.rows * depth, sum(b.cols for b in blocks),
                            tuple(data))


def mub_r4() -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Three pairwise unbiased orthonormal bases of R^4: the identity,
    the normalized sign core, and a normalized Hadamard matrix.

    Every cross inner product between different bases squares to
    exactly 1/4.
    """
    half = Fraction(1, 2)
    b1 = ExactMatrix.identity(4)
    b2 = sign_matrix(2).scale(half)
    b3 = ExactMatrix([[1, 1, 1, 1],
                      [1, -1, 1, -1],
                      [1, 1, -1, -1],
                      [1, -1, -1, 1]]).scale(half)
    return (b1, b2, b3)
