"""Exact certification of matrix properties.

Every check returns a :class:`VerifyReport`.  A passing report is an
exact certificate: the arithmetic is done in the radical-scalar ring, so
there are no tolerances on the exact paths.  Reports carry a witness for
the first failing position, with 1-based indices and the exact residual
rendered as text.

No check uses floating point.  The hyperplane-basis check needs
rational squared row norms and raises DomainError otherwise; every
other check is exact regardless of the entries.  It reads rows of one
radicand each, such as integer rows and their normalized forms, as
integer rows (:func:`exactframes._kernel.int_rows`), so that its pair
scan and its normal take Python ints only; rows of several radicands
are scanned on their term tuples.

The unitary, tight-frame and orthogonal-columns checks compare a Gram
matrix with a scaled identity.  The kernel's Gram stream
(:mod:`exactframes._kernel`) gives the first mismatching pair in the
row-major (1,1), (1,2), ... order, scanned pair by pair for small inputs
and otherwise from integer matrix products, in int64 only under a
bound proven from the input.  The residual is that entry minus the
expected value, so witnesses are those of a pair-by-pair scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress

from exactframes import _kernel
from exactframes.errors import (DimensionError, DomainError,
                                PreconditionError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import _format_terms, _terms_of

_ONE = _terms_of(1)


class MatrixProperty(enum.Enum):
    UNITARY = "unitary"
    TIGHT_FRAME = "tight_frame"
    ORTHOGONAL_COLUMNS = "orthogonal_columns"
    HYPERPLANE_BASIS = "hyperplane_basis"
    UNBIASED_PAIR = "unbiased_pair"
    EQUAL_NORM_ROWS = "equal_norm_rows"


@dataclass(frozen=True)
class Witness:
    """First failing position: what failed, where and by how much.

    ``i`` and ``j`` are 1-based; ``residual`` is the exact deviation
    rendered in scalar text form.
    """

    kind: str
    i: int
    j: int
    residual: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j,
                "residual": self.residual}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one property check."""

    passed: bool
    prop: MatrixProperty
    witness: Witness | None = None
    k_value: Fraction | None = None
    unit_rows: bool | None = None
    normal: tuple[Fraction, ...] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"passed": self.passed, "property": self.prop.value}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.k_value is not None:
            out["k"] = _format_terms(_terms_of(self.k_value))
        if self.unit_rows is not None:
            out["unit_rows"] = self.unit_rows
        if self.normal is not None:
            out["normal"] = [_format_terms(_terms_of(c)) for c in self.normal]
        return out


def _gram_witness(data, kind: str, expected_diag: tuple | None
                  ) -> Witness | None:
    """Compare the Gram matrix of ``data`` rows with a scaled identity.

    Returns the first mismatch in (1,1), (1,2), ... order, or None;
    ``expected_diag`` is a positive rational term tuple, or None to
    compare only the pairs off the diagonal.  The kernel's Gram stream
    gives the position (:func:`exactframes._kernel.gram_mismatch`), and
    the residual is the entry there minus the expected value.
    """
    diag = None if expected_diag is None else expected_diag[0][1:]
    hit = _kernel.gram_mismatch(data, diag)
    if hit is None:
        return None
    i, j, got = hit
    want = expected_diag if i == j else ()
    diff = _kernel.add_terms(got, _kernel.neg_terms(want))
    return Witness(kind, i + 1, j + 1, _format_terms(diff))


def check_unitary(a: ExactMatrix) -> VerifyReport:
    """Certify that a square matrix has exactly orthonormal rows.

    For square matrices the row Gram ``A A^T`` equals the identity
    exactly when the column Gram ``A^T A`` does, so one scan certifies
    unitarity; witnesses point at row pairs.
    """
    if not a.is_square:
        raise DimensionError(
            f"unitarity applies to square matrices, got {a.shape}")
    witness = _gram_witness(a._data, "row_inner_product", _ONE)
    return VerifyReport(witness is None, MatrixProperty.UNITARY, witness)


def check_orthogonal_columns(a: ExactMatrix) -> VerifyReport:
    """Certify that all column pairs are exactly orthogonal."""
    witness = _gram_witness(_kernel.Columns(a._data),
                            "column_inner_product", None)
    return VerifyReport(witness is None,
                        MatrixProperty.ORTHOGONAL_COLUMNS, witness)


def check_equal_norm_rows(a: ExactMatrix) -> VerifyReport:
    """Certify that every row has the same squared norm as row 1."""
    first = _kernel.dot_terms(a._data[0], a._data[0])
    for i in range(1, a.rows):
        got = _kernel.dot_terms(a._data[i], a._data[i])
        if got != first:
            diff = _kernel.add_terms(got, _kernel.neg_terms(first))
            return VerifyReport(
                False, MatrixProperty.EQUAL_NORM_ROWS,
                Witness("row_norm_squared", 1, i + 1, _format_terms(diff)))
    return VerifyReport(True, MatrixProperty.EQUAL_NORM_ROWS)


def check_tight_frame(a: ExactMatrix) -> VerifyReport:
    """Certify that the rows form a k-tight frame: ``A^T A == k I``.

    ``k`` must come out a positive rational; it is reported in
    ``k_value``.  ``unit_rows`` records whether every row additionally
    has exact unit norm.  Needs at least as many rows as columns.

    The column Gram and the row norms, the diagonal of the row Gram,
    read the rows as the kernel does (:func:`_kernel.row_norms`): below
    the size cut pair by pair and row by row, and at or above it from
    the rows taken apart once, as the matrix keeps them for every
    check, with the columns read as the rows with their two axes
    swapped, so that nothing is transposed.  A square matrix is proven
    on its row Gram, against the ``k`` of column 1, and its column Gram
    is built only to name a failing input's witness.
    """
    report = _tight_report(a)
    if not report.passed:
        return report
    unit = all(norm == _ONE for norm in _kernel.row_norms(a._data))
    return replace(report, unit_rows=unit)


def _tight_report(a: ExactMatrix) -> VerifyReport:
    """:func:`check_tight_frame` without ``unit_rows``, which is left
    None: for callers that need only ``k`` and the witness."""
    if a.rows < a.cols:
        raise DimensionError(
            f"a frame needs rows >= cols, got {a.shape}")
    cols = _kernel.Columns(a._data)
    k_terms = _kernel.dot_terms(cols[0], cols[0])
    if len(k_terms) != 1 or k_terms[0][0] != 1 or k_terms[0][1] <= 0:
        return VerifyReport(
            False, MatrixProperty.TIGHT_FRAME,
            Witness("column_norm_squared", 1, 1, _format_terms(k_terms)))
    k = Fraction(k_terms[0][1], k_terms[0][2])
    # a real square A with A A^T = k I, k > 0, is invertible, and then
    # A^T A = A^-1 (A A^T) A = k I: the row Gram proves it, and the
    # column Gram is built only to name a failing input's witness
    if a.is_square and _kernel.gram_mismatch(a._data, k_terms[0][1:]) is None:
        return VerifyReport(True, MatrixProperty.TIGHT_FRAME, k_value=k)
    witness = _gram_witness(cols, "column_inner_product", k_terms)
    return VerifyReport(witness is None, MatrixProperty.TIGHT_FRAME, witness,
                        k_value=k)


def _first_overlap(rows, support, rows_at, dot) -> tuple | None:
    """First row pair ``i < j`` with ``dot(rows[i][lo:hi],
    rows[j][lo:hi])`` nonzero, in (1,2), (1,3), ... order, as ``(i, j,
    lo, hi)``, or None.

    Only pairs whose supports meet are computed, over the columns
    ``lo:hi`` where the spans of their supports overlap: every other
    pair has inner product exactly zero.  Slicing the span costs little
    on dense rows and keeps the work on banded rows, such as those of
    ``build(n)``, down to their overlap.
    """
    spans = [(cols[0], cols[-1] + 1) for cols in support]
    for i, cols in enumerate(support):
        row = rows[i]
        lo_i, hi_i = spans[i]
        near = sorted(set().union(*[rows_at[c] for c in cols]))
        for j in near[near.index(i) + 1:]:
            lo_j, hi_j = spans[j]
            lo = lo_i if lo_i > lo_j else lo_j
            hi = hi_i if hi_i < hi_j else hi_j
            if dot(row[lo:hi], rows[j][lo:hi]):
                return i, j, lo, hi
    return None


def _projected_normal(data, support, rows_at) -> list[tuple]:
    """A nonzero multiple of the normal of nonzero, pairwise orthogonal
    rows with rational squared norms.

    The rows are independent, so projecting ``e_k`` off their span,
    ``e_k - sum_i (r_i[k] / |r_i|^2) r_i``, leaves ``(N_k / |N|^2) N``
    for the normal ``N``.  Its k-th entry ``N_k^2 / |N|^2`` is found
    first, and the whole vector is formed for the first k where that is
    nonzero; these entries sum to 1, so such a k exists.  Raises
    DomainError naming the first row whose squared norm is irrational.
    """
    inv_norms = []
    for i, row in enumerate(data):
        vals = [row[c] for c in support[i]]
        nsq = _kernel.dot_terms(vals, vals)
        if len(nsq) != 1 or nsq[0][0] != 1:
            raise DomainError(
                f"row {i + 1} has irrational squared norm "
                f"{_format_terms(nsq)}; the hyperplane check needs "
                "rational squared row norms")
        inv_norms.append((-nsq[0][2], nsq[0][1]))
    for k, rows in enumerate(rows_at):
        diag = _ONE
        for i in rows:
            t = data[i][k]
            diag = _kernel.add_terms(
                diag, _kernel.scale_terms(_kernel.mul_terms(t, t),
                                          *inv_norms[i]))
        if diag:
            break
    nu = [()] * len(rows_at)
    nu[k] = _ONE
    for i in rows:
        row = data[i]
        c = _kernel.scale_terms(row[k], *inv_norms[i])
        for j in support[i]:
            nu[j] = _kernel.add_terms(nu[j], _kernel.mul_terms(c, row[j]))
    return nu


def _projected_int_normal(ints, support, rows_at) -> list[int]:
    """``L`` times :func:`_projected_normal` of the rows ``s_i *
    ints[i]``, each ``s_i`` a nonzero rational multiple of a square root.

    ``s_i`` cancels from ``r_i[k] r_i / |r_i|^2``, which leaves
    ``ints[i][k] * ints[i] / m_i`` for the squared integer norm
    ``m_i``.  With ``L = lcm(m_i)`` every entry is an integer, and
    ``L e_k`` minus their sum is the projection of ``e_k`` times ``L``.
    """
    norms = [sum(ints[i][c] ** 2 for c in cols)
             for i, cols in enumerate(support)]
    big = math.lcm(*norms)
    weights = [big // m for m in norms]
    for k, rows in enumerate(rows_at):
        if sum(ints[i][k] ** 2 * weights[i] for i in rows) != big:
            break
    nu = [0] * len(rows_at)
    nu[k] = big
    for i in rows:
        row = ints[i]
        c = row[k] * weights[i]
        for j in support[i]:
            nu[j] -= c * row[j]
    return nu


def _rational_ints(nu: list[tuple]) -> list[int] | None:
    """A positive integer multiple of a rational vector of term tuples,
    or None if ``nu`` is irrational."""
    if any(t and (len(t) != 1 or t[0][0] != 1) for t in nu):
        return None
    lcm = math.lcm(*(t[0][2] for t in nu if t))
    return [t[0][1] * (lcm // t[0][2]) if t else 0 for t in nu]


def _primitive_normal(ints: list[int]) -> tuple[Fraction, ...]:
    """The primitive multiple of a nonzero integer vector whose last
    nonzero coordinate is positive."""
    g = math.gcd(*ints)
    if next(v for v in reversed(ints) if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def check_hyperplane_basis(a: ExactMatrix) -> VerifyReport:
    """Certify an orthogonal basis of a hyperplane with no zero normal
    coordinate.

    The matrix must be ``(n-1) x n`` with nonzero, pairwise orthogonal
    rows whose common orthogonal complement is spanned by a vector with
    all coordinates nonzero.  The check is exact whenever every squared
    row norm is rational, which holds for integer rows and for their
    normalized forms; an irrational squared row norm raises
    DomainError naming the row.  The normal is reported, as the
    primitive integer vector whose last nonzero coordinate is positive,
    whenever the normal line holds a rational vector (always, for
    rational rows); otherwise ``normal`` is None and the verdict is
    still exact.

    When every row is one radicand times a rational row, as integer
    rows and their normalized forms are, the radicand and denominator
    of each row cancel: the pairs are scanned and the normal projected
    on integer rows, and ``dot_terms`` renders only the residual of an
    offending pair.  Rows of several radicands take the same scan on
    their term tuples; only they can have an irrational squared norm or
    a normal line with no rational vector.
    """
    if a.cols != a.rows + 1:
        raise DimensionError(
            f"a hyperplane basis of R^n has shape (n-1) x n, got {a.shape}")
    data = a._data
    support = [list(compress(range(a.cols), row)) for row in data]
    for i, cols in enumerate(support):
        if not cols:
            return VerifyReport(
                False, MatrixProperty.HYPERPLANE_BASIS,
                Witness("zero_row", i + 1, i + 1, "0"))
    rows_at: list[list[int]] = [[] for _ in range(a.cols)]
    for i, cols in enumerate(support):
        for c in cols:
            rows_at[c].append(i)
    read = _kernel.int_rows(data)
    ints = None if read is None else read[1]
    if ints is None:
        hit = _first_overlap(data, support, rows_at, _kernel.dot_terms)
    else:
        hit = _first_overlap(ints, support, rows_at, _kernel.int_dot)
    if hit is not None:
        i, j, lo, hi = hit
        got = _kernel.dot_terms(data[i][lo:hi], data[j][lo:hi])
        return VerifyReport(
            False, MatrixProperty.HYPERPLANE_BASIS,
            Witness("row_inner_product", i + 1, j + 1, _format_terms(got)))
    if ints is None:
        nu = _projected_normal(data, support, rows_at)
        scaled = _rational_ints(nu)
    else:
        nu = scaled = _projected_int_normal(ints, support, rows_at)
    normal = None if scaled is None else _primitive_normal(scaled)
    zero = next((j for j, v in enumerate(nu) if not v), None)
    if zero is not None:
        return VerifyReport(
            False, MatrixProperty.HYPERPLANE_BASIS,
            Witness("normal_zero_coordinate", 1, zero + 1, "0"),
            normal=normal)
    return VerifyReport(True, MatrixProperty.HYPERPLANE_BASIS, normal=normal)


def check_unbiased_pair(b1: ExactMatrix, b2: ExactMatrix) -> VerifyReport:
    """Certify that two orthonormal bases are unbiased: every cross
    inner product squares to exactly ``1/n``.

    Raises PreconditionError naming the offending input when either
    matrix is not exactly unitary or the shapes differ.
    """
    if b1.shape != b2.shape:
        raise DimensionError(
            f"bases must share a shape, got {b1.shape} and {b2.shape}")
    for name, b in (("first", b1), ("second", b2)):
        report = check_unitary(b)
        if not report.passed:
            w = report.witness
            raise PreconditionError(
                f"{name} basis is not orthonormal: rows ({w.i}, {w.j}) "
                f"have inner product residual {w.residual}")
    n = b1.rows
    target = _terms_of(Fraction(1, n))
    for i in range(n):
        for j in range(n):
            c = _kernel.dot_terms(b1._data[i], b2._data[j])
            csq = _kernel.mul_terms(c, c)
            if csq != target:
                diff = _kernel.add_terms(csq, _kernel.neg_terms(target))
                return VerifyReport(
                    False, MatrixProperty.UNBIASED_PAIR,
                    Witness("cross_product_squared", i + 1, j + 1,
                            _format_terms(diff)))
    return VerifyReport(True, MatrixProperty.UNBIASED_PAIR)
