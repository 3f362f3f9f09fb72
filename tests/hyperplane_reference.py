"""The tests' reference for hyperplane bases: the recursion of
``hyperplane.build`` and ``combine`` on :class:`ExactMatrix` blocks, and
the hyperplane check on radical-term tuples, pair by pair with
``dot_terms`` and with the normal projected in term arithmetic.  The
integer rows that ``hyperplane`` builds and ``check_hyperplane_basis``
reads must agree with it exactly."""

import math
from fractions import Fraction

from exactframes import _kernel
from exactframes.errors import CombineModeError, DimensionError, DomainError
from exactframes.hyperplane import (_BASE_ROWS, HyperplaneBasis, TopRowMode,
                                    _split)
from exactframes.matrices import ExactMatrix, block_diag, vstack
from exactframes.radicals import _format_terms, _terms_of
from exactframes.verify import MatrixProperty, VerifyReport, Witness

_ONE = _terms_of(1)


def reference_base_case(n):
    rows, normal = _BASE_ROWS[n]
    return HyperplaneBasis(ExactMatrix(rows), tuple(normal))


def _as_int_rows(m):
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


def _ones_form(h):
    rows = _as_int_rows(h.matrix)
    n = h.dimension
    if all(sum(row) == 0 for row in rows):
        return h
    for i, row in enumerate(rows):
        base = row[0]
        if base != 0 and all(v == base for v in row):
            m = h.matrix
            data = (m._data[:i] + ExactMatrix([h.normal])._data
                    + m._data[i + 1:])
            return HyperplaneBasis(ExactMatrix._raw(m.rows, m.cols, data),
                                   (1,) * n)
    return None


def reference_combine(h1, h2, mode=None):
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


def _combine_ones(h1, h2):
    p, q = h1.dimension, h2.dimension
    top = ExactMatrix([[1] * (p + q)])
    stacked = vstack(top, block_diag([h1.matrix, h2.matrix]))
    g = math.gcd(p, q)
    return HyperplaneBasis(stacked, (q // g,) * p + (-(p // g),) * q)


def _combine_weighted(h1, h2):
    u, v = h1.normal, h2.normal
    wu = sum(c * c for c in u)
    wv = sum(c * c for c in v)
    top = ExactMatrix([[wv * c for c in u] + [-wu * c for c in v]])
    stacked = vstack(top, block_diag([h1.matrix, h2.matrix]))
    return HyperplaneBasis(stacked, tuple(u) + tuple(v))


def reference_build(n):
    """``build(n)`` as a recursion on whole matrices; each call builds
    its blocks afresh."""
    if n <= 4:
        return reference_base_case(n)
    p, q = _split(n)
    return reference_combine(reference_build(p), reference_build(q))


def _row_overlap_witness(data, support, rows_at):
    spans = [(min(cols), max(cols) + 1) for cols in support]
    for i, cols in enumerate(support):
        row = data[i]
        lo_i, hi_i = spans[i]
        for j in sorted(set().union(*[rows_at[c] for c in cols])):
            if j <= i:
                continue
            lo, hi = max(lo_i, spans[j][0]), min(hi_i, spans[j][1])
            got = _kernel.dot_terms(row[lo:hi], data[j][lo:hi])
            if got:
                return Witness("row_inner_product", i + 1, j + 1,
                               _format_terms(got))
    return None


def _projected_normal(data, support, rows_at):
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


def _primitive_normal(nu):
    if any(t and (len(t) != 1 or t[0][0] != 1) for t in nu):
        return None
    lcm = math.lcm(*(t[0][2] for t in nu if t))
    ints = [t[0][1] * (lcm // t[0][2]) if t else 0 for t in nu]
    g = math.gcd(*ints)
    if next(v for v in reversed(ints) if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def reference_check(a):
    """The :class:`VerifyReport` of ``check_hyperplane_basis(a)``,
    computed on term tuples throughout."""
    if a.cols != a.rows + 1:
        raise DimensionError(f"shape {a.shape}")
    data = a._data
    support = [{c for c, t in enumerate(row) if t} for row in data]
    for i, cols in enumerate(support):
        if not cols:
            return VerifyReport(
                False, MatrixProperty.HYPERPLANE_BASIS,
                Witness("zero_row", i + 1, i + 1, "0"))
    rows_at = [[] for _ in range(a.cols)]
    for i, cols in enumerate(support):
        for c in cols:
            rows_at[c].append(i)
    witness = _row_overlap_witness(data, support, rows_at)
    if witness is not None:
        return VerifyReport(False, MatrixProperty.HYPERPLANE_BASIS, witness)
    nu = _projected_normal(data, support, rows_at)
    normal = _primitive_normal(nu)
    zero = next((j for j, t in enumerate(nu) if not t), None)
    if zero is not None:
        return VerifyReport(
            False, MatrixProperty.HYPERPLANE_BASIS,
            Witness("normal_zero_coordinate", 1, zero + 1, "0"),
            normal=normal)
    return VerifyReport(True, MatrixProperty.HYPERPLANE_BASIS, normal=normal)
