"""The tests' reference for the integer-row unitary families: each
entry built as a scalar, by ring operations on square roots, and the
matrix from those scalars, as the families were built before they kept
integer rows."""

from fractions import Fraction

from exactframes.matrices import ExactMatrix, block_diag, vstack
from exactframes.radicals import RadicalScalar, sqrt_rational


def constant_first_row(n: int) -> ExactMatrix:
    if n == 1:
        return ExactMatrix([[1]])
    rows = [[sqrt_rational(Fraction(1, n))] * n]
    for i in range(1, n):
        m = n - i + 1
        tail = sqrt_rational(Fraction(1, m * (m - 1)))
        rows.append([0] * (i - 1) + [-(m - 1) * tail] + [tail] * (m - 1))
    return ExactMatrix(rows)


def constant_two_rows(two_n: int) -> ExactMatrix:
    """For ``two_n >= 6``."""
    n = two_n // 2
    c = sqrt_rational(Fraction(1, two_n))
    head = ExactMatrix([[c] * two_n, [-c] * n + [c] * n])
    tail = ExactMatrix(constant_first_row(n).row(i) for i in range(1, n))
    return vstack(head, block_diag([tail, tail]))


def two_constant_diag(n: int) -> ExactMatrix:
    diag = RadicalScalar(Fraction(-(n - 2), n))
    off = RadicalScalar(Fraction(2, n))
    return ExactMatrix([[diag if i == j else off for j in range(n)]
                        for i in range(n)])
