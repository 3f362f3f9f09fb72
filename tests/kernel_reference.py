"""The tests' reference for kernel terms: a value built by factoring its
radicand on the spot, where the package factors only at the input
boundary (``radicals.split_radicand``)."""

from exactframes._kernel.pycore import root_terms, squarefree_split


def make_terms(num: int, den: int, rad: int) -> tuple:
    """Canonical terms for ``num/den * sqrt(rad)``; ``rad >= 1, den != 0``."""
    if rad < 1:
        raise ValueError("radicand must be a positive integer")
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return ()
    outer, core = squarefree_split(rad)
    return root_terms(num * outer, den, core)
