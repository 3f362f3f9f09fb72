"""Pure-Python arithmetic kernel for radical-term tuples.

A scalar is represented as a tuple of terms ``(rad, num, den)`` meaning
``sum(num/den * sqrt(rad))`` where

* ``rad`` is a squarefree integer >= 1 (``rad == 1`` carries the
  rational part),
* ``num`` is a nonzero integer, ``den`` a positive integer with
  ``gcd(num, den) == 1``,
* terms are sorted by strictly increasing ``rad``.

The empty tuple is zero.  Every function below returns canonical output
given canonical input, so tuple equality is exact scalar equality.

Products of roots need no factoring: for squarefree ``ra`` and ``rb``
with ``g = gcd(ra, rb)``, ``sqrt(ra) * sqrt(rb) == g * sqrt(ra/g * rb/g)``,
and the two cofactors are coprime and squarefree, so their product is
squarefree.  The package factors only in ``radicals.split_radicand``,
at the input boundary.
"""

from __future__ import annotations

from math import gcd


def squarefree_split(n: int) -> tuple[int, int]:
    """Return ``(outer, core)`` with ``n == outer**2 * core``, core squarefree.

    Requires ``n >= 1``.
    """
    if n < 1:
        raise ValueError("squarefree_split requires a positive integer")
    m = n
    outer = 1
    core = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            outer *= d ** (e >> 1)
            if e & 1:
                core *= d
        d += 1 if d == 2 else 2
    return outer, core * m


def is_squarefree(n: int) -> bool:
    """True if no prime square divides ``n`` (``n >= 1``)."""
    return squarefree_split(n)[0] == 1


def root_terms(num: int, den: int, core: int) -> tuple:
    """Canonical terms for ``num/den * sqrt(core)`` with ``core``
    already squarefree, so that nothing is factored; ``den != 0``."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return ()
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return ((core, num, den),)


def neg_terms(t: tuple) -> tuple:
    return tuple((r, -n, d) for r, n, d in t)


def add_terms(a: tuple, b: tuple) -> tuple:
    """Sum of two canonical term tuples (sorted merge)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ra, na, da = a[i]
        rb, nb, db = b[j]
        if ra < rb:
            out.append(a[i])
            i += 1
        elif rb < ra:
            out.append(b[j])
            j += 1
        else:
            num = na * db + nb * da
            if num != 0:
                den = da * db
                g = gcd(num, den)
                out.append((ra, num // g, den // g))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def scale_terms(t: tuple, num: int, den: int) -> tuple:
    """Multiply a canonical tuple by the rational ``num/den``."""
    if num == 0:
        return ()
    if num == den:
        return t
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    out = []
    for r, n, d in t:
        nn = n * num
        nd = d * den
        g = gcd(nn, nd)
        out.append((r, nn // g, nd // g))
    return tuple(out)


def _acc_pair(acc: dict, ta: tuple, tb: tuple) -> None:
    """Accumulate the product of two term tuples into ``acc``."""
    for ra, na, da in ta:
        for rb, nb, db in tb:
            # equal radicands are the g == ra case of the rule below,
            # taken without the gcd: they are the common case, and
            # through the gcd the construct benchmark's large tier ran
            # about 8 % slower (Python 3.11, 2 CPUs)
            if ra == rb:
                core = 1
                num = na * nb * ra
            else:
                g = gcd(ra, rb)
                core = (ra // g) * (rb // g)
                num = na * nb * g
            den = da * db
            cur = acc.get(core)
            if cur is None:
                g = gcd(num, den)
                acc[core] = (num // g, den // g)
            else:
                cn, cd = cur
                nn = cn * den + num * cd
                if nn == 0:
                    del acc[core]
                else:
                    nd = cd * den
                    g = gcd(nn, nd)
                    acc[core] = (nn // g, nd // g)


def _canon(acc: dict) -> tuple:
    return tuple((r,) + acc[r] for r in sorted(acc))


def mul_terms(a: tuple, b: tuple) -> tuple:
    """Product of two canonical term tuples."""
    if not a or not b:
        return ()
    acc: dict = {}
    _acc_pair(acc, a, b)
    return _canon(acc)


def dot_terms(u, v) -> tuple:
    """Inner product of two equal-length sequences of term tuples."""
    acc: dict = {}
    for ta, tb in zip(u, v):
        if ta and tb:
            _acc_pair(acc, ta, tb)
    return _canon(acc)


def matmul_terms(a, b) -> list:
    """Row-major matrix product of two nested lists of term tuples."""
    cols = list(zip(*b))
    return [[dot_terms(arow, bcol) for bcol in cols] for arow in a]
