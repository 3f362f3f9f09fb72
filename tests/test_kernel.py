"""The term kernel: squarefree splitting and exact ring operations.

Products of roots use the gcd rule; they are checked against factoring
the product radicand and against sympy, on coefficients far beyond 64
bits.
"""

import random
from math import gcd, prod

import pytest
import sympy

from exactframes._kernel import pycore

from kernel_reference import make_terms

SMALL_PRIMES = tuple(p for p in range(2, 300)
                     if all(p % d for d in range(2, p)))


def brute_split(n):
    outer = 1
    core = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
        d += 1
    return outer, core * n


def test_squarefree_split_small():
    for n in range(1, 2001):
        outer, core = pycore.squarefree_split(n)
        assert outer * outer * core == n
        assert brute_split(n) == (outer, core)
        assert pycore.is_squarefree(n) == (outer == 1)


def test_squarefree_split_rejects_nonpositive():
    with pytest.raises(ValueError):
        pycore.squarefree_split(0)
    with pytest.raises(ValueError):
        pycore.squarefree_split(-4)


def test_squarefree_split_big_smooth_values():
    # smooth values keep trial division cheap well past 64 bits
    rng = random.Random(7)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(50):
        exps = [rng.randint(0, 25) for _ in primes]
        n = prod(p ** e for p, e in zip(primes, exps))
        outer = prod(p ** (e // 2) for p, e in zip(primes, exps))
        core = prod(p for p, e in zip(primes, exps) if e % 2)
        assert pycore.squarefree_split(n) == (outer, core)
    assert pycore.squarefree_split(2**80) == (2**40, 1)
    assert pycore.squarefree_split(3 * 2**80) == (2**40, 3)


def random_terms(rng, max_terms=5, rad_bound=60, coeff_bound=40):
    rads = rng.sample(range(1, rad_bound), rng.randint(0, max_terms))
    merged = ()
    for rad in rads:
        num = rng.randint(-coeff_bound, coeff_bound) or 1
        den = rng.randint(1, coeff_bound)
        merged = pycore.add_terms(merged, make_terms(num, den, rad))
    return merged


def assert_canonical(t):
    rads = [rad for rad, _, _ in t]
    assert rads == sorted(set(rads))
    for rad, num, den in t:
        assert num != 0 and den > 0
        assert gcd(abs(num), den) == 1
        assert pycore.is_squarefree(rad)


def test_kernel_ops_randomized():
    rng = random.Random(20240214)
    for _ in range(2000):
        a = random_terms(rng)
        b = random_terms(rng)
        num = rng.randint(-30, 30)
        den = rng.randint(1, 30)
        for got in (pycore.add_terms(a, b), pycore.mul_terms(a, b),
                    pycore.neg_terms(a)):
            assert_canonical(got)
        assert pycore.add_terms(a, b) == pycore.add_terms(b, a)
        assert pycore.mul_terms(a, b) == pycore.mul_terms(b, a)
        assert pycore.add_terms(a, pycore.neg_terms(a)) == ()
        if num:
            got = pycore.scale_terms(a, num, den)
            assert_canonical(got)
            assert got == pycore.mul_terms(a, make_terms(num, den, 1))


def test_kernel_big_coefficients():
    rng = random.Random(99)
    for _ in range(200):
        a = tuple((r, rng.randrange(-(10**40), 10**40) or 1,
                   rng.randrange(1, 10**40))
                  for r in sorted(rng.sample([1, 2, 3, 5, 7, 11], 3)))
        a = tuple((r, n // gcd(abs(n), d), d // gcd(abs(n), d))
                  for r, n, d in a)
        b = pycore.mul_terms(a, a)
        assert_canonical(b)
        assert_canonical(pycore.add_terms(a, b))
        assert pycore.add_terms(pycore.add_terms(a, b),
                                pycore.neg_terms(b)) == a


def random_squarefree(rng):
    """A squarefree radicand made of distinct small primes (smooth, so
    that factoring a product of two of them stays cheap)."""
    return prod(rng.sample(SMALL_PRIMES, rng.randint(0, 12)))


def test_mul_terms_gcd_rule_matches_factoring():
    rng = random.Random(64)
    wide = 0
    for _ in range(3000):
        ra = random_squarefree(rng)
        # shared prime factors, equal radicands and radicand 1 as well
        rb = rng.choice((random_squarefree(rng), ra, 1,
                         ra // gcd(ra, 6) * rng.choice((1, 5, 17 * 19))))
        if not pycore.is_squarefree(rb):
            continue
        wide += ra * rb >= 2**64
        na, nb = (rng.randrange(-(10**45), 10**45) or 1 for _ in range(2))
        da, db = (rng.randrange(1, 10**45) for _ in range(2))
        a = make_terms(na, da, ra)
        b = make_terms(nb, db, rb)
        assert pycore.mul_terms(a, b) == make_terms(
            na * nb, da * db, ra * rb)
    assert wide > 1000


def to_sympy(t):
    return sympy.Add(*(sympy.Rational(n, d) * sympy.sqrt(r)
                       for r, n, d in t))


def test_mul_terms_matches_sympy():
    rng = random.Random(1414)
    for _ in range(100):
        a, b = (random_terms(rng, rad_bound=200, coeff_bound=10**30)
                for _ in range(2))
        got = pycore.mul_terms(a, b)
        assert_canonical(got)
        assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(got)) == 0


def test_make_terms_normalizes():
    assert make_terms(1, 1, 12) == ((3, 2, 1),)
    assert make_terms(2, 4, 1) == ((1, 1, 2),)
    assert make_terms(0, 5, 7) == ()
    assert make_terms(-3, 9, 50) == ((2, -5, 3),)


def test_add_terms_cancellation():
    x = make_terms(1, 1, 8)
    y = make_terms(-2, 1, 2)
    assert pycore.add_terms(x, y) == ()
    assert pycore.add_terms((), x) == x


def test_mul_terms_known_products():
    s2 = make_terms(1, 1, 2)
    assert pycore.mul_terms(s2, s2) == ((1, 2, 1),)
    s6 = pycore.mul_terms(s2, make_terms(1, 1, 3))
    assert s6 == ((6, 1, 1),)
    # sqrt(6) * sqrt(10) == 2 * sqrt(15)
    s10 = make_terms(1, 1, 10)
    assert pycore.mul_terms(s6, s10) == ((15, 2, 1),)
    # (1 + sqrt(2)) * (sqrt(2) - 1) == 1
    p = pycore.add_terms(make_terms(1, 1, 1), s2)
    q = pycore.add_terms(s2, make_terms(-1, 1, 1))
    assert pycore.mul_terms(p, q) == ((1, 1, 1),)


def test_dot_and_matmul_terms_match_elementwise():
    rng = random.Random(5)
    u = [random_terms(rng) for _ in range(4)]
    v = [random_terms(rng) for _ in range(4)]
    by_hand = ()
    for x, y in zip(u, v):
        by_hand = pycore.add_terms(by_hand, pycore.mul_terms(x, y))
    assert pycore.dot_terms(u, v) == by_hand

    a = [[random_terms(rng) for _ in range(3)] for _ in range(2)]
    b = [[random_terms(rng) for _ in range(4)] for _ in range(3)]
    got = pycore.matmul_terms(a, b)
    cols = list(zip(*b))
    for i in range(2):
        for j in range(4):
            assert got[i][j] == pycore.dot_terms(a[i], cols[j])


def test_terms_evaluate_like_floats():
    rng = random.Random(17)
    for _ in range(300):
        a = random_terms(rng)
        b = random_terms(rng)
        fa = sum(n / d * r ** 0.5 for r, n, d in a)
        fb = sum(n / d * r ** 0.5 for r, n, d in b)
        s = pycore.add_terms(a, b)
        p = pycore.mul_terms(a, b)
        fs = sum(n / d * r ** 0.5 for r, n, d in s)
        fp = sum(n / d * r ** 0.5 for r, n, d in p)
        assert fs == pytest.approx(fa + fb, abs=1e-8, rel=1e-8)
        assert fp == pytest.approx(fa * fb, abs=1e-8, rel=1e-8)
