"""Exact scalars of the form ``sum(q_r * sqrt(r))``.

Each scalar is a finite sum of rational multiples of square roots of
distinct squarefree positive integers; the rational part is the ``r == 1``
term.  This set is closed under addition, negation and multiplication
(products of roots reduce via ``sqrt(a)*sqrt(b) == g*sqrt((a/g)*(b/g))``
with ``g == gcd(a, b)``), which is all the constructions here need.
There is no division and no ordering.

Equality is structural on the canonical term tuple, so ``==`` decides
exact mathematical equality.  ``RadicalScalar`` is immutable and
hashable.

Text form, accepted by :func:`parse_scalar` and produced by ``str()``:

    scalar  :=  ["+"|"-"] term (("+"|"-") term)*
    term    :=  rational | rational "*" root | root
    rational:=  integer ["/" integer]
    root    :=  "sqrt(" integer ")"

Whitespace may lead, trail and separate any two tokens, ``sqrt`` and
``(`` being two.  Digits and whitespace are ASCII: ``[0-9]`` and
``[ \t\n\r\f\v]``.

An integer of more digits than the interpreter converts
(``sys.get_int_max_str_digits()``) is a ParseError naming that limit.

Canonical output orders terms by ascending radicand, writes the rational
part first and omits unit coefficients, e.g. ``1/2 - 1/4*sqrt(7)``.
One renderer writes it for ``str()``, csv cells, witness residuals and
``matrix_id``, and, spelled with ``\\frac`` and ``\\sqrt``, LaTeX cells.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

from exactframes import _kernel
from exactframes.errors import DomainError, ParseError, ResourceLimitError

RationalLike = Union[int, Fraction]

# Largest radicand, in bits, that the readers accept.  Radicands are
# factored by trial division, up to the square root: a 40-bit prime
# takes about 0.1 s, a 44-bit one 0.4 s and 2^61 - 1 over 15 s.
MAX_RADICAND_BITS = 40

_DEC_PRECISION = 40


def _operator(op):
    """The arithmetic method that applies the kernel's ``op`` to the
    terms of the scalar and of the other operand."""
    def method(self, other: object) -> RadicalScalar:
        t = _coerce(other)
        if t is None:
            return NotImplemented
        return RadicalScalar._raw(op(self._terms, t))
    return method


class RadicalScalar:
    """Immutable exact sum of rational multiples of square roots."""

    __slots__ = ("_terms",)

    def __init__(self, value: RationalLike | RadicalScalar = 0) -> None:
        self._terms = _terms_of(value)

    @classmethod
    def _raw(cls, terms: tuple) -> RadicalScalar:
        self = object.__new__(cls)
        self._terms = terms
        return self

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Pairs ``(radicand, coefficient)`` in ascending radicand order."""
        return tuple((r, Fraction(n, d)) for r, n, d in self._terms)

    @property
    def radicands(self) -> tuple[int, ...]:
        return tuple(r for r, _, _ in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return len(self._terms) == 0 or (
            len(self._terms) == 1 and self._terms[0][0] == 1)

    def coefficient(self, radicand: int) -> Fraction:
        """Coefficient of ``sqrt(radicand)``; the radicand need not be
        squarefree, but has at most MAX_RADICAND_BITS bits."""
        if radicand < 1:
            raise DomainError("radicand must be a positive integer")
        outer, core = split_radicand(radicand, {})
        for r, n, d in self._terms:
            if r == core:
                return Fraction(n, d) / outer
        return Fraction(0)

    def as_fraction(self) -> Fraction:
        """The exact rational value; raises DomainError if irrational."""
        if not self.is_rational:
            raise DomainError(f"scalar {self} is not rational")
        return Fraction(*self._terms[0][1:]) if self._terms else Fraction(0)

    def to_float(self) -> float:
        """Nearest binary float, via 40-digit decimal evaluation."""
        if not self._terms:
            return 0.0
        with localcontext() as ctx:
            ctx.prec = _DEC_PRECISION
            total = Decimal(0)
            for r, n, d in self._terms:
                c = Decimal(n) / Decimal(d)
                if r != 1:
                    c *= _dec_sqrt(r)
                total += c
            return float(total)

    def __neg__(self) -> RadicalScalar:
        return RadicalScalar._raw(_kernel.neg_terms(self._terms))

    __add__ = __radd__ = _operator(_kernel.add_terms)
    __sub__ = _operator(
        lambda a, b: _kernel.add_terms(a, _kernel.neg_terms(b)))
    __rsub__ = _operator(
        lambda a, b: _kernel.add_terms(b, _kernel.neg_terms(a)))
    __mul__ = __rmul__ = _operator(_kernel.mul_terms)

    def __eq__(self, other: object) -> bool:
        t = _coerce(other)
        if t is None:
            return NotImplemented
        return self._terms == t

    def __hash__(self) -> int:
        # a rational scalar equals its int or Fraction, so hashes as it
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"RadicalScalar({format_scalar(self)!r})"


def _terms_of(value: RationalLike | RadicalScalar) -> tuple:
    """The canonical kernel terms of a scalar, an int or a rational:
    the one conversion of a value into the ring.  Only an exact ``int``
    or ``Fraction`` is read as is; a float or a str is refused with
    TypeError (:func:`_rational`), and a bool, a subclass or anything
    else goes through ``Fraction()``, so that numerators are always
    ints."""
    if isinstance(value, RadicalScalar):
        return value._terms
    cls = type(value)
    if cls is int:
        return ((1, value, 1),) if value else ()
    if cls is not Fraction:
        value = _rational(value)
    return ((1, value.numerator, value.denominator),) if value else ()


def _rational(value: RationalLike) -> Fraction:
    """``Fraction(value)``, refusing a float (its binary value is rarely
    the number written) and a str (read outside the scalar grammar)."""
    if isinstance(value, (float, str)):
        raise TypeError(f"a {type(value).__name__} is not an exact scalar; "
                        "pass an int or a Fraction, or use parse_scalar")
    return Fraction(value)


def _coerce(value: object) -> tuple | None:
    """The terms of an arithmetic operand, or None for another type."""
    if isinstance(value, (RadicalScalar, int, Fraction)):
        return _terms_of(value)
    return None


@lru_cache(maxsize=1024)
def _dec_sqrt(radicand: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DEC_PRECISION + 5
        return Decimal(radicand).sqrt()


ZERO = RadicalScalar(0)
ONE = RadicalScalar(1)


def make(coeff: RationalLike, radicand: int) -> RadicalScalar:
    """The scalar ``coeff * sqrt(radicand)``.

    ``radicand`` must be a positive integer of at most MAX_RADICAND_BITS
    bits; non-squarefree values are normalized, e.g.
    ``make(1, 12) == make(2, 3)``.
    """
    if not isinstance(radicand, int) or radicand < 1:
        raise DomainError("radicand must be a positive integer")
    outer, core = split_radicand(radicand, {})
    q = _rational(coeff)
    return RadicalScalar._raw(
        _kernel.root_terms(q.numerator * outer, q.denominator, core))


def sqrt_rational(value: RationalLike) -> RadicalScalar:
    """Exact square root of a nonnegative rational:
    ``sqrt(p/q) == (1/q) * sqrt(p*q)``."""
    q = _rational(value)
    if q < 0:
        raise DomainError("cannot take a real square root of a negative value")
    if q == 0:
        return ZERO
    return make(Fraction(1, q.denominator), q.numerator * q.denominator)


def format_scalar(x: RadicalScalar) -> str:
    """Canonical text form; round-trips through :func:`parse_scalar`."""
    return _format_terms(x._terms)


def _format_terms(terms: tuple, frac: str = "%d/%d", root: str = "sqrt(%d)",
                  times: str = "*") -> str:
    """Render canonical kernel terms, the rational part first, with a
    sign between terms and unit coefficients omitted.  ``frac`` spells a
    coefficient ``n/d`` from ``(n, d)``, ``root`` a square root from its
    radicand, and ``times`` joins a coefficient to its root.  An integer
    past the interpreter's digit limit raises ResourceLimitError."""
    if not terms:
        return "0"
    out = ""
    try:
        for r, n, d in terms:
            if n < 0:
                out += " - " if out else "-"
                n = -n
            elif out:
                out += " + "
            coeff = str(n) if d == 1 else frac % (n, d)
            if r == 1:
                out += coeff
            elif coeff == "1":
                out += root % r
            else:
                out += coeff + times + root % r
    except ValueError:
        # str() and %d refuse an int past the limit
        raise _digit_limit_error() from None
    return out


def _digit_limit_error() -> ResourceLimitError:
    return ResourceLimitError(
        "a coefficient has more digits than the interpreter's limit "
        f"of {sys.get_int_max_str_digits()} for integer text")


def split_radicand(rad: int, splits: dict[int, tuple[int, int]]
                   ) -> tuple[int, int]:
    """``(outer, core)`` with ``rad == outer**2 * core``, core squarefree,
    factored at most once per memo ``splits``.

    Readers own one memo per call, so a radicand that repeats across
    the cells of one input is factored once.  A radicand of more than
    MAX_RADICAND_BITS bits raises ResourceLimitError before any
    factoring.
    """
    split = splits.get(rad)
    if split is None:
        if rad.bit_length() > MAX_RADICAND_BITS:
            raise _radicand_cap_error(rad)
        split = splits[rad] = _kernel.squarefree_split(rad)
    return split


def _radicand_cap_error(rad: int) -> ResourceLimitError:
    # the radicand may have more digits than str() may write, so the
    # message gives its size only
    return ResourceLimitError(
        f"a radicand of {rad.bit_length()} bits is beyond the cap of "
        f"{MAX_RADICAND_BITS} bits")


# One term, the sign before it, which only the first term may omit, and
# the whitespace around it; whitespace may separate any two tokens.
# Digits and whitespace are ASCII only (re.ASCII): another script's
# digit or a no-break space is an error, not a number or a gap.
# Groups: sign, numerator, denominator, the radicand after "*" and the
# radicand of a bare root.
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?"
                   r"(?:\s*\*\s*sqrt\s*\(\s*(\d+)\s*\))?"
                   r"|sqrt\s*\(\s*(\d+)\s*\))\s*", re.ASCII)
# what \s matches under re.ASCII
_SPACE = " \t\n\r\f\v"


# Longest input text an error message quotes whole: a longer one is
# quoted by its first this many characters and its length.
_QUOTE_CHARS = 64


def _quote(text: str) -> str:
    """``repr(text)``, cut to its first _QUOTE_CHARS characters when
    longer, so that an error message stays short whatever its input."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


# Integer texts shorter than this always convert: it is the smallest
# digit limit the interpreter can be given (sys.set_int_max_str_digits).
_DIGITS_CHECKED_FROM = getattr(sys.int_info, "str_digits_check_threshold",
                               float("inf"))


def _check_digit_runs(m: re.Match) -> None:
    """Refuse an integer of more digits than ``int()`` converts, before
    the conversion raises a ValueError that names no position."""
    limit = sys.get_int_max_str_digits()
    for k in range(2, 6):
        run = m.group(k)
        if limit and run and len(run) > limit:
            raise ParseError(
                f"integer at position {m.start(k)} has {len(run)} digits, "
                f"beyond the interpreter's limit of {limit} digits")


def parse_scalar(text: str, notes: list[str] | None = None,
                 splits: dict[int, tuple[int, int]] | None = None
                 ) -> RadicalScalar:
    """Parse the scalar text grammar (inverse of :func:`format_scalar`).

    Non-squarefree radicands are normalized; when ``notes`` is given a
    message is appended for each normalization.  ``splits`` is the
    radicand memo of :func:`split_radicand`, for a caller that parses
    many scalars; by default each call has its own.
    """
    if splits is None:
        splits = {}
    terms: tuple = ()
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m is None or (pos and not m.group(1)):
            rest = text[pos:].lstrip(_SPACE)
            if not rest:
                raise ParseError("empty scalar text")
            want = "a term" if pos == 0 or rest[0] in "+-" else "'+' or '-'"
            raise ParseError(f"expected {want} at position "
                             f"{len(text) - len(rest)} in {_quote(text)}")
        if m.end() - pos > _DIGITS_CHECKED_FROM:
            _check_digit_runs(m)
        sign, num, den, rad, root = m.groups()
        n = int(num) if num else 1
        d = int(den) if den else 1
        if d == 0:
            raise ParseError(f"zero denominator in {_quote(text)}")
        outer = core = 1
        rad = rad or root
        if rad:
            rad = int(rad)
            if rad < 1:
                raise ParseError(
                    f"radicand must be positive in {_quote(text)}")
            outer, core = split_radicand(rad, splits)
            if notes is not None and outer != 1:
                norm = _format_terms(_kernel.root_terms(outer, 1, core))
                notes.append(f"radicand {rad} is not squarefree; "
                             f"normalized to {norm}")
        if sign == "-":
            n = -n
        terms = _kernel.add_terms(terms,
                                  _kernel.root_terms(n * outer, d, core))
        pos = m.end()
        if pos == len(text):
            return RadicalScalar._raw(terms)
