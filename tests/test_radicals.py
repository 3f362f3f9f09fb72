"""Exact radical-sum scalars: construction, arithmetic, text forms."""

import math
import random
import time
from fractions import Fraction

import pytest

from exactframes import radicals
from exactframes.errors import DomainError, ParseError, ResourceLimitError
from exactframes.matrices import ExactMatrix
from exactframes.radicals import (_QUOTE_CHARS, ONE, ZERO, RadicalScalar,
                                  _terms_of, format_scalar, make,
                                  parse_scalar, sqrt_rational)

from kernel_reference import make_terms


@pytest.mark.parametrize("coeff,rad,expected_terms", (
    (1, 12, ((3, Fraction(2)),)),
    (Fraction(1, 4), 1, ((1, Fraction(1, 4)),)),
    (Fraction(-1, 4), 7, ((7, Fraction(-1, 4)),)),
    (Fraction(2, 6), 18, ((2, Fraction(1)),)),
    (0, 5, ()),
))
def test_make_normalizes(coeff, rad, expected_terms):
    assert make(coeff, rad).terms == expected_terms


def test_make_rejects_bad_radicand():
    with pytest.raises(DomainError):
        make(1, 0)
    with pytest.raises(DomainError):
        make(1, -3)
    with pytest.raises(DomainError):
        make(1, Fraction(1, 2))


def test_make_obeys_the_radicand_cap():
    # 2^61 - 1 is prime: trial division would take minutes
    with pytest.raises(ResourceLimitError, match="cap of 40 bits"):
        make(1, 2 ** 61 - 1)
    with pytest.raises(ResourceLimitError):
        sqrt_rational(Fraction(1, 2 ** 61 - 1))
    assert make(1, 3 * 4 ** 19) == make(2 ** 19, 3)  # 40 bits


def test_sqrt_rational():
    assert sqrt_rational(Fraction(1, 2)) == make(Fraction(1, 2), 2)
    assert sqrt_rational(Fraction(9, 4)) == RadicalScalar(Fraction(3, 2))
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(Fraction(7, 16)) == make(Fraction(1, 4), 7)
    with pytest.raises(DomainError):
        sqrt_rational(-1)


def test_add_cancels():
    s2, s3 = make(1, 2), make(1, 3)
    assert s2 + s3 + -s2 == s3
    assert make(1, 8) + make(-2, 2) == ZERO
    assert make(Fraction(1, 4), 7) + make(Fraction(1, 4), 7) == \
        make(Fraction(1, 2), 7)


def test_mul_known_products():
    s2 = make(1, 2)
    assert s2 * s2 == RadicalScalar(2)
    assert make(Fraction(1, 4), 7) * make(Fraction(1, 4), 5) == \
        make(Fraction(1, 16), 35)
    assert (s2 + ONE) * (s2 - ONE) == ONE
    assert make(1, 6) * make(1, 10) == make(2, 15)


def test_is_zero():
    assert (make(1, 8) - make(2, 2)).is_zero
    assert not (make(1, 2) - make(1, 3)).is_zero
    assert ZERO.is_zero
    assert bool(ONE) and not bool(ZERO)


def test_to_float_values():
    assert make(2, 3).to_float() == pytest.approx(3.4641016151377546, abs=0)
    assert make(Fraction(-1, 4), 7).to_float() == pytest.approx(
        -0.6614378277661477, abs=0)
    assert ZERO.to_float() == 0.0
    # nearest double to 1/sqrt(3), not the doubly rounded 1/math.sqrt(3)
    assert "%.17g" % sqrt_rational(Fraction(1, 3)).to_float() == \
        "0.57735026918962573"


def test_decimal_roots_are_remembered_in_bounded_memory():
    for r in range(2, 5002):
        assert make(1, r).to_float() == math.sqrt(r)
    assert radicals._dec_sqrt.cache_info().currsize <= 1024


def test_as_fraction_and_coefficient():
    x = RadicalScalar(Fraction(3, 7))
    assert x.as_fraction() == Fraction(3, 7)
    with pytest.raises(DomainError):
        make(1, 2).as_fraction()
    y = make(Fraction(5, 3), 12)
    assert y.coefficient(3) == Fraction(10, 3)
    assert y.coefficient(12) == Fraction(5, 3)
    assert y.coefficient(5) == 0


@pytest.mark.parametrize("scalar,text", (
    (make(Fraction(-1, 4), 7), "-1/4*sqrt(7)"),
    (RadicalScalar(Fraction(1, 2)), "1/2"),
    (make(1, 2) + make(1, 3), "sqrt(2) + sqrt(3)"),
    (RadicalScalar(Fraction(1, 2)) - make(Fraction(1, 4), 7),
     "1/2 - 1/4*sqrt(7)"),
    (ZERO, "0"),
    (make(-2, 5), "-2*sqrt(5)"),
))
def test_format_scalar(scalar, text):
    assert format_scalar(scalar) == text
    assert parse_scalar(text) == scalar


@pytest.mark.parametrize("text,value", (
    ("2/3", RadicalScalar(Fraction(2, 3))),
    ("-1/4*sqrt(7) + 1/2", RadicalScalar(Fraction(1, 2)) -
     make(Fraction(1, 4), 7)),
    ("sqrt(8)", make(2, 2)),
    ("1/2*sqrt(12) - sqrt(3)", ZERO),
    ("  3 ", RadicalScalar(3)),
    ("-sqrt(2)", make(-1, 2)),
))
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_parse_notes_nonsquarefree():
    notes = []
    parse_scalar("sqrt(8)", notes)
    assert len(notes) == 1 and "8" in notes[0]
    notes = []
    parse_scalar("2*sqrt(7)", notes)
    assert notes == []


class Half(Fraction):
    """A Fraction subclass, which _terms_of must read through Fraction()."""


@pytest.mark.parametrize("value", (
    0, 1, -7, 10 ** 40, -(10 ** 40), True, False, Fraction(3, 6),
    Fraction(-2, 4), Fraction(0), Half(1, 2), Half(0),
))
def test_terms_of_agrees_with_fraction_and_make_terms(value):
    q = Fraction(value)
    terms = _terms_of(value)
    assert terms == make_terms(q.numerator, q.denominator, 1)
    # a bool would compare equal to its int but write as True or False
    assert all(type(n) is int and type(d) is int for _, n, d in terms)
    assert RadicalScalar(value)._terms == terms


class Float(float):
    """A float subclass, such as numpy's float64."""


@pytest.mark.parametrize("value", (0.5, -2.25, 0.0, Float(0.5)),
                         ids=("0.5", "-2.25", "0.0", "float_subclass"))
def test_terms_of_refuses_floats(value):
    # arithmetic and == refuse floats, so construction does too: an
    # accepted 0.5 would equal Fraction(1, 2) while 1/2 != 0.5
    name = type(value).__name__
    with pytest.raises(TypeError, match=f"a {name} is not an exact scalar"):
        _terms_of(value)
    with pytest.raises(TypeError, match=name):
        RadicalScalar(value)
    with pytest.raises(TypeError, match=name):
        ExactMatrix([[1, value]])
    with pytest.raises(TypeError, match=name):
        ExactMatrix([[1]]).scale(value)
    with pytest.raises(TypeError, match=name):
        make(value, 3)
    with pytest.raises(TypeError, match=name):
        sqrt_rational(value)
    with pytest.raises(TypeError):
        RadicalScalar(1) + value
    assert RadicalScalar(Fraction(1, 2)) != 0.5


@pytest.mark.parametrize("build", (
    lambda: RadicalScalar("\u0663"),
    lambda: make("1e3", 2),
    lambda: sqrt_rational("1_000"),
    lambda: ExactMatrix([["1"]]),
), ids=("arabic_indic_three", "make_exponent", "sqrt_underscore",
        "matrix_cell"))
def test_terms_of_refuses_strings(build):
    # Fraction() reads text outside the scalar grammar ('1e3' is 1000,
    # the Arabic-Indic three is 3), so text goes through parse_scalar
    with pytest.raises(TypeError, match="a str is not an exact scalar; "
                       ".*parse_scalar"):
        build()


def test_terms_of_a_scalar_is_its_own_terms():
    x = make(Fraction(2, 3), 12) - 1
    assert _terms_of(x) is x._terms


def test_coefficient_applies_the_radicand_cap():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap of 40 bits"):
        make(1, 2).coefficient(2 ** 61 - 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", (
    "x" * 5000,
    "1 " * 2000,
    "1/0" + " + 1" * 1000,
    "sqrt(0)" + " + 1" * 1000,
    ("1" * 300 + " ") * 20,
))
def test_parse_errors_quote_a_bounded_prefix(text):
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    message = str(exc.value)
    assert f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)" in message
    assert len(message) < 2 * _QUOTE_CHARS + 80


@pytest.mark.parametrize("text,message", (
    ("1/0", "zero denominator in '1/0'"),
    ("sqrt(0)", "radicand must be positive in 'sqrt(0)'"),
    ("2 3", "expected '+' or '-' at position 2 in '2 3'"),
    ("x" * _QUOTE_CHARS, f"expected a term at position 0 in "
                         f"{'x' * _QUOTE_CHARS!r}"),
))
def test_parse_errors_quote_short_texts_whole(text, message):
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", (
    ("\u0663", "expected a term at position 0 in '\u0663'"),
    ("1\u00a0+ 2", "expected '+' or '-' at position 1 in '1\\xa0+ 2'"),
    ("\u00a01", "expected a term at position 0 in '\\xa01'"),
    ("sqrt(\uff12)", "expected a term at position 0 in 'sqrt(\uff12)'"),
))
def test_parse_reads_ascii_digits_and_whitespace_only(text, message):
    # an Arabic-Indic three, a no-break space and a fullwidth two
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", (
    "", "sqrt()", "sqrt(-2)", "1//2", "2 +", "sqrt(2", "1.5", "x", "+",
    "sqrt(2)sqrt(3)",
))
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@pytest.mark.parametrize("template", ("{}", "-1/{}", "{}*sqrt(2)",
                                      "1 + sqrt({})"))
def test_parse_refuses_integers_past_the_digit_limit(digit_limit, template):
    # int() would raise a ValueError telling the user to raise the limit
    text = template.format("7" * (digit_limit + 1))
    with pytest.raises(ParseError, match=f"limit of {digit_limit} digits"):
        parse_scalar(text)
    assert parse_scalar("7" * digit_limit) == int("7" * digit_limit)


def random_scalar(rng, max_terms=4):
    total = ZERO
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        total = total + make(coeff, rng.randint(1, 50))
    return total


def test_ring_laws_randomized():
    rng = random.Random(1234)
    for _ in range(500):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_float_oracle_agreement():
    rng = random.Random(4321)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        fa = sum(float(c) * math.sqrt(r) for r, c in a.terms)
        fb = sum(float(c) * math.sqrt(r) for r, c in b.terms)
        assert (a + b).to_float() == pytest.approx(fa + fb, abs=1e-9,
                                                   rel=1e-9)
        assert (a * b).to_float() == pytest.approx(fa * fb, abs=1e-9,
                                                   rel=1e-9)


def test_round_trip_randomized():
    rng = random.Random(777)
    for _ in range(300):
        a = random_scalar(rng)
        assert parse_scalar(format_scalar(a)) == a


def test_hash_consistency():
    a = make(1, 8)
    b = make(2, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("value", (
    0, 1, -1, 7, 10 ** 40, Fraction(1, 3), Fraction(-5, 2), Fraction(4, 2),
    Fraction(0),
))
def test_rational_scalars_hash_as_their_value(value):
    x = RadicalScalar(value)
    assert x == value and hash(x) == hash(value)
    assert {value: "a"}.get(x) == "a"
    assert {x: "a"}.get(value) == "a"


def test_irrational_scalars_hash_their_terms():
    x = make(1, 2) + 1
    assert hash(x) == hash(x._terms)


def test_operator_coercion():
    assert make(1, 2) * 2 == make(2, 2)
    assert 1 + make(1, 2) - 1 == make(1, 2)
    assert (2 - make(1, 2)) + (make(1, 2) - 2) == ZERO
    with pytest.raises(TypeError):
        make(1, 2) + 0.5
