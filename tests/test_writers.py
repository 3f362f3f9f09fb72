"""The bytes of every matrix writer, pinned.

``serialize`` in all four formats, ``str()`` and the digest behind
``matrix_id`` are output that users compare and paste, so each is held
here byte for byte.  The LaTeX cell is also checked, on random scalars,
against an independent reference renderer built on ``Fraction`` terms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactframes.io import FORMATS, serialize
from exactframes.matrices import ExactMatrix
from exactframes.radicals import ONE, ZERO, RadicalScalar, make

BIG = 10 ** 30

MATRICES = {
    # a negative leading term, unit coefficients, rational parts first,
    # a zero and a rational entry
    "mixed": ExactMatrix([
        [Fraction(-1, 2) + make(Fraction(3, 4), 2), make(1, 2), make(-1, 2)],
        [ZERO, make(-2, 5) + make(1, 7), Fraction(5, 3)],
        [ONE, -ONE, make(Fraction(1, 3), 6) - make(1, 10)],
    ]),
    "large": ExactMatrix([[make(BIG, 3) - Fraction(7, BIG + 1),
                           make(Fraction(-BIG, BIG + 1), 11)]]),
    "one_by_one": ExactMatrix([[make(-1, 3)]]),
    "zero": ExactMatrix([[0]]),
}

GOLDEN = {
    "mixed": {
        "exact-json":
            '{"cols":3,"entries":[[[{"den":2,"num":-1,"rad":1},'
            '{"den":4,"num":3,"rad":2}],[{"den":1,"num":1,"rad":2}],'
            '[{"den":1,"num":-1,"rad":2}]],[[],[{"den":1,"num":-2,"rad":5},'
            '{"den":1,"num":1,"rad":7}],[{"den":3,"num":5,"rad":1}]],'
            '[[{"den":1,"num":1,"rad":1}],[{"den":1,"num":-1,"rad":1}],'
            '[{"den":3,"num":1,"rad":6},{"den":1,"num":-1,"rad":10}]]],'
            '"rows":3}\n',
        "csv":
            "-1/2 + 3/4*sqrt(2),sqrt(2),-sqrt(2)\n"
            "0,-2*sqrt(5) + sqrt(7),5/3\n"
            "1,-1,1/3*sqrt(6) - sqrt(10)\n",
        "latex":
            "\\begin{bmatrix}\n"
            "-\\frac{1}{2} + \\frac{3}{4}\\sqrt{2} & \\sqrt{2} & -\\sqrt{2}"
            " \\\\\n"
            "0 & -2\\sqrt{5} + \\sqrt{7} & \\frac{5}{3} \\\\\n"
            "1 & -1 & \\frac{1}{3}\\sqrt{6} - \\sqrt{10}\n"
            "\\end{bmatrix}\n",
        "float-csv":
            "0.5606601717798213,1.4142135623730951,-1.4142135623730951\n"
            "0,-1.8263846439349889,1.6666666666666667\n"
            "1,-1,-2.3457810792406533\n",
        "str":
            "[-1/2 + 3/4*sqrt(2)               sqrt(2)                -sqrt(2)]\n"
            "[                 0  -2*sqrt(5) + sqrt(7)                     5/3]\n"
            "[                 1                    -1  1/3*sqrt(6) - sqrt(10)]",
        "digest":
            "83b539cb346a469327d265a2ad94644bab9129ffe137bb3a81618c950beb9072",
    },
    # {B} is 10**30 and {D} is 10**30 + 1
    "large": {
        "exact-json":
            '{"cols":2,"entries":[[[{"den":{D},"num":-7,"rad":1},'
            '{"den":1,"num":{B},"rad":3}],[{"den":{D},"num":-{B},"rad":11}]]],'
            '"rows":1}\n',
        "csv": "-7/{D} + {B}*sqrt(3),-{B}/{D}*sqrt(11)\n",
        "latex":
            "\\begin{bmatrix}\n"
            "-\\frac{7}{{D}} + {B}\\sqrt{3} & -\\frac{{B}}{{D}}\\sqrt{11}\n"
            "\\end{bmatrix}\n",
        "float-csv": "1.7320508075688774e+30,-3.3166247903553998\n",
        "str": "[-7/{D} + {B}*sqrt(3)  -{B}/{D}*sqrt(11)]",
        "digest":
            "829f04f51c3ece390bdd4e4f6cf06f646bc2e59abe7dff4b00429a375dcca369",
    },
    "one_by_one": {
        "exact-json":
            '{"cols":1,"entries":[[[{"den":1,"num":-1,"rad":3}]]],"rows":1}\n',
        "csv": "-sqrt(3)\n",
        "latex": "\\begin{bmatrix}\n-\\sqrt{3}\n\\end{bmatrix}\n",
        "float-csv": "-1.7320508075688772\n",
        "str": "[-sqrt(3)]",
        "digest":
            "18f48659afc58c0343c41a25fba73d4015b3148dba0bdaf715a9cddbcd6e7add",
    },
    "zero": {
        "exact-json": '{"cols":1,"entries":[[[]]],"rows":1}\n',
        "csv": "0\n",
        "latex": "\\begin{bmatrix}\n0\n\\end{bmatrix}\n",
        "float-csv": "0\n",
        "str": "[0]",
        "digest":
            "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    },
}


def _golden(name: str, what: str) -> str:
    return (GOLDEN[name][what].replace("{B}", str(BIG))
            .replace("{D}", str(BIG + 1)))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", MATRICES)
def test_serialize_bytes_are_pinned(name, fmt):
    assert serialize(MATRICES[name], fmt) == _golden(name, fmt)


@pytest.mark.parametrize("name", MATRICES)
def test_text_and_digest_are_pinned(name):
    m = MATRICES[name]
    assert str(m) == _golden(name, "str")
    assert m._text_digest() == _golden(name, "digest")


def reference_latex(x: RadicalScalar) -> str:
    """A scalar as LaTeX, rendered from its ``Fraction`` terms."""
    terms = x.terms
    if not terms:
        return "0"
    parts: list[str] = []
    for rad, coeff in terms:
        mag = abs(coeff)
        if parts:
            parts.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            parts.append("-")
        if mag.denominator == 1:
            body = str(mag.numerator)
        else:
            body = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if rad == 1:
            parts.append(body)
        elif mag == 1:
            parts.append(rf"\sqrt{{{rad}}}")
        else:
            parts.append(body + rf"\sqrt{{{rad}}}")
    return "".join(parts)


# unit and small coefficients are drawn often, so that the unit-root
# and sign rules are exercised, and huge ones now and then
coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(min_value=-2 ** 100, max_value=2 ** 100,
                 max_denominator=2 ** 100))


@st.composite
def scalars(draw):
    total = ZERO
    for _ in range(draw(st.integers(0, 4))):
        total = total + make(draw(coefficients),
                             draw(st.integers(1, 10 ** 6)))
    return total


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scalars())
def test_latex_cell_matches_the_reference(x):
    assert serialize(ExactMatrix([[x]]), "latex") == (
        "\\begin{bmatrix}\n" + reference_latex(x) + "\n\\end{bmatrix}\n")
