"""Property tests of the scalar and matrix text readers and writers,
of the two producers of the Gram stream, of the paving search and of
the hyperplane check (Hypothesis).

The settings are fixed (``derandomize=True``), so every run draws the
same examples.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactframes import _kernel, io, paving
from exactframes._kernel import graded
from exactframes.errors import DomainError, ParseError, ResourceLimitError
from exactframes.hyperplane import build
from exactframes.io import deserialize, serialize
from exactframes.matrices import ExactMatrix, _MEMO_TRIAL
from exactframes.radicals import (MAX_RADICAND_BITS, ZERO, RadicalScalar,
                                  _digit_limit_error, _format_terms,
                                  format_scalar, make, parse_scalar,
                                  split_radicand)
from exactframes.verify import check_hyperplane_basis, check_tight_frame
from hyperplane_reference import reference_check
from paving_reference import assert_same_result, reference_paving

FIXED = settings(derandomize=True, max_examples=300, deadline=None)

BIG = 2 ** 80

coefficients = st.fractions(min_value=-BIG, max_value=BIG,
                            max_denominator=BIG)
radicands = st.integers(1, 10 ** 6)


@st.composite
def scalars(draw):
    total = ZERO
    for _ in range(draw(st.integers(0, 4))):
        total = total + make(draw(coefficients), draw(radicands))
    return total


@FIXED
@given(scalars())
def test_format_then_parse_is_the_identity(x):
    assert parse_scalar(format_scalar(x)) == x


# whitespace that may sit between any two tokens: ASCII only
gaps = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\r\n"])


@st.composite
def term_texts(draw):
    """One term of the grammar as text, with whitespace before each
    token, and its signed value and the note its radicand gives; zero
    denominators and radicands are drawn too, and give value None."""
    sign = draw(gaps) + draw(st.sampled_from(["+", "-"]))
    num = draw(st.integers(0, 2 ** 70))
    den = draw(st.one_of(st.none(), st.integers(0, 2 ** 70)))
    rad = draw(st.one_of(st.none(), st.integers(0, 2000)))
    if den is None and rad is not None and draw(st.booleans()):
        num = None                      # a bare root
    tokens = []
    if num is not None:
        tokens.append(str(num))
        if den is not None:
            tokens += ["/", str(den)]
        if rad is not None:
            tokens.append("*")
    if rad is not None:
        tokens += ["sqrt", "(", str(rad), ")"]
    text = "".join(draw(gaps) + tok for tok in tokens)
    if den == 0 or rad == 0:
        return sign, text, None, None
    coeff = Fraction(1 if num is None else num, den or 1)
    value = make(-coeff if sign.endswith("-") else coeff, rad or 1)
    note = None
    if rad is not None:
        root = make(1, rad)
        if root.terms[0][1] != 1:
            note = (f"radicand {rad} is not squarefree; normalized to "
                    f"{format_scalar(root)}")
    return sign, text, value, note


@FIXED
@given(st.lists(term_texts(), min_size=1, max_size=5), st.booleans(), gaps)
def test_grammar_shaped_texts(terms, lead_sign, trail):
    # only the first term may omit its sign, and only a "+"
    parts = []
    for k, (sign, text, _, _) in enumerate(terms):
        if k or lead_sign or sign.endswith("-"):
            parts.append(sign)
        parts.append(text)
    source = "".join(parts) + trail
    if any(value is None for _, _, value, _ in terms):
        with pytest.raises(ParseError):
            parse_scalar(source)
        return
    notes = []
    got = parse_scalar(source, notes)
    want = ZERO
    for _, _, value, _ in terms:
        want = want + value
    assert got == want
    assert notes == [note for _, _, _, note in terms if note is not None]


TOKENS = list("0123456789()*/+-") + ["sqrt", " ", "\t"]
# stray characters include a no-break space, an Arabic-Indic digit and a
# superscript two, none of which the ASCII grammar reads
STRAY = list("x.,;e\u00a0\u0663\u00b2") + ["sq", "rt", "\n"]


@FIXED
@given(st.lists(st.sampled_from(TOKENS + STRAY), max_size=24))
def test_arbitrary_text_raises_only_reader_errors(pieces):
    text = "".join(pieces)
    try:
        parse_scalar(text)
    except (ParseError, ResourceLimitError):
        return
    assert not any(c in text for c in "\u00a0\u0663\u00b2")


matrices = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(scalars(), min_size=cols, max_size=cols),
    min_size=1, max_size=4)).map(ExactMatrix)


@pytest.mark.parametrize("fmt", ["csv", "exact-json"])
@settings(FIXED, max_examples=100)
@given(matrices)
def test_exact_formats_round_trip(fmt, m):
    assert deserialize(serialize(m, fmt)) == m


@pytest.mark.parametrize("fmt", ["csv", "exact-json"])
@settings(FIXED, max_examples=100)
@given(matrices)
def test_written_bytes_are_canonical(fmt, m):
    text = serialize(m, fmt)
    assert serialize(deserialize(text), fmt) == text


# a placeholder for an integer json.dumps cannot write past the
# interpreter's digit limit; it is spliced into the text afterwards
HUGE = "<5000 digits>"
WRONG_TYPES = [True, False, 1.0, 0.5, -2.0, float("inf"), float("nan"),
               "1", None, [], {}, HUGE]


# the text styles of an exact-json document: the writer's own bytes,
# json.dumps's default (", " and ": ", as the benchmark writes) and an
# indented one
JSON_STYLES = {"writer": {"sort_keys": True, "separators": (",", ":")},
               "dumps": {}, "indent": {"indent": 1}}


@st.composite
def mutated_json(draw, style="dumps", mutate=True):
    """An exact-json document that serialize wrote, in one of
    ``JSON_STYLES``, with one mutation unless ``mutate`` is false: a
    wrong type, a missing or extra key, a wrong row or entry count, a
    zero denominator, a radicand below 1 or past the cap, or an integer
    of 5,000 digits."""
    doc = json.loads(serialize(draw(matrices), "exact-json"))
    entries = doc["entries"]
    if not any(entry for row in entries for entry in row):
        entries[0][0] = [{"den": 1, "num": 1, "rad": 1}]
    terms = [t for row in entries for entry in row for t in entry]
    term = draw(st.sampled_from(terms))
    kind = draw(st.sampled_from(["type", "missing", "extra", "count",
                                 "den", "rad", "digits"])) if mutate else None
    if kind in ("type", "digits"):
        owner, key = draw(st.sampled_from(
            [(doc, "rows"), (doc, "cols"), (doc, "entries")]
            + [(term, k) for k in ("num", "den", "rad")]))
        owner[key] = HUGE if kind == "digits" else draw(
            st.sampled_from(WRONG_TYPES))
    elif kind == "missing":
        owner = draw(st.sampled_from([doc, term]))
        del owner[draw(st.sampled_from(sorted(owner)))]
    elif kind == "extra":
        draw(st.sampled_from([doc, term]))["extra"] = 1
    elif kind == "count":
        row = draw(st.sampled_from(entries))
        target = draw(st.sampled_from([entries, row]))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(target[-1])
    elif kind == "den":
        term["den"] = 0
    elif kind == "rad":
        term["rad"] = draw(st.one_of(st.integers(-2 ** 40, 0),
                                     st.integers(2 ** 40, 2 ** 80)))
    return json.dumps(doc, **JSON_STYLES[style]).replace(json.dumps(HUGE),
                                                         "7" * 5000)


@settings(FIXED, max_examples=300)
@given(mutated_json())
def test_mutated_exact_json_raises_only_reader_errors(text):
    try:
        deserialize(text)
    except (ParseError, ResourceLimitError):
        pass


# Cells drawn from a small pool, so that a matrix repeats them as the
# paper's families do; the pools hold non-squarefree radicands, which
# give notes, and bad cells, which end the read.
OVER_CAP = 2 ** MAX_RADICAND_BITS
pool_radicands = st.sampled_from([1, 1, 2, 3, 5, 4, 8, 12, 18, 50] * 3
                                 + [0, OVER_CAP])
pool_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
memo_trials = st.sampled_from([1, 3, _MEMO_TRIAL])


@st.composite
def pool_cell_texts(draw):
    text = ""
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+ ", "- "] if k else ["", "-"]))
        den = draw(st.sampled_from([1] * 12 + [3, 0]))
        text += (f"{sign}{draw(st.integers(0, 9))}/{den}"
                 f"*sqrt({draw(pool_radicands)}) ")
    return draw(st.sampled_from([text] * 20 + ["x", "\u0663", "1 2"]))


@st.composite
def pool_matrix(draw, cells):
    rows, cols = draw(pool_shapes)
    pool = draw(st.lists(cells, min_size=1, max_size=6))
    return [[draw(st.sampled_from(pool)) for _ in range(cols)]
            for _ in range(rows)]


def outcome(read, *args):
    """The terms and notes of a read, or the type and text of its
    error."""
    notes = []
    try:
        return read(*args, notes), notes
    except (ParseError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def csv_reference(rows, notes):
    """Each cell parsed by parse_scalar on its own, in reading order."""
    data = []
    for lineno, row in enumerate(rows, start=1):
        out = []
        for colno, cell in enumerate(row, start=1):
            try:
                out.append(parse_scalar(cell, notes)._terms)
            except ParseError as exc:
                raise ParseError(f"line {lineno}, cell {colno}: {exc}")
        data.append(tuple(out))
    return tuple(data)


@FIXED
@given(pool_matrix(pool_cell_texts()), memo_trials)
def test_csv_memo_reads_as_each_cell_alone(rows, trial):
    text = "".join(",".join(row) + "\n" for row in rows)
    with mock.patch("exactframes.matrices._MEMO_TRIAL", trial):
        got = outcome(lambda t, n: deserialize(t, n)._data, text)
    assert got == outcome(csv_reference, rows)


WRONG_FIELDS = ["x", True, 1.5, None]


@st.composite
def pool_entries(draw):
    """An exact-json entry of zero to three terms; now and then one has
    a wrong field, a missing key or an extra key."""
    entry = []
    for _ in range(draw(st.integers(0, 3))):
        term = {"num": draw(st.integers(-9, 9)),
                "den": draw(st.sampled_from([1] * 12 + [2, -3, 0])),
                "rad": draw(pool_radicands)}
        flaw = draw(st.sampled_from(["none"] * 40 + ["type", "drop", "add"]))
        key = draw(st.sampled_from(["num", "den", "rad"]))
        if flaw == "type":
            term[key] = draw(st.sampled_from(WRONG_FIELDS))
        elif flaw == "drop":
            del term[key]
        elif flaw == "add":
            term["extra"] = 1
        entry.append(term)
    return entry


def json_reference(entries, notes):
    """Each entry read on its own: every term checked, split and noted
    on sight, with no memo."""
    data = []
    for i, row in enumerate(entries):
        out = []
        for j, entry in enumerate(row):
            where = f"entries[{i}][{j}]"
            total = ()
            for t, term in enumerate(entry):
                if set(term) != {"num", "den", "rad"}:
                    raise ParseError(f"{where} term {t} must be an object "
                                     "with keys num, den, rad")
                num, den, rad = term["num"], term["den"], term["rad"]
                if not all(type(v) is int for v in (num, den, rad)):
                    raise ParseError(f"{where} term {t} fields must be "
                                     "integers")
                if den == 0:
                    raise ParseError(f"{where} term {t} has a zero "
                                     "denominator")
                if rad < 1:
                    raise ParseError(f"{where} term {t} has radicand {rad}; "
                                     "radicands must be positive")
                outer, core = split_radicand(rad, {})
                if outer != 1:
                    notes.append(f"{where} term {t}: radicand {rad} is not "
                                 f"squarefree; normalized to {outer}^2 * "
                                 f"{core}")
                total = _kernel.add_terms(
                    total, _kernel.root_terms(num * outer, den, core))
            out.append(total)
        data.append(tuple(out))
    return tuple(data)


@FIXED
@given(pool_matrix(pool_entries()), memo_trials)
def test_json_memo_reads_as_each_entry_alone(entries, trial):
    text = json.dumps({"rows": len(entries), "cols": len(entries[0]),
                       "entries": entries})
    with mock.patch("exactframes.matrices._MEMO_TRIAL", trial):
        got = outcome(lambda t, n: deserialize(t, n)._data, text)
    assert got == outcome(json_reference, entries)


def read_whole(text, notes):
    """The exact-json reader without its reading by entry text: one
    json.loads of the whole document."""
    with mock.patch.object(io, "_json_by_text", lambda text, notes: None):
        return deserialize(text, notes)._data


def read(text, notes):
    return deserialize(text, notes)._data


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("style", JSON_STYLES)
@settings(FIXED, max_examples=100)
@given(st.data())
def test_json_by_text_reads_as_the_whole_document(style, mutate, data):
    text = data.draw(mutated_json(style, mutate))
    assert outcome(read, text) == outcome(read_whole, text)
    if not mutate:
        assert io._json_by_text(text, []) is not None


@pytest.mark.parametrize("style", JSON_STYLES)
@FIXED
@given(pool_matrix(pool_entries()))
def test_json_by_text_gives_the_notes_and_errors_of_each_entry(style,
                                                               entries):
    text = json.dumps({"rows": len(entries), "cols": len(entries[0]),
                       "entries": entries}, **JSON_STYLES[style])
    got = outcome(read, text)
    assert got == outcome(json_reference, entries)
    assert got == outcome(read_whole, text)


def with_term(term):
    """A 2 x 2 document whose entry [1][0] is ``term`` and [0][1] a
    term of radicand 8, which gives a note."""
    return ('{"rows": 2, "cols": 2, "entries": [[[], [{"num": 1, "den": 1, '
            '"rad": 8}]], [[' + term + '], []]]}')


# Documents the reading by entry text declines; json.loads of the whole
# document reads them
@pytest.mark.parametrize("text", [
    with_term('{"n\\u0075m": 3, "den": 1, "rad": 2}'),
    with_term('{"nu m": 3, "den": 1, "rad": 2}'),
    with_term('{"num ": 3, "den": 1, "rad": 2}'),
    with_term('{"nu m": 3,\n "den": 1, "rad": 2}'),
    with_term('{"num": 3\n 1, "den": 1, "rad": 2}'),
    with_term('{"num": - 3, "den": 1,\n"rad": 2}'),
    with_term('[{"num": 3, "den": 1, "rad": 2}]'),
    with_term('{"num": [3], "den": 1, "rad": 2}'),
    with_term('{"num": 3, "den": 1, "rad": 2}], [{"num": 1, "den": 1, '
              '"rad": 1}'),
    '{"rows": 1, "cols": 1, "entries": [1,{"num": 1, "den": 1, '
    '"rad": 2},1]}',
    '{"rows": 1, "cols": 1, "entries": [[[]]], "x": [1]}',
    '{"rows": 1, "cols": 1, "entries": [[[]]], "x": [[[]]]}',
    '{"rows": 1, "cols": 1, "entries": [[[]]], "x": "]"}',
    with_term('{"num": ' + "7" * 5000 + ', "den": 1, "rad": 2}'),
    '{"rows": 1, "cols": ' + "7" * 5000 + ', "entries": [[[]]]}',
    with_term('{"num": 3, "num": 5, "den": 1, "rad": 2}'),
    '{"rows": 2, "rows": 2, "cols": 2, "entries": [[[], []], [[], []]]}',
    '{"rows": 2, "cols": 2, "entries": [[[], [], []], [[]]]}',
    '{"rows": 2, "cols": 2, "entries": [[[], []], [[], [], []]]}',
    '{"rows": 2, "cols": 2, "entries": [[[], []]]}',
], ids=["escaped-key", "space-in-key", "space-after-key",
        "space-in-key-indented", "space-in-number", "space-after-sign",
        "nested-entry", "nested-field", "ragged-entries",
        "entries-not-rows", "array-after", "entries-after", "bracket-after",
        "digits-entry", "digits-top", "duplicate-term-key",
        "duplicate-top-key", "ragged-rows", "long-last-row", "missing-row"])
def test_json_by_text_declines_and_the_whole_document_reads(text):
    assert io._json_by_text(text, []) is None
    assert outcome(read, text) == outcome(read_whole, text)


# Writers: cells drawn from a small pool again, now and then one past
# the float64 range or with more digits than the interpreter's default
# limit on integer text.
writer_cells = st.one_of(
    scalars(), scalars(),
    st.sampled_from([ZERO, make(-10 ** 400, 3), make(10 ** 5000, 1)]))


def reference_serialize(m, fmt):
    """Each cell rendered afresh, with no memo: the writer as it was
    before the cell map."""
    if fmt == "exact-json":
        try:
            rows = ",".join(
                "[" + ",".join(
                    "[" + ",".join(f'{{"den":{d},"num":{n},"rad":{r}}}'
                                   for r, n, d in entry) + "]"
                    for entry in row) + "]"
                for row in m._data)
        except ValueError:
            raise _digit_limit_error() from None
        return f'{{"cols":{m.cols},"entries":[{rows}],"rows":{m.rows}}}\n'
    if fmt == "float-csv":
        for i, row in enumerate(m._data):
            for j, terms in enumerate(row):
                if math.isinf(RadicalScalar._raw(terms).to_float()):
                    raise DomainError(
                        f"entry ({i + 1}, {j + 1}) is beyond the range of "
                        "a float64; float-csv cannot write it")
        return "".join(",".join("%.17g" % RadicalScalar._raw(t).to_float()
                                for t in row) + "\n" for row in m._data)
    if fmt == "csv":
        return "".join(",".join(map(_format_terms, row)) + "\n"
                       for row in m._data)
    lines = [" & ".join(_format_terms(t, r"\frac{%d}{%d}", r"\sqrt{%d}", "")
                        for t in row) for row in m._data]
    return ("\\begin{bmatrix}\n" + " \\\\\n".join(lines)
            + "\n\\end{bmatrix}\n")


def written(write, m, fmt):
    """The text of a write, or the type and text of its error."""
    try:
        return write(m, fmt)
    except (DomainError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@st.composite
def zero_run_rows(draw):
    """Rows of 33 to 96 cells from a pool, wide enough for the writer to
    write a row of long zero runs at its nonzero cells alone: each row
    all zero, a few nonzero cells, now and then at either end, or
    dense."""
    cols = draw(st.integers(33, 96))
    pool = draw(st.lists(writer_cells, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "few", "few", "few", "dense"]))
        row = [ZERO] * cols
        if kind == "dense":
            row = [draw(st.sampled_from(pool)) for _ in range(cols)]
        elif kind == "few":
            at = draw(st.lists(st.integers(0, cols - 1), max_size=6))
            at += draw(st.sampled_from([[], [0], [cols - 1], [0, cols - 1]]))
            for c in at:
                row[c] = draw(st.sampled_from(pool))
        rows.append(row)
    return rows


def converted(m, how):
    """str(), the text digest or the floats of a matrix."""
    return {"str": str, "digest": ExactMatrix._text_digest,
            "floats": ExactMatrix.to_float_rows}[how](m)


def reference_converted(m, how):
    """The same with each cell converted afresh, with no memo."""
    if how == "floats":
        return [[RadicalScalar._raw(t).to_float() for t in row]
                for row in m._data]
    cells = [list(map(_format_terms, row)) for row in m._data]
    widths = [max(len(row[j]) for row in cells) for j in range(m.cols)]
    text = "\n".join("[" + "  ".join(c.rjust(w) for c, w in zip(row, widths))
                     + "]" for row in cells)
    return text if how == "str" else hashlib.sha256(text.encode()).hexdigest()


@FIXED
@given(st.one_of(pool_matrix(writer_cells), zero_run_rows()), memo_trials)
def test_writers_render_as_each_cell_alone(rows, trial):
    m = ExactMatrix(rows)
    for how in ("str", "digest", "floats"):
        with mock.patch("exactframes.matrices._MEMO_TRIAL", trial):
            got = written(converted, m, how)
        assert got == written(reference_converted, m, how), how
    for fmt in io.FORMATS:
        with mock.patch("exactframes.matrices._MEMO_TRIAL", trial):
            got = written(serialize, m, fmt)
        assert got == written(reference_serialize, m, fmt), fmt
        if fmt == "exact-json" and isinstance(got, str):
            doc = {"rows": m.rows, "cols": m.cols,
                   "entries": [[[{"num": n, "den": d, "rad": r}
                                 for r, n, d in entry] for entry in row]
                               for row in m._data]}
            assert got == json.dumps(doc, sort_keys=True,
                                     separators=(",", ":")) + "\n"


@st.composite
def tied_symmetric(draw):
    """A symmetric matrix of at most 9 rows whose entries come from a
    pool of at most 3 distinct values, so that blocks and partitions
    tie exactly."""
    m = draw(st.integers(1, 9))
    pool = draw(st.lists(st.fractions(-2, 2, max_denominator=3),
                         min_size=1, max_size=3, unique=True))
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(pool))
    return ExactMatrix(rows)


@FIXED
@given(tied_symmetric(), st.sampled_from([1, 4, 64, 1 << 15]),
       st.one_of(st.none(), st.integers(1, 300)), st.integers(0, 2 ** 32))
def test_paving_search_matches_reference(g, chunk, sample, seed):
    # every chunk size from one partition and one matrix a stack to the
    # shipped budget, on the exhaustive search and on samples
    with mock.patch.object(paving, "_CHUNK_ENTRIES", chunk):
        got = paving.paving_epsilon(g, sample=sample, seed=seed)
    assert_same_result(got, reference_paving(g, sample=sample, seed=seed))


# The radicands of the random oracle tests of the graded Gram
# (tests/test_verify.py): products of two of them fold onto shared
# cores.  Coefficients reach past int64, and past the bound under which
# the graded Gram computes in int64.
GRAM_POOL = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 42)
gram_values = st.one_of(st.integers(-9, 9), st.integers(-2 ** 31, 2 ** 31),
                        st.integers(-BIG, BIG))


def int_rows_matrix(width, rows):
    """The matrix of dense integer rows ``(radicand, ints, denominator)``
    of ``width`` entries each, built as rows at offset 0."""
    rads, ints, dens = zip(*rows)
    return ExactMatrix._from_int_rows(width, rads, [(0, row) for row in ints],
                                      dens)


@st.composite
def gram_rows(draw):
    """The rows of a matrix of at most 8 x 8, each a zero row, a copy
    of an earlier row, or new: either integer rows of one radicand each,
    that carry their integer rows, or rows of sums over the pool."""
    n, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    one_radicand = draw(st.booleans())
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["new"] * 4 + ["zero", "copy"]))
        if kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "zero":
            rows.append((1, [0] * width, 1) if one_radicand
                        else [ZERO] * width)
        elif one_radicand:
            rows.append((draw(st.sampled_from(GRAM_POOL)),
                         [draw(st.one_of(st.just(0), gram_values))
                          for _ in range(width)],
                         draw(st.integers(1, 12))))
        else:
            rows.append([sum((make(Fraction(draw(gram_values),
                                            draw(st.integers(1, 12))),
                                   draw(st.sampled_from(GRAM_POOL)))
                              for _ in range(draw(st.integers(0, 3)))), ZERO)
                         for _ in range(width)])
    if one_radicand:
        return int_rows_matrix(width, rows)._data
    return ExactMatrix(rows)._data


@settings(FIXED, max_examples=200)
@given(gram_rows(), st.sampled_from([(1, 1), (3, 7), (-5, 2)]))
def test_graded_entries_are_the_scan(rows, scale):
    """The graded Gram's stream is the pair scan's, entry for entry,
    from both of its front ends, and on the columns too."""
    num, den = scale
    columns = tuple(zip(*rows))
    for form in (rows, tuple(rows), columns):
        assert list(_kernel._scan(form, num, den, True)) == list(
            graded.entries(form, num, den))
    # the columns read from the rows' split, without a transpose
    assert list(_kernel._scan(columns, num, den, True)) == list(
        graded.entries(_kernel.Columns(rows), num, den))


# Squarefree radicands past 2^31, over the primes 2147483659 and
# 2147483693: the cores of their products pass 2^62, and the graded
# Gram's sort keys run on Python ints.
WIDE_RADS = (2147483659, 2 * 2147483659, 3 * 2147483659, 2147483693,
             5 * 2147483693, 6 * 2147483693)


@st.composite
def wide_radicand_rows(draw):
    """The rows of a matrix of at most 8 x 6, each new or a copy of an
    earlier row; a new row's first entry has two distinct radicands, one
    past 2^31 in the first row, so every row carries at least two."""
    n, width = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    pool = st.sampled_from(WIDE_RADS + GRAM_POOL)
    rows = []
    for i in range(n):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        first = draw(st.sampled_from(WIDE_RADS)) if i == 0 else draw(pool)
        second = draw(pool.filter(lambda r: r != first))
        row = [make(draw(gram_values.filter(bool)), first)
               + make(draw(gram_values.filter(bool)), second)]
        for _ in range(width - 1):
            row.append(sum((make(Fraction(draw(gram_values),
                                          draw(st.integers(1, 12))),
                                 draw(pool))
                            for _ in range(draw(st.integers(0, 3)))), ZERO))
        rows.append(row)
    return ExactMatrix(rows)._data


@settings(FIXED, max_examples=100)
@given(wide_radicand_rows(), st.sampled_from([(3, 7), (-5, 2)]))
def test_graded_entries_with_wide_radicands_are_the_scan(rows, scale):
    """Radicands past 2^31 put the cores and the sort keys of the fold
    in Python ints; the stream is still the pair scan's, entry for
    entry."""
    num, den = scale
    gram = graded._Graded(rows)
    assert gram.packs is None and gram.rads.dtype == object
    assert list(_kernel._scan(rows, num, den, True)) == list(
        graded.entries(rows, num, den))


# pairs (a, b) with a^2 + b^2 = 1, but for the last, which misses 1 by
# 2^-70; the cells of the third carry two terms each, and their cross
# terms cancel only between the two cells
UNIT_PAIRS = ((Fraction(3, 5), Fraction(4, 5)),
              (make(Fraction(1, 2), 2), make(Fraction(1, 2), 2)),
              (make(Fraction(1, 4), 6) + make(Fraction(1, 4), 2),
               make(Fraction(1, 4), 6) - make(Fraction(1, 4), 2)),
              (1, Fraction(1, 2 ** 35)))


@st.composite
def tight_inputs(draw):
    """Matrices of at least as many rows as columns for the tight check.
    Either blocks ``[[a, b], [-b, a]]`` stacked, a tight frame whenever
    the sum of their ``a^2 + b^2`` is rational, all of unit pairs or all
    of drawn cells, and set side by side with a copy of themselves, or at
    most 7 x 5 drawn cells.  A drawn cell has up to three terms over
    radicands up to and past 2^31 and coefficients past int64; up to two
    rows are zero."""
    pool = st.sampled_from(WIDE_RADS + GRAM_POOL)

    def cell():
        return sum((make(Fraction(draw(gram_values),
                                  draw(st.integers(1, 12))), draw(pool))
                    for _ in range(draw(st.integers(0, 3)))), ZERO)

    if draw(st.booleans()):
        units = draw(st.booleans())
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            a, b = (draw(st.sampled_from(UNIT_PAIRS)) if units
                    else (cell(), cell()))
            rows += [[a, b], [-b, a]]
        if draw(st.booleans()):
            rows = [row + [0, 0] for row in rows] + [[0, 0] + row
                                                     for row in rows]
    else:
        width = draw(st.integers(1, 5))
        rows = [[cell() for _ in range(width)]
                for _ in range(draw(st.integers(width, 7)))]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows[i] = [0] * len(rows[i])
    return ExactMatrix(rows)


def tight_reference(a) -> dict:
    """``check_tight_frame(a).to_json_dict()`` as the columns' pair scan
    and one ``dot_terms`` per row give it."""
    cols = tuple(zip(*a._data))
    k = _kernel.dot_terms(cols[0], cols[0])
    out = {"passed": False, "property": "tight_frame"}
    if len(k) != 1 or k[0][0] != 1 or k[0][1] <= 0:
        out["witness"] = {"kind": "column_norm_squared", "i": 1, "j": 1,
                          "residual": _format_terms(k)}
        return out
    out["k"] = _format_terms(k)
    for i, col in enumerate(cols):
        for j in range(i, len(cols)):
            want = k if i == j else ()
            got = _kernel.dot_terms(col, cols[j])
            if got != want:
                out["witness"] = {
                    "kind": "column_inner_product", "i": i + 1, "j": j + 1,
                    "residual": _format_terms(_kernel.add_terms(
                        got, _kernel.neg_terms(want)))}
                return out
    out["passed"] = True
    out["unit_rows"] = all(_kernel.dot_terms(row, row) == ((1, 1, 1),)
                           for row in a._data)
    return out


@settings(FIXED, max_examples=200)
@given(tight_inputs())
def test_tight_check_above_the_cut_is_the_scans(m):
    """Above the size cut, the row norms read from the rows' split are
    ``dot_terms(row, row)``, cross terms and all, and the tight check,
    whose column Gram reads the same split, reports what the columns'
    pair scan and one ``dot_terms`` per row report."""
    with mock.patch.object(_kernel, "_SCAN_BELOW", 0):
        norms = _kernel.row_norms(m._data)
        report = check_tight_frame(m).to_json_dict()
    assert norms == [_kernel.dot_terms(row, row) for row in m._data]
    assert report == tight_reference(m)


@pytest.mark.parametrize("scale", [(1, 1), (3, 7), (-5, 2)])
def test_int_rows_of_wide_radicands_are_the_scan(scale):
    """Integer rows over radicands past 2^31, some repeated, with
    entries past int64 and a zero row: the one pack holds Python ints,
    the cores of pairs of rows pass 2^62, and the stream is the pair
    scan's, entry for entry."""
    num, den = scale
    rng = random.Random(den)
    rads = WIDE_RADS + (1, 2, 3, WIDE_RADS[0], WIDE_RADS[3])
    ints = [[rng.choice((0, rng.randint(-BIG, BIG))) for _ in range(6)]
            for _ in rads]
    ints[4] = [0] * 6
    dens = [rng.randint(1, 12) for _ in rads]
    rows = int_rows_matrix(6, zip(rads, ints, dens))._data
    packs = graded._Graded(rows).packs
    assert [left.dtype for left, _, _ in packs] == [object]
    assert list(_kernel._scan(rows, num, den, True)) == list(
        graded.entries(rows, num, den))


@st.composite
def one_radicand_rows(draw):
    """Integer rows of one radicand each, as ``gram_rows`` draws them,
    over the pool and radicands past 2^31, that carry their integer
    rows: each a zero row (of any radicand), a copy of an earlier row,
    or new."""
    n, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pool = st.sampled_from(GRAM_POOL + WIDE_RADS)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["new"] * 4 + ["zero", "copy"]))
        if kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "zero":
            rows.append((draw(pool), [0] * width, draw(st.integers(1, 12))))
        else:
            rows.append((draw(pool),
                         [draw(st.one_of(st.just(0), gram_values))
                          for _ in range(width)],
                         draw(st.integers(1, 12))))
    return int_rows_matrix(width, rows)._data


@FIXED
@given(one_radicand_rows(), st.sampled_from([(1, 1), (3, 7), (-5, 2)]),
       st.booleans())
def test_int_scan_is_the_scan(rows, scale, diagonal):
    """Below the size cut, rows of one radicand each take their Gram as
    integer dot products: the stream is the pair scan's, entry for
    entry, from built integer rows and from a plain tuple of them, with
    and without the diagonal."""
    num, den = scale
    assert _kernel._small(rows)
    for form in (rows, tuple(rows)):
        read = _kernel.int_rows(form)
        assert list(_kernel._int_scan(read, num, den, diagonal)) == list(
            _kernel._scan(form, num, den, diagonal))


@FIXED
@given(one_radicand_rows(), st.data())
def test_int_rows_read_from_the_term_tuples(rows, data):
    """Read from a plain tuple of its rows, built integer rows give the
    integer rows they carry: the same denominators and integer rows, and
    the same radicands on the nonzero rows (a zero row reads as radicand
    1).  A row with a cell of two terms, or with two cells of different
    radicands, reads as None."""
    rads, ints, dens = rows.ints
    got = _kernel.int_rows(tuple(rows))
    assert got is not None
    assert got[2] == list(dens)
    assert got[1] == [list(row) for row in ints]
    assert got[0] == [r if any(row) else 1 for r, row in zip(rads, ints)]
    i = data.draw(st.integers(0, len(rows) - 1))
    r, s = data.draw(st.permutations(GRAM_POOL + WIDE_RADS))[:2]
    a, b = data.draw(gram_values.filter(bool)), data.draw(
        gram_values.filter(bool))
    first, second = _kernel.root_terms(a, 1, r), _kernel.root_terms(b, 1, s)
    row = list(rows[i])
    c = data.draw(st.integers(0, len(row) - 1))
    if len(row) > 1 and data.draw(st.booleans()):
        row[c] = first
        row[c - 1] = second
    else:
        row[c] = _kernel.add_terms(first, second)
    spoilt = rows[:i] + (tuple(row),) + rows[i + 1:]
    assert _kernel.int_rows(spoilt) is None


# Prime denominators just past 2^31: three of them in one row put its
# least common denominator past 2^93, and two columns over two of them
# cannot share an int64 pack of the column Gram, as each one's square
# scales the other's products past 2^62.
WIDE_DENS = (2147483659, 2147483693, 2147483713, 2147483743)
signs = st.sampled_from((-1, 1))


@st.composite
def column_rows(draw):
    """The rows of a matrix of up to 8 rows whose every column carries
    one radicand and whose nonzero rows carry several, in a drawn column
    order: three columns over distinct ``WIDE_DENS``, nonzero in every
    nonzero row, one column of coefficients past int64, a zero column,
    and up to three columns over the pool."""
    n = draw(st.integers(2, 8))
    live = [True] + [draw(st.sampled_from([True] * 4 + [False]))
                     for _ in range(n - 1)]
    columns = [(1, [0] * n)]
    for rad, den in zip((2, 3, 5), draw(st.permutations(WIDE_DENS))):
        columns.append((rad, [Fraction(draw(signs) * draw(st.integers(
            1, 999)), den) if on else 0 for on in live]))
    columns.append((draw(st.sampled_from(GRAM_POOL)), [Fraction(
        draw(signs) * draw(st.integers(2 ** 64, BIG)),
        draw(st.integers(1, 12))) if on else 0 for on in live]))
    for _ in range(draw(st.integers(0, 3))):
        columns.append((draw(st.sampled_from(GRAM_POOL)), [Fraction(
            draw(st.one_of(st.just(0), gram_values)),
            draw(st.integers(1, 12))) if on else 0 for on in live]))
    columns = draw(st.permutations(columns))
    return ExactMatrix([[make(col[i], rad) for rad, col in columns]
                        for i in range(n)])._data


@settings(FIXED, max_examples=200)
@given(column_rows(), st.sampled_from([(1, 1), (3, 7), (-5, 2)]))
def test_column_packs_are_the_scan(rows, scale):
    """Past int64 for a common denominator per row, the column Gram
    splits into int64 packs and one pack of Python ints, and its stream
    is the pair scan's, entry for entry."""
    num, den = scale
    assert max(math.lcm(*[t[2] for e in row for t in e])
               for row in rows) > 2 ** 63
    packs = graded._Graded(rows).packs
    assert len(packs) >= 4
    assert [left.dtype == object for left, _, _ in packs].count(True) == 1
    assert list(_kernel._scan(rows, num, den, True)) == list(
        graded.entries(rows, num, den))


def test_column_pack_bound_counts_minus_two_to_the_63():
    """-2^63 fits int64 but its absolute value does not: its column
    goes to the pack of Python ints."""
    rows = ExactMatrix([[make(-2 ** 63, 1), make(Fraction(1, 3), 2)],
                        [1, make(1, 2)], [0, make(5, 2)]])._data
    packs = graded._Graded(rows).packs
    assert [left.dtype == object for left, _, _ in packs] == [False, True]
    assert list(_kernel._scan(rows, 1, 1, True)) == list(
        graded.entries(rows, 1, 1))


# squarefree radicands for the rows of a hyperplane input
HYPERPLANE_RADS = (1, 2, 3, 5, 6, 7)


@st.composite
def hyperplane_inputs(draw):
    """``build(n)``, or ``build(n - 1)`` with a row ``e_n``, for n <= 40
    under a signed column permutation, with at most one planted defect
    (an entry doubled, zeroed or of flipped sign, or a row zeroed), in
    one of four forms: the integer rows, the rows each scaled by a
    rational, built integer rows each scaled by a root over a
    denominator, or the normalized rows."""
    # the smallest bases are drawn more often: a zeroed entry keeps
    # their rows orthogonal and gives a zero normal coordinate
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 40)))
    cols = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rows = [list(row) for row in build(n).matrix._data.ints[1]]
    if n > 2 and draw(st.integers(0, 3)) == 0:
        # build(n - 1) and a row e_n: orthogonal rows whose normal has
        # a zero coordinate
        rows = [list(row) + [0] for row in build(n - 1).matrix._data.ints[1]]
        rows.append([0] * (n - 1) + [1])
    rows = [[s * row[c] for c, s in zip(cols, signs)] for row in rows]
    defect = draw(st.sampled_from((None, "double", "zero", "flip", "row")))
    if defect is not None:
        i = draw(st.integers(0, n - 2))
        j = draw(st.sampled_from([c for c, v in enumerate(rows[i]) if v]))
        if defect == "row":
            rows[i] = [0] * n
        else:
            rows[i][j] *= {"double": 2, "zero": 0, "flip": -1}[defect]
    form = draw(st.sampled_from(("ints", "scaled", "int_rows",
                                 "normalized")))
    if form == "scaled":
        scales = draw(st.lists(st.fractions(-9, 9, max_denominator=12)
                               .filter(bool), min_size=n - 1,
                               max_size=n - 1))
        return ExactMatrix([[v * f for v in row]
                            for f, row in zip(scales, rows)])
    if form == "int_rows":
        m = n - 1
        rads = draw(st.lists(st.sampled_from(HYPERPLANE_RADS),
                             min_size=m, max_size=m))
        dens = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
        return int_rows_matrix(n, zip(rads, rows, dens))
    if form == "normalized" and all(any(row) for row in rows):
        return ExactMatrix(rows).normalize_rows()
    return ExactMatrix(rows)


@FIXED
@given(hyperplane_inputs())
def test_hyperplane_check_matches_reference(m):
    # the verdict, the witness's kind, position and residual, and the
    # normal
    assert check_hyperplane_basis(m) == reference_check(m)
