"""Tests for matrix serialization and the command line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import exactframes
from exactframes import _kernel, cli, io, matrices, paving, verify
from exactframes._kernel import pycore
from exactframes.cli import MAX_DIMENSION
from exactframes.cli import main as cli_main
from exactframes.errors import DomainError, ParseError, ResourceLimitError
from exactframes.hyperplane import build
from exactframes.io import FORMATS, deserialize, serialize
from exactframes.matrices import ExactMatrix
from exactframes.paving import gram_projection
from exactframes.radicals import MAX_RADICAND_BITS, sqrt_rational
from exactframes.two_tight import ap_two_tight
from exactframes.two_tight import (abcd_outline, iterate_two_tight,
                                   make_two_row_table, weight_in_front)
from exactframes.unitary import (BlockForm, WeaveCoefficients, block_pair,
                                 constant_first_row, constant_two_rows,
                                 mub_r4, third_case, two_constant_diag,
                                 weave)


def sq(p, q=1):
    return sqrt_rational(Fraction(p, q))


ROUND_TRIP_MATRICES = [
    ExactMatrix.identity(3),
    two_constant_diag(4),
    constant_first_row(5),
    ap_two_tight(1, 2),
    build(7).matrix,
    ExactMatrix([[1 + sq(2) - sq(3, 4), 0], [Fraction(-7, 3), sq(50)]]),
    # a member of every construct family, within the radicand cap
    constant_first_row(128),
    constant_two_rows(128),
    two_constant_diag(32),
    build(64).matrix.normalize_rows(),
    third_case(),
    *mub_r4(),
    block_pair(two_constant_diag(4), two_constant_diag(4),
               Fraction(3, 5), Fraction(4, 5), BlockForm.BALANCED),
    weight_in_front(make_two_row_table(range(1, 33), 33)),
    weight_in_front(abcd_outline(1, 2, 3, 4)),
    iterate_two_tight(ap_two_tight(1, 2), ap_two_tight(3, 4)),
    weave(WeaveCoefficients(ExactMatrix(
        [[Fraction(3, 5), Fraction(4, 5)],
         [Fraction(-4, 5), Fraction(3, 5)]])),
        [two_constant_diag(3), constant_first_row(3)]),
]


@pytest.mark.parametrize("matrix", ROUND_TRIP_MATRICES)
def test_exact_json_round_trips_byte_identically(matrix):
    text = serialize(matrix, "exact-json")
    again = deserialize(text)
    assert again == matrix
    assert serialize(again, "exact-json") == text


def test_exact_json_bytes_match_json_dumps():
    # the writer builds the text directly; json.dumps of the document
    # is the reference, with big and negative coefficients
    big = 10 ** 30 + 7
    matrices = ROUND_TRIP_MATRICES + [ExactMatrix(
        [[Fraction(-big, 3) + sq(6) * big, 0], [sq(2, 5), -1]])]
    for m in matrices:
        doc = {"rows": m.rows, "cols": m.cols, "entries": [
            [[{"num": n, "den": d, "rad": r} for r, n, d in entry]
             for entry in row] for row in m._data]}
        assert serialize(m, "exact-json") == json.dumps(
            doc, separators=(",", ":"), sort_keys=True) + "\n"


@pytest.mark.parametrize("matrix", ROUND_TRIP_MATRICES)
def test_csv_round_trips_byte_identically(matrix):
    text = serialize(matrix, "csv")
    again = deserialize(text)
    assert again == matrix
    assert serialize(again, "csv") == text


def test_exact_json_document_shape():
    doc = json.loads(serialize(ExactMatrix([[sq(2), 0], [1, Fraction(1, 2)]])))
    assert doc["rows"] == 2
    assert doc["cols"] == 2
    assert doc["entries"][0][0] == [{"den": 1, "num": 1, "rad": 2}]
    assert doc["entries"][0][1] == []
    assert doc["entries"][1][0] == [{"den": 1, "num": 1, "rad": 1}]
    assert doc["entries"][1][1] == [{"den": 2, "num": 1, "rad": 1}]


def test_csv_text_form():
    assert serialize(ExactMatrix.identity(2), "csv") == "1,0\n0,1\n"
    assert serialize(two_constant_diag(3), "csv") == (
        "-1/3,2/3,2/3\n2/3,-1/3,2/3\n2/3,2/3,-1/3\n")


def test_latex_form():
    m = ExactMatrix([[1, -sq(2)], [Fraction(1, 2), 0]])
    assert serialize(m, "latex") == (
        "\\begin{bmatrix}\n"
        "1 & -\\sqrt{2} \\\\\n"
        "\\frac{1}{2} & 0\n"
        "\\end{bmatrix}\n")


def test_latex_mixed_terms():
    m = ExactMatrix([[Fraction(1, 2) - sq(7) * Fraction(1, 4)]])
    assert serialize(m, "latex") == (
        "\\begin{bmatrix}\n"
        "\\frac{1}{2} - \\frac{1}{4}\\sqrt{7}\n"
        "\\end{bmatrix}\n")


def test_float_csv_refuses_entries_past_the_float_range(tmp_path, capsys):
    with pytest.raises(DomainError, match=r"entry \(2, 1\) is beyond"):
        serialize(ExactMatrix([[1, 2], [-10 ** 400, 10 ** 400]]), "float-csv")
    # [x x; x -x; x x; x -x] is a tight frame for every x
    f = write(tmp_path / "big.csv", f"{10 ** 400}\n")
    rc = cli_main(["construct", "iterate-two-tight", "--left", f,
                   "--right", f, "--format", "float-csv"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: entry (1, 1) is beyond the range of a "
                            "float64; float-csv cannot write it\n")


def test_cli_errors_quote_a_bounded_prefix_of_flags(capsys):
    rc = cli_main(["construct", "ap-two-tight", "--a", "x" * 5000,
                   "--b", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("... (5000 characters)") == 2
    assert len(err) < 400


def test_float_csv_is_shortest_round_trip_double():
    line = serialize(constant_first_row(3), "float-csv").splitlines()[0]
    assert line == ",".join(["0.57735026918962573"] * 3)


def test_serialize_rejects_unknown_format():
    with pytest.raises(ParseError, match="unknown format"):
        serialize(ExactMatrix.identity(2), "yaml")
    assert FORMATS == ("exact-json", "csv", "latex", "float-csv")


def test_deserialize_normalizes_radicands_with_notes():
    notes = []
    m = deserialize('{"rows":1,"cols":1,"entries":[[[{"num":1,"den":1,'
                    '"rad":8}]]]}', notes)
    assert m == ExactMatrix([[2 * sq(2)]])
    assert notes == ["entries[0][0] term 0: radicand 8 is not squarefree; "
                     "normalized to 2^2 * 2"]
    notes = []
    m = deserialize("sqrt(8),1\n", notes)
    assert m == ExactMatrix([[2 * sq(2), 1]])
    assert len(notes) == 1 and "squarefree" in notes[0]


PRIME = 1000003


@pytest.mark.parametrize("text, notes_want", [
    ("sqrt(1000003),3*sqrt(4000012)\n" * 3,
     ["radicand 4000012 is not squarefree; normalized to "
      "2*sqrt(1000003)"] * 3),
    ('{"rows":3,"cols":2,"entries":['
     + ",".join(['[[{"num":1,"den":1,"rad":1000003}],'
                 '[{"num":3,"den":1,"rad":4000012}]]'] * 3) + "]}",
     [f"entries[{i}][1] term 0: radicand 4000012 is not squarefree; "
      "normalized to 2^2 * 1000003" for i in range(3)]),
], ids=["csv", "exact-json"])
def test_deserialize_factors_each_radicand_once(monkeypatch, text,
                                                notes_want):
    calls = []
    real = pycore.squarefree_split

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(pycore, "squarefree_split", counted)
    monkeypatch.setattr(_kernel, "squarefree_split", counted)
    notes = []
    m = deserialize(text, notes)
    assert calls == [PRIME, 4 * PRIME]
    assert notes == notes_want
    root = sqrt_rational(PRIME)
    assert m == ExactMatrix([[root, 6 * root]] * 3)


def test_deserialize_merges_duplicate_radicands():
    text = ('{"rows":1,"cols":1,"entries":[[[{"num":1,"den":2,"rad":2},'
            '{"num":1,"den":2,"rad":2}]]]}')
    assert deserialize(text) == ExactMatrix([[sq(2)]])


def test_deserialize_accepts_leading_whitespace():
    text = "\n  " + serialize(ExactMatrix.identity(2))
    assert deserialize(text) == ExactMatrix.identity(2)


@pytest.mark.parametrize("text,needle", [
    ("", "empty matrix text"),
    ("{not json", "invalid JSON"),
    ("[1,2]", "line 1, cell 1"),
    ('{"rows":1,"cols":1}', "missing key 'entries'"),
    ('{"rows":1,"cols":1,"entries":[[[]]],"rowz":5}', "unknown key 'rowz'"),
    ('{"rows":0,"cols":1,"entries":[]}', "positive integers"),
    ('{"rows":2,"cols":1,"entries":[[[]]]}', "list of 2 rows"),
    ('{"rows":1,"cols":2,"entries":[[[]]]}', "list of 2 entries"),
    ('{"rows":1,"cols":1,"entries":[[5]]}', "list of terms"),
    ('{"rows":1,"cols":1,"entries":[[[{"num":1}]]]}', "keys"),
    ('{"rows":1,"cols":1,"entries":[[[{"num":1,"den":0,"rad":1}]]]}',
     "zero denominator"),
    ('{"rows":1,"cols":1,"entries":[[[{"num":1,"den":1,"rad":0}]]]}',
     "must be positive"),
    ('{"rows":1,"cols":1,"entries":[[[{"num":1,"den":1,"rad":1.5}]]]}',
     "must be integers"),
    ("1,2\n3,4,5\n", "line 2 has 3 cells, expected 2"),
    ("1,2\nx,4\n", "line 2, cell 1"),
])
def test_deserialize_rejects_malformed_text(text, needle):
    with pytest.raises(ParseError, match=None) as exc:
        deserialize(text)
    assert needle in str(exc.value)


def test_csv_lines_end_at_ascii_breaks_only():
    want = ExactMatrix([[1, 2], [3, 4]])
    for text in ("1,2\r\n3,4\r\n", "1,2\r3,4", "1,2\n \t\f\v\n3,4\n"):
        assert deserialize(text) == want


@pytest.mark.parametrize("text, needle", [
    # U+2028 and a form feed are line breaks to str.splitlines() only
    ("1\u20282\n", "line 1, cell 1"),
    ("1\f2\n", "line 1, cell 1"),
    # a line of no-break spaces is not blank
    ("1\n\xa0\xa0\n2\n", "line 2, cell 1"),
    # nor does a no-break space lead an exact-json document
    ("\xa0" + serialize(ExactMatrix.identity(1)), "line 1, cell 1"),
], ids=["line_separator", "form_feed", "no_break_line", "no_break_json"])
def test_unicode_breaks_and_spaces_are_not_csv_layout(text, needle, tmp_path,
                                                      capsys):
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert needle in str(exc.value)
    rc = cli_main(["verify", write(tmp_path / "m.csv", text),
                   "--check", "unitary"])
    err = capsys.readouterr().err
    assert rc == 2 and needle in err and "Traceback" not in err


def json_doc(entries):
    """An exact-json text of ``entries``, a list of rows of entries."""
    return json.dumps({"rows": len(entries), "cols": len(entries[0]),
                       "entries": entries})


def term(num, den, rad):
    return {"num": num, "den": den, "rad": rad}


def test_repeated_csv_cell_gives_a_note_per_occurrence():
    notes = []
    m = deserialize("sqrt(8),1\n1,sqrt(8)\nsqrt(12) + sqrt(8),sqrt(8)\n",
                    notes)
    root2, root3 = sq(2), sq(3)
    assert m == ExactMatrix([[2 * root2, 1], [1, 2 * root2],
                             [2 * root3 + 2 * root2, 2 * root2]])
    eight = "radicand 8 is not squarefree; normalized to 2*sqrt(2)"
    twelve = "radicand 12 is not squarefree; normalized to 2*sqrt(3)"
    assert notes == [eight, eight, twelve, eight, eight]


def test_repeated_json_entry_gives_a_note_at_each_position():
    eight = [term(1, 1, 8)]
    pair = [term(1, 1, 2), term(3, 1, 12)]
    notes = []
    m = deserialize(json_doc([[eight, pair], [pair, eight], [eight, []]]),
                    notes)
    root2, root3 = sq(2), sq(3)
    assert m == ExactMatrix([[2 * root2, root2 + 6 * root3],
                             [root2 + 6 * root3, 2 * root2],
                             [2 * root2, 0]])
    eight = "radicand 8 is not squarefree; normalized to 2^2 * 2"
    twelve = "radicand 12 is not squarefree; normalized to 2^2 * 3"
    assert notes == [f"entries[0][0] term 0: {eight}",
                     f"entries[0][1] term 1: {twelve}",
                     f"entries[1][0] term 1: {twelve}",
                     f"entries[1][1] term 0: {eight}",
                     f"entries[2][0] term 0: {eight}"]


def test_repeated_cells_share_their_terms():
    m = deserialize("sqrt(2),1\nsqrt(2),1\n")
    assert m._data[0][0] is m._data[1][0]
    m = deserialize(json_doc([[[term(1, 1, 2)]], [[term(1, 1, 2)]]]))
    assert m._data[0][0] is m._data[1][0]


@pytest.mark.parametrize("text, message", [
    ("1,sqrt(2)\nsqrt(2),1\n1,x\nx,1\n",
     "line 3, cell 2: expected a term at position 0 in 'x'"),
    ("sqrt(8),1/2\n1/2,sqrt(8)\n1/0,sqrt(8)\n1/0,1/0\n",
     "line 3, cell 1: zero denominator in '1/0'"),
    (json_doc([[[term(1, 1, 2)], []], [[], [term(1, 1, 2)]],
               [[term(1, 1, 2)], [term(1, 0, 2)]], [[term(1, 0, 2)], []]]),
     "entries[2][1] term 0 has a zero denominator"),
    (json_doc([[[term(1, 2, 3)], [term(1, 2, 3), term(1, 1, 0)]],
               [[term(1, 1, 0)], []]]),
     "entries[0][1] term 1 has radicand 0; radicands must be positive"),
], ids=["csv-text", "csv-denominator", "json-denominator", "json-radicand"])
def test_bad_cell_after_good_repeats_is_reported_at_its_first_position(
        text, message):
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert str(exc.value) == message


BIG_RADICAND = 2 ** (MAX_RADICAND_BITS + 10) + 1


@pytest.mark.parametrize("once, twice", [
    (f"sqrt(2),sqrt({BIG_RADICAND})\n",
     f"sqrt(2),sqrt(2)\nsqrt(2),sqrt({BIG_RADICAND})\n"
     f"sqrt({BIG_RADICAND}),sqrt(2)\n"),
    (json_doc([[[term(1, 1, 2)], [term(1, 1, BIG_RADICAND)]]]),
     json_doc([[[term(1, 1, 2)], [term(1, 1, 2)]],
               [[term(1, 1, 2)], [term(1, 1, BIG_RADICAND)]],
               [[term(1, 1, BIG_RADICAND)], [term(1, 1, 2)]]])),
], ids=["csv", "exact-json"])
def test_repeated_over_cap_radicand_fails_as_at_first_sight(once, twice):
    errors = []
    for text in (once, twice):
        with pytest.raises(ResourceLimitError) as exc:
            deserialize(text, [])
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == (
        f"a radicand of {MAX_RADICAND_BITS + 11} bits is beyond the cap "
        f"of {MAX_RADICAND_BITS} bits")


@pytest.mark.parametrize("terms, error, message", [
    ([term(1, 0, 1), term("x", 1, 1)], ParseError,
     "entries[0][0] term 0 has a zero denominator"),
    ([term(1, 1, 0), {"num": 1}], ParseError,
     "entries[0][0] term 0 has radicand 0; radicands must be positive"),
    ([term(1, 1, BIG_RADICAND), term(1, 0, 1)], ResourceLimitError,
     "a radicand of 51 bits is beyond the cap of 40 bits"),
    ([term(1, 1, 2), {"num": 1, "den": 1, "rad": 1, "x": 1},
      term(1, 0, 1)], ParseError,
     "entries[0][0] term 1 must be an object with keys num, den, rad"),
    ([{"num": 1, "den": 1, "x": 1}], ParseError,
     "entries[0][0] term 0 must be an object with keys num, den, rad"),
    ([term("x", 0, 0)], ParseError,
     "entries[0][0] term 0 fields must be integers"),
    ([term(1, 0, 0)], ParseError,
     "entries[0][0] term 0 has a zero denominator"),
    ([term(1, 1, -BIG_RADICAND)], ParseError,
     f"entries[0][0] term 0 has radicand {-BIG_RADICAND}; radicands must "
     "be positive"),
])
def test_json_terms_are_checked_in_order(terms, error, message):
    # each term passes every check before the next term is looked at;
    # within a term: keys, integer fields, denominator, radicand, cap
    with pytest.raises(error) as exc:
        deserialize(json_doc([[terms]]))
    assert str(exc.value) == message


WIDE = 40


def wide_row(**cells):
    """A row of ``WIDE`` empty entries, with ``c<j>=entry`` at column j."""
    row = [[] for _ in range(WIDE)]
    for name, entry in cells.items():
        row[int(name[1:])] = entry
    return row


def test_json_reads_long_runs_of_empty_entries_as_each_entry_alone():
    # the nonempty entries of a row are read on their own: a bad term
    # after a run of [] is reported at its own position, and a note
    # names its own entry
    with pytest.raises(ParseError) as exc:
        deserialize(json_doc([wide_row(), wide_row(c30=[term("x", 1, 1)])]))
    assert str(exc.value) == "entries[1][30] term 0 fields must be integers"
    notes = []
    m = deserialize(json_doc([wide_row(c0=[term(1, 1, 2)]),
                              wide_row(c35=[term(1, 1, 8)],
                                       c39=[term(1, 1, 8)])]), notes)
    eight = "radicand 8 is not squarefree; normalized to 2^2 * 2"
    assert notes == [f"entries[1][35] term 0: {eight}",
                     f"entries[1][39] term 0: {eight}"]
    assert m.sparsity() == 3 and m.entry(1, 39) == 2 * sq(2)


@pytest.mark.parametrize("entries, message", [
    ([wide_row(c5=[term(1, 0, 1)], c9=0)],
     "entries[0][5] term 0 has a zero denominator"),
    ([wide_row(c5=None, c9=[term(1, 0, 1)])],
     "entries[0][5] must be a list of terms"),
    ([wide_row(c5=7, c9=[term(1, 0, 1)])],
     "entries[0][5] must be a list of terms"),
    ([wide_row(c39=[term(1, 0, 1)]), [[]] * (WIDE - 1)],
     "entries[0][39] term 0 has a zero denominator"),
    ([wide_row(c39={}), "x"], "entries[0][39] must be a list of terms"),
    ([[[]] * (WIDE + 1), wide_row(c0=[term(1, 0, 1)])],
     "entries[0] must be a list of 40 entries"),
    ([wide_row(), wide_row(c39=False)],
     "entries[1][39] must be a list of terms"),
], ids=["term-then-falsy", "falsy-then-term", "truthy-then-term",
        "term-then-row", "entry-then-row", "row-then-term", "last-entry"])
def test_json_entries_and_rows_fail_in_reading_order(entries, message):
    # an entry that is not a list, empty or not, and a row that is not a
    # list of cols entries fail only after every entry before them
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps({"rows": len(entries), "cols": WIDE,
                                "entries": entries}))
    assert str(exc.value) == message


# json.dumps writes no duplicate key: these documents are spelt out
@pytest.mark.parametrize("text, message", [
    ('{"rows":1,"cols":1,"entries":[[[{"num":1,"num":5,"den":1,"rad":1}]]]}',
     "entries[0][0] term 0 has a duplicate key 'num'"),
    ('{"rows":2,"cols":1,"entries":[[[]],[[]]],"rows":2}',
     "duplicate key 'rows' at the top level"),
    # an escaped key is the key it spells
    ('{"rows":1,"cols":2,"entries":[[[],[{"num":1,"den":1,"rad":1},'
     '{"num":1,"n\\u0075m":3,"den":1,"rad":2}]]]}',
     "entries[0][1] term 1 has a duplicate key 'num'"),
], ids=["term", "top-level", "escaped"])
def test_json_duplicate_keys_are_refused(text, message, tmp_path, capsys):
    # json.loads keeps a duplicate key's last value (num 5); a duplicate
    # is refused even where both values agree (rows)
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert str(exc.value) == message
    path = write(tmp_path / "dup.json", text)
    assert run(["verify", path, "--check", "unitary"], capsys) == (
        2, "", f"error: {message}\n")


def test_json_without_duplicate_keys_is_not_parsed_twice(monkeypatch):
    # the quote count passes a document whose keys are escaped or spaced
    loads, real = [], json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: loads.append(k) or real(*a, **k))
    text = ('{ "rows" : 1, "cols":1, "entries":[[[{"n\\u0075m":1,'
            '"den":1,"rad":2}, {"num":1,"den":1,"rad":3}]]]}')
    assert deserialize(text) == ExactMatrix([[sq(2) + sq(3)]])
    assert loads == [{}]


@pytest.fixture
def parsed(monkeypatch):
    """The texts the csv reader hands to parse_scalar, in order."""
    calls = []
    real = io.parse_scalar

    def counted(text, *args):
        calls.append(text)
        return real(text, *args)

    monkeypatch.setattr(io, "parse_scalar", counted)
    return calls


def test_each_distinct_cell_is_parsed_once_per_read(parsed):
    text = "1,sqrt(2),1\nsqrt(2),1/2,1\n"
    for _ in range(2):
        deserialize(text)
    # a second read parses again: the memo lives for one call
    assert parsed == ["1", "sqrt(2)", "1/2"] * 2


def test_mostly_distinct_input_stops_the_memo_growing(parsed, monkeypatch):
    monkeypatch.setattr(matrices, "_MEMO_TRIAL", 2)
    notes = []
    m = deserialize("1,2,3,sqrt(8)\n1,2,3,sqrt(8)\n", notes)
    assert m == ExactMatrix([[1, 2, 3, 2 * sq(2)]] * 2)
    # 1 and 2 fill the memo; 3 finds it mostly distinct, so it and
    # sqrt(8) are parsed at each sight
    assert parsed == ["1", "2", "3", "sqrt(8)", "3", "sqrt(8)"]
    assert len(notes) == 2


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_construct_csv_to_stdout(capsys):
    rc = cli_main(["construct", "two-constant-diag", "--n", "3",
                   "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "-1/3,2/3,2/3\n2/3,-1/3,2/3\n2/3,2/3,-1/3\n")


def test_cli_construct_hyperplane_json(capsys):
    rc = cli_main(["construct", "hyperplane", "--n", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert deserialize(out) == build(8).matrix


def test_cli_construct_writes_output_file(tmp_path, capsys):
    out = tmp_path / "frame.json"
    rc = cli_main(["construct", "ap-two-tight", "--a", "1", "--b", "2",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert deserialize(out.read_text(encoding="utf-8")) == ap_two_tight(1, 2)


def test_cli_construct_weight_in_front(capsys):
    rc = cli_main(["construct", "weight-in-front",
                   "--values", "15,13,11,9", "--m", "16", "--format", "csv"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.split(",")[0] == "-1/8*sqrt(15)"


def test_cli_construct_float_csv(capsys):
    rc = cli_main(["construct", "constant-first-row", "--n", "3",
                   "--format", "float-csv"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == ",".join(["0.57735026918962573"] * 3)


def test_cli_construct_mub_r4(capsys):
    rc = cli_main(["construct", "mub-r4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["matrices"]
    assert len(doc["matrices"]) == 3
    for sub, expected in zip(doc["matrices"], mub_r4()):
        text = json.dumps(sub, separators=(",", ":"), sort_keys=True)
        assert deserialize(text) == expected


@pytest.mark.parametrize("fmt", ["exact-json", "csv"])
def test_cli_construct_mub_r4_out_matches_stdout(tmp_path, capsys, fmt):
    assert cli_main(["construct", "mub-r4", "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "mub"
    assert cli_main(["construct", "mub-r4", "--format", fmt,
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


FAMILY_CASES = [
    (["hyperplane", "--n", "8"], build(8).matrix),
    (["constant-first-row", "--n", "5"], constant_first_row(5)),
    (["constant-two-rows", "--n", "6"], constant_two_rows(6)),
    (["two-constant-diag", "--n", "4"], two_constant_diag(4)),
    (["third-case"], third_case()),
    (["ap-two-tight", "--a", " 1 / 2", "--b", "+3"],
     ap_two_tight(Fraction(1, 2), 3)),
    (["weight-in-front", "--values", "15,13,11,9", "--m", "16"],
     weight_in_front(make_two_row_table([15, 13, 11, 9], 16))),
    (["abcd-outline", "--a", "1", "--b", "2", "--c", "3", "--d", "4"],
     weight_in_front(abcd_outline(1, 2, 3, 4))),
]


@pytest.mark.parametrize("argv, expected", FAMILY_CASES,
                         ids=[argv[0] for argv, _ in FAMILY_CASES])
def test_cli_construct_family_matches_library(argv, expected, capsys):
    assert cli_main(["construct", *argv]) == 0
    assert deserialize(capsys.readouterr().out) == expected


ABCD = {"--a": "1", "--b": "2", "--c": "3", "--d": "4"}


def abcd(flag, text):
    return ["abcd-outline"] + [
        s for k, v in ABCD.items() for s in (k, text if k == flag else v)]


@pytest.mark.parametrize("argv", [
    ["ap-two-tight", "--a", "1/0", "--b", "1"],
    ["ap-two-tight", "--a", "1", "--b", "1/0"],
    ["ap-two-tight", "--a", "0.5", "--b", "1"],
    *(abcd(flag, "1/0") for flag in ABCD),
    abcd("--c", "sqrt(2)"),
    ["weight-in-front", "--values", "1/0,2", "--m", "3"],
    ["weight-in-front", "--values", "15,13,11,9", "--m", "1/0"],
    ["weight-in-front", "--values", "15,13,11,9", "--m", "16.0"],
], ids=" ".join)
def test_cli_rational_flags_read_the_scalar_grammar(argv, capsys):
    # a zero denominator must not escape main as ZeroDivisionError, and
    # decimal or irrational text is not a rational in the grammar
    assert cli_main(["construct", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "is not a rational" in captured.err


def test_cli_construct_parameters_obey_the_radicand_cap(capsys):
    # the square roots of the abcd weights have a 62-bit radicand
    start = time.perf_counter()
    rc = cli_main(["construct", "abcd-outline", "--a", "1", "--b", "2",
                   "--c", "3", "--d", "1000000000000000003"])
    assert time.perf_counter() - start < 1
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of {MAX_RADICAND_BITS} bits" in captured.err


def test_cli_construct_block_pair(tmp_path, capsys):
    block = tmp_path / "d4.json"
    write(block, serialize(two_constant_diag(4)))
    rc = cli_main(["construct", "block-pair", "--a", "3/5", "--b", "4/5",
                   "--left", str(block), "--right", str(block)])
    assert rc == 0
    expected = block_pair(two_constant_diag(4), two_constant_diag(4),
                          Fraction(3, 5), Fraction(4, 5), BlockForm.BALANCED)
    assert deserialize(capsys.readouterr().out) == expected


def test_cli_construct_block_pair_plain_defect_is_an_error(tmp_path, capsys):
    block = tmp_path / "d4.json"
    write(block, serialize(two_constant_diag(4)))
    rc = cli_main(["construct", "block-pair", "--a", "3/5", "--b", "4/5",
                   "--left", str(block), "--right", str(block),
                   "--form", "plain"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "defect" in err


def test_cli_construct_weave(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    write(coeffs, "3/5,4/5\n-4/5,3/5\n")
    b1 = tmp_path / "b1.csv"
    write(b1, serialize(two_constant_diag(3), "csv"))
    b2 = tmp_path / "b2.csv"
    write(b2, serialize(constant_first_row(3), "csv"))
    rc = cli_main(["construct", "weave", "--coeffs", str(coeffs),
                   "--blocks", str(b1), str(b2)])
    assert rc == 0
    expected = weave(
        WeaveCoefficients(ExactMatrix(
            [[Fraction(3, 5), Fraction(4, 5)],
             [Fraction(-4, 5), Fraction(3, 5)]])),
        [two_constant_diag(3), constant_first_row(3)])
    assert deserialize(capsys.readouterr().out) == expected


def test_cli_construct_normalize_rows(tmp_path, capsys):
    half = tmp_path / "half.json"
    write(half, serialize(ap_two_tight(1, 2)))
    rc = cli_main(["construct", "iterate-two-tight", "--left", str(half),
                   "--right", str(half), "--normalize"])
    assert rc == 0
    matrix = deserialize(capsys.readouterr().out)
    assert matrix.shape == (32, 8)
    assert matrix.row_norm_squared(0) == Fraction(1)


def test_cli_construct_breach_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    write(bad, "1,2\n3,4\n")
    rc = cli_main(["construct", "iterate-two-tight", "--left", str(bad),
                   "--right", str(bad)])
    assert rc == 3
    assert "internal invariant breach" in capsys.readouterr().err


def test_cli_construct_missing_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["construct", "hyperplane"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_cli_construct_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["construct", "fourier"])
    assert exc.value.code == 2


def test_cli_verify_unitary_pass(tmp_path, capsys):
    f = tmp_path / "u.json"
    write(f, serialize(constant_first_row(4)))
    rc = cli_main(["verify", str(f), "--check", "unitary"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["property"] == "unitary"


def test_cli_verify_unitary_failure(tmp_path, capsys):
    published = ExactMatrix([
        [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)],
        [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)],
        [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)],
    ])
    f = tmp_path / "claimed.json"
    write(f, serialize(published))
    rc = cli_main(["verify", str(f), "--check", "unitary"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["witness"]["kind"] == "row_inner_product"
    assert (doc["witness"]["i"], doc["witness"]["j"]) == (1, 3)
    assert doc["witness"]["residual"] == "-1/2"


def test_cli_verify_tight_and_hyperplane(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    write(frame, serialize(ap_two_tight(1, 2)))
    rc = cli_main(["verify", str(frame), "--check", "tight"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == "2" and doc["unit_rows"] is True

    basis = tmp_path / "basis.json"
    write(basis, serialize(build(5).matrix))
    rc = cli_main(["verify", str(basis), "--check", "hyperplane"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    # the checker reports the primitive normal with its free coordinate
    # positive, i.e. the negative of the builder's stored normal
    assert doc["normal"] == ["5", "-2", "-1", "-1", "1"]


def test_cli_verify_hyperplane_irrational_row_norm_exits_2(tmp_path,
                                                         capsys):
    basis = write(tmp_path / "basis.csv",
                  "1,0,0\n0,1 + sqrt(2),1\n")
    rc = cli_main(["verify", basis, "--check", "hyperplane"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 2 has irrational squared norm" in captured.err


def test_cli_verify_orthogonal_columns(tmp_path, capsys):
    frame = ap_two_tight(1, 2)
    f = write(tmp_path / "frame.csv", serialize(frame, "csv"))
    assert cli_main(["verify", f, "--check", "orthogonal-columns"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "passed": True, "property": "orthogonal_columns"}
    # doubling entry (1, 1) adds its product with entry (1, 2) to the
    # inner product of columns 1 and 2, the first pair in scan order
    rows = [[frame.entry(i, j) for j in range(frame.cols)]
            for i in range(frame.rows)]
    added = rows[0][0] * rows[0][1]
    rows[0][0] = 2 * rows[0][0]
    f = write(tmp_path / "doubled.csv", serialize(ExactMatrix(rows), "csv"))
    assert cli_main(["verify", f, "--check", "orthogonal-columns"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == {"kind": "column_inner_product", "i": 1,
                              "j": 2, "residual": "-1/16*sqrt(35)"}
    assert doc["witness"]["residual"] == str(added)


def test_cli_verify_mub(tmp_path, capsys):
    b1, b2, b3 = mub_r4()
    f2 = write(tmp_path / "b2.json", serialize(b2))
    f3 = write(tmp_path / "b3.json", serialize(b3))
    rc = cli_main(["verify", f2, "--check", "mub", "--against", f3])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_cli_verify_mub_needs_against(tmp_path, capsys):
    f = write(tmp_path / "m.json", serialize(mub_r4()[0]))
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", f, "--check", "mub"])
    assert exc.value.code == 2
    assert "--against" in capsys.readouterr().err


def test_cli_verify_missing_file_is_usage_error(capsys):
    rc = cli_main(["verify", "/nonexistent/matrix.json",
                   "--check", "unitary"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_verify_malformed_file_is_usage_error(tmp_path, capsys):
    f = write(tmp_path / "bad.json", "{broken")
    rc = cli_main(["verify", f, "--check", "unitary"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ("rows", "cols", "num", "den", "rad",
                                   "all"))
def test_cli_verify_json_booleans_are_rejected(tmp_path, capsys, field):
    # bool subclasses int, so true once read as 1 and certified unitary
    term = {"num": 1, "den": 1, "rad": 1}
    doc = {"rows": 1, "cols": 1, "entries": [[[term]]]}
    for key in (("rows", "cols", "num", "den", "rad") if field == "all"
                else (field,)):
        (doc if key in doc else term)[key] = True
    f = write(tmp_path / "bool.json", json.dumps(doc))
    rc = cli_main(["verify", f, "--check", "unitary"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err and "integers" in captured.err


def oversized_inputs(digits: str) -> dict:
    """A matrix text of each reader with one integer of ``digits``."""
    term = '{"num":%s,"den":1,"rad":1}'
    return {"csv": "1,2\n3,1/" + digits + "\n",
            "exact-json": '{"rows":1,"cols":1,"entries":[[[%s]]]}'
                          % (term % digits)}


@pytest.mark.parametrize("fmt", ("csv", "exact-json"))
def test_readers_refuse_integers_past_the_digit_limit(digit_limit, fmt):
    text = oversized_inputs("7" * (digit_limit + 1))[fmt]
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert f"limit of {digit_limit}" in str(exc.value)
    assert "set_int_max_str_digits" not in str(exc.value)
    if fmt == "csv":
        assert str(exc.value).startswith("line 2, cell 2: ")
    deserialize(oversized_inputs("7" * digit_limit)[fmt])


def test_deeply_nested_json_is_a_parse_error():
    # the decoder recurses once per level and would raise RecursionError
    with pytest.raises(ParseError, match="nested too deeply"):
        deserialize('{"rows":' + "[" * 100_000)


@pytest.mark.parametrize("where", ("csv", "exact-json", "flag"))
def test_cli_refuses_integers_past_the_digit_limit(digit_limit, where,
                                                   tmp_path, capsys):
    digits = "7" * (digit_limit + 1)
    if where == "flag":
        rc = cli_main(["construct", "ap-two-tight", "--a", digits,
                       "--b", "1"])
    else:
        f = write(tmp_path / "big.txt", oversized_inputs(digits)[where])
        rc = cli_main(["verify", f, "--check", "unitary"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"limit of {digit_limit}" in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("fmt", FORMATS)
def test_writers_refuse_integers_past_the_digit_limit(digit_limit, fmt):
    tiny = ExactMatrix([[Fraction(1, 10 ** digit_limit)]])
    if fmt == "float-csv":
        assert serialize(tiny, fmt) == "0\n"
        return
    with pytest.raises(ResourceLimitError) as exc:
        serialize(tiny, fmt)
    assert f"limit of {digit_limit}" in str(exc.value)
    serialize(ExactMatrix([[Fraction(1, 10 ** (digit_limit - 1))]]), fmt)


@pytest.mark.parametrize("check", ("unitary", "tight"))
def test_cli_verify_refuses_reports_past_the_digit_limit(digit_limit, check,
                                                         tmp_path, capsys):
    # the entry x fits the limit; what the report writes does not: the
    # unitary residual x^2 - 1, and k = x^2 of the passing tight check
    f = write(tmp_path / "x.csv", "1/" + "3" * digit_limit + "\n")
    rc = cli_main(["verify", f, "--check", check])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"limit of {digit_limit}" in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("family", ("block-pair", "ap-two-tight"))
def test_cli_refuses_results_past_the_digit_limit(digit_limit, family,
                                                   tmp_path, capsys):
    # every input integer is within the limit; what is built from them
    # is not: the products of block-pair, the radicands of ap-two-tight
    m = 10 ** (digit_limit * 3 // 8)
    a, b = Fraction(m * m - 1, m * m + 1), Fraction(2 * m, m * m + 1)
    if family == "block-pair":
        rot = write(tmp_path / "rot.csv", f"{a},{b}\n{-b},{a}\n")
        argv = ["--a", str(a), "--b", str(b), "--left", rot, "--right", rot]
        limit = f"interpreter's limit of {digit_limit}"
    else:
        argv = ["--a", str(1 / a), "--b", "1"]
        limit = f"cap of {MAX_RADICAND_BITS} bits"
    rc = cli_main(["construct", family, *argv, "--format", "csv"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert limit in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_cli_sparsity(tmp_path, capsys):
    f = write(tmp_path / "h8.json", serialize(build(8).matrix))
    rc = cli_main(["sparsity", f])
    assert rc == 0
    assert capsys.readouterr().out == "24\n"


def test_cli_sparsity_reports_normalization_notes(tmp_path, capsys):
    f = write(tmp_path / "m.csv", "sqrt(8),sqrt(12)\n1,sqrt(8)\n")
    rc = cli_main(["sparsity", f])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "4\n"
    # one line per note, in reading order
    assert captured.err == "".join(
        f"note: {f}: radicand {r} is not squarefree; normalized to {n}\n"
        for r, n in (("8", "2*sqrt(2)"), ("12", "2*sqrt(3)"),
                     ("8", "2*sqrt(2)")))


def test_cli_pave_frame(tmp_path, capsys):
    f = write(tmp_path / "frame.json", serialize(ap_two_tight(1, 2)))
    rc = cli_main(["pave", f])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix_id"] == "8x8-9e0183567946"
    assert doc["best_partition"] == [[0, 3, 5, 6], [1, 2, 4, 7]]
    assert doc["partitions_examined"] == 128
    assert doc["exhaustive"] is True
    assert abs(doc["best_value"]) < 1e-9


def test_cli_pave_gram_input(tmp_path, capsys):
    g = gram_projection(ap_two_tight(1, 2), 2)
    f = write(tmp_path / "gram.json", serialize(g))
    rc = cli_main(["pave", f, "--gram"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_partition"] == [[0, 3, 5, 6], [1, 2, 4, 7]]


def test_cli_pave_rejects_non_tight_frame(tmp_path, capsys):
    f = write(tmp_path / "bad.csv", "1,2\n3,4\n1,0\n0,1\n")
    rc = cli_main(["pave", f])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_pave_checks_tightness_once(tmp_path, capsys, monkeypatch):
    # pave, gram_projection and check_tight_frame share one tight check,
    # which leaves out the unit-norm rows that pave does not print
    calls = []
    real = verify._tight_report

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(verify, "_tight_report", counted)
    monkeypatch.setattr(paving, "_tight_report", counted)
    monkeypatch.setattr(verify, "check_tight_frame", None)
    f = write(tmp_path / "frame.json", serialize(ap_two_tight(1, 2)))
    assert cli_main(["pave", f]) == 0
    assert calls == [(8, 4)]
    assert json.loads(capsys.readouterr().out)["best_partition"] == [
        [0, 3, 5, 6], [1, 2, 4, 7]]


def test_cli_pave_rejects_samples_past_the_cap(tmp_path, capsys):
    f = write(tmp_path / "ap.json", serialize(ap_two_tight(1, 2)))
    rc = cli_main(["pave", f, "--sample", "100000000000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of 2^{paving.EXHAUSTIVE_LIMIT - 1}" in captured.err


@pytest.mark.parametrize("gram", (False, True))
def test_cli_pave_rejects_negative_seeds_only_when_sampling(tmp_path, capsys,
                                                            gram):
    frame = ap_two_tight(1, 2)
    f = write(tmp_path / "in.json",
              serialize(gram_projection(frame, 2) if gram else frame))
    flags = ["--gram"] if gram else []
    rc = cli_main(["pave", f, *flags, "--sample", "4", "--seed", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    # an exhaustive search ignores the seed
    assert cli_main(["pave", f, *flags, "--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["exhaustive"] is True


@pytest.mark.parametrize("family", ("hyperplane", "constant-first-row",
                                    "constant-two-rows", "two-constant-diag"))
def test_cli_construct_rejects_dimensions_past_the_cap(family, capsys):
    n = MAX_DIMENSION + (2 if family == "constant-two-rows" else 1)
    start = time.perf_counter()
    rc = cli_main(["construct", family, "--n", str(n)])
    assert time.perf_counter() - start < 1
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dimension cap of {MAX_DIMENSION}" in captured.err


def test_cli_construct_rejects_frames_past_the_cap(tmp_path, capsys):
    """Frames sized by their inputs keep to the cap on columns: a table
    of v values builds 2v columns, and iterate-two-tight doubles the
    columns it reads; the cap is named before anything is built."""
    wide = write(tmp_path / "wide.csv", ",".join(["1"] * 513) + "\n")
    for argv, cols in (
            (["weight-in-front", "--values", ",".join(["1"] * 513),
              "--m", "1"], 1026),
            (["iterate-two-tight", "--left", wide, "--right", wide], 1026)):
        start = time.perf_counter()
        assert cli_main(["construct", *argv]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"error: {argv[0]} would build {cols} columns, beyond the "
            f"dimension cap of {MAX_DIMENSION}\n"))


@pytest.mark.parametrize("text", (
    "1,0\n0,sqrt(2305843009213693951)\n",
    '{"rows":1,"cols":1,"entries":[[[{"den":1,"num":1,'
    '"rad":2305843009213693951}]]]}',
))
def test_cli_rejects_radicands_past_the_bit_cap(tmp_path, capsys, text):
    # 2^61 - 1 is prime: trial division would take minutes
    f = write(tmp_path / ("m.csv" if text[0] == "1" else "m.json"), text)
    start = time.perf_counter()
    rc = cli_main(["sparsity", f])
    assert time.perf_counter() - start < 1
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of {MAX_RADICAND_BITS} bits" in captured.err
    # the largest accepted radicand, a 40-bit prime, is still read
    f = write(tmp_path / "ok.csv", "sqrt(1099511627689)\n")
    assert cli_main(["sparsity", f]) == 0


def test_cli_errata(capsys):
    rc = cli_main(["errata"])
    assert rc == 0
    out = capsys.readouterr().out
    for ident in ("plain-block-form", "unbiased-third-basis",
                  "free-form-table", "hyperplane-5-sparsity"):
        assert f"[{ident}] (reproduced)" in out
    assert "NOT REPRODUCED" not in out


def run(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call; a usage error's
    ``SystemExit`` code stands for the exit code."""
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_options_do_not_reach_the_next_call(capsys):
    argv = ["construct", "constant-first-row", "--n", "4"]
    rc, out, _ = run([*argv, "--format", "csv", "--normalize"], capsys)
    assert rc == 0 and out == serialize(
        constant_first_row(4).normalize_rows(), "csv")
    assert run(argv, capsys) == (0, serialize(constant_first_row(4)), "")
    # a unitary's rows are unit already: hyperplane rows show --normalize
    h4 = build(4).matrix
    assert h4.normalize_rows() != h4
    argv = ["construct", "hyperplane", "--n", "4"]
    assert run([*argv, "--normalize"], capsys) == (
        0, serialize(h4.normalize_rows()), "")
    assert run(argv, capsys) == (0, serialize(h4), "")
    rc, out, err = run(["construct", "constant-first-row"], capsys)
    assert rc == 2 and out == ""
    assert "missing required option(s): --n" in err


def test_cli_pave_seed_does_not_reach_the_next_call(tmp_path, capsys):
    f = write(tmp_path / "frame.json", serialize(ap_two_tight(1, 2)))
    seed0 = run(["pave", f, "--sample", "5", "--seed", "0"], capsys)
    assert seed0[0] == 0
    seed7 = run(["pave", f, "--sample", "5", "--seed", "7"], capsys)
    assert seed7[0] == 0 and seed7 != seed0
    assert run(["pave", f, "--sample", "5"], capsys) == seed0


def test_cli_usage_error_does_not_break_the_next_call(capsys):
    rc, out, err = run(["construct", "fourier"], capsys)
    assert rc == 2 and out == "" and "invalid choice" in err
    rc, out, err = run(["verify"], capsys)
    assert rc == 2 and "required" in err
    assert run(["construct", "two-constant-diag", "--n", "3", "--format",
                "csv"], capsys) == (
        0, "-1/3,2/3,2/3\n2/3,-1/3,2/3\n2/3,2/3,-1/3\n", "")


@pytest.mark.parametrize("argv", [
    ["--help"], *([command, "--help"] for command in (
        "construct", "verify", "sparsity", "pave", "errata"))],
    ids=("program", "construct", "verify", "sparsity", "pave", "errata"))
def test_cli_help_is_the_same_on_every_call(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # a parser built afresh gives the text of a process's first call
    with pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    assert exc.value.code == 0
    first = capsys.readouterr()
    assert first.out.startswith("usage: exactframes") and first.err == ""
    for _ in range(2):
        assert run(argv, capsys) == (0, first.out, "")


def test_cli_builds_its_parser_once_per_process(tmp_path, capsys):
    f = write(tmp_path / "m.csv", "sqrt(8),0\n1,1\n")
    parser = cli._build_parser()
    for argv in (["sparsity", f], ["construct", "third-case"], ["errata"],
                 ["verify", f, "--check", "unitary"], ["pave", "--help"]):
        run(argv, capsys)
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# cold start: what a fresh interpreter imports

_SRC = str(Path(exactframes.__file__).resolve().parents[1])

# runs cli.main on its arguments, then writes the exit code and whether
# numpy is loaded as the last line of stderr
_FRESH_MAIN = (
    "import json, sys\n"
    "from exactframes import cli\n"
    "try:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n")


def fresh(code, *argv):
    """stdout and stderr of ``python -c code *argv`` in a fresh
    interpreter that imports this package."""
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    return proc.stdout, proc.stderr


@pytest.mark.parametrize("module", ["exactframes", "exactframes.cli"])
def test_import_loads_neither_numpy_nor_hashlib(module):
    out, _ = fresh(f"import sys, {module}\n"
                   "print(sorted({'numpy', 'hashlib'} & set(sys.modules)))")
    assert out == "[]\n"


@pytest.mark.parametrize("argv, loads_numpy", [
    (["--help"], False),
    (["errata"], False),
    (["construct", "constant-first-row", "--n", "8"], False),
    (["construct", "mub-r4"], False),
    (["sparsity", "{small}"], False),
    (["verify", "{small}", "--check", "unitary"], False),
    (["pave", "{frame}"], True),
    # the largest below the size cut: 13 * 14 / 2 * 13 entry products
    # of its Gram re-check, taken as integer dot products
    (["construct", "two-constant-diag", "--n", "13"], False),
    # its Gram re-check lies above the size cut
    (["construct", "two-constant-diag", "--n", "32"], True),
    # an 8 x 4 frame, built from its distinct cells with its split, and
    # read back: both Grams and the row norms lie below the cut
    (["construct", "ap-two-tight", "--a", "1", "--b", "2"], False),
    (["verify", "{frame}", "--check", "tight"], False),
], ids=("help", "errata", "constant-first-row", "mub-r4", "sparsity",
        "verify", "pave", "two-constant-diag-13", "two-constant-diag-32",
        "ap-two-tight", "verify-tight"))
def test_cold_start_loads_numpy_only_where_needed(argv, loads_numpy,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    files = {"small": write(tmp_path / "small.csv",
                            serialize(constant_first_row(4), "csv")),
             "frame": write(tmp_path / "frame.json",
                            serialize(ap_two_tight(1, 2)))}
    argv = [arg.format(**files) for arg in argv]
    out, err = fresh(_FRESH_MAIN, *argv)
    *err_lines, last = err.splitlines(keepends=True)
    code, loaded = json.loads(last)
    assert loaded is loads_numpy
    assert (code, out, "".join(err_lines)) == run(argv, capsys)
