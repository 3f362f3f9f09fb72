"""Matrix serialization: exact JSON, exact CSV, LaTeX and float CSV.

The exact formats round-trip losslessly:

* ``exact-json``: ``{"rows": R, "cols": C, "entries": [[...]]}`` where
  each entry is a list of ``{"num": int, "den": int, "rad": int}`` terms
  (empty list for zero).  Serialized entries are canonical (squarefree
  radicands in ascending order, reduced coefficients), so serializing a
  parsed matrix reproduces the bytes exactly.
* ``csv``: one row per line, entries in the scalar text grammar
  separated by commas (the grammar contains no commas).

``latex`` emits a bmatrix for inspection and ``float-csv`` emits
nearest-double values with 17 significant digits; these two are one-way.
csv and LaTeX cells come from the scalar renderer of
:mod:`exactframes.radicals`, so their terms read as in ``str()``.

Deserialization accepts the two exact formats only, detects them by
leading character, and normalizes non-squarefree radicands (reporting
through the optional ``notes`` list rather than rejecting).  Malformed
input, including an unknown key and an integer past the interpreter's
digit limit, raises ParseError.
"""

from __future__ import annotations

import json
import sys

from exactframes import _kernel
from exactframes.errors import DomainError, ParseError
from exactframes.matrices import ExactMatrix
from exactframes.radicals import (RadicalScalar, _digit_limit_error,
                                  _format_terms, parse_scalar, split_radicand)

FORMATS = ("exact-json", "csv", "latex", "float-csv")

# the cell writer and the cell separator of each text format
_TEXT_FORMATS = {
    "csv": (_format_terms, ","),
    "latex": (lambda t: _format_terms(t, r"\frac{%d}{%d}", r"\sqrt{%d}", ""),
              " & "),
    "float-csv": (lambda t: "%.17g" % RadicalScalar._raw(t).to_float(), ","),
}


def serialize(a: ExactMatrix, fmt: str = "exact-json") -> str:
    """Render a matrix in one of the formats above.  A coefficient with
    more digits than the interpreter's limit on integer text raises
    ResourceLimitError; an entry beyond the float64 range in float-csv
    raises DomainError."""
    if fmt == "exact-json":
        try:
            return _to_json(a)
        except ValueError:
            # an f-string refuses an int past the limit
            raise _digit_limit_error() from None
    if fmt not in _TEXT_FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    cell, sep = _TEXT_FORMATS[fmt]
    lines = [sep.join(map(cell, row)) for row in a._data]
    if fmt == "latex":
        return ("\\begin{bmatrix}\n" + " \\\\\n".join(lines)
                + "\n\\end{bmatrix}\n")
    text = "\n".join(lines) + "\n"
    if fmt == "float-csv" and "inf" in text:
        i, j = next((i, j) for i, line in enumerate(lines)
                    for j, c in enumerate(line.split(",")) if "inf" in c)
        raise DomainError(f"entry ({i + 1}, {j + 1}) is beyond the range of "
                          "a float64; float-csv cannot write it")
    return text


def _to_json(a: ExactMatrix) -> str:
    """The bytes of ``json.dumps`` with sorted keys and no whitespace,
    written row by row: a document of dicts costs several times the
    text in memory (7 MiB for a dense 128 x 128 matrix)."""
    rows = ",".join(
        "[" + ",".join(
            "[" + ",".join(f'{{"den":{d},"num":{n},"rad":{r}}}'
                           for r, n, d in entry) + "]"
            for entry in row) + "]"
        for row in a._data)
    return f'{{"cols":{a.cols},"entries":[{rows}],"rows":{a.rows}}}\n'


def deserialize(text: str, notes: list[str] | None = None) -> ExactMatrix:
    """Parse an exact-json or csv matrix (detected by first character).

    Malformed input raises ParseError naming the offending location;
    non-squarefree radicands are normalized with a message appended to
    ``notes`` when given.
    """
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty matrix text")
    if stripped[0] == "{":
        return _from_json(stripped, notes)
    return _from_csv(text, notes)


def _from_json(text: str, notes: list[str] | None) -> ExactMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:
        # the decoder converts integer text with int(), which refuses
        # more digits than the interpreter's limit
        raise ParseError(
            "invalid JSON: an integer has more digits than the "
            f"interpreter's limit of {sys.get_int_max_str_digits()}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too "
                         "deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    for key in doc:
        if key not in ("rows", "cols", "entries"):
            raise ParseError(f"unknown key {key!r}; a matrix has only the "
                             "keys rows, cols, entries")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    # JSON true and false load as bool, a subclass of int
    if not (type(rows) is int and type(cols) is int
            and rows >= 1 and cols >= 1):
        raise ParseError("'rows' and 'cols' must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"'entries' must be a list of {rows} rows")
    data = []
    splits: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"entries[{i}] must be a list of {cols} entries")
        drow = []
        for j, entry in enumerate(row):
            drow.append(_entry_from_json(entry, i, j, notes, splits))
        data.append(tuple(drow))
    return ExactMatrix._raw(rows, cols, tuple(data))


def _entry_from_json(entry: object, i: int, j: int,
                     notes: list[str] | None,
                     splits: dict[int, tuple[int, int]]) -> tuple:
    where = f"entries[{i}][{j}]"
    if not isinstance(entry, list):
        raise ParseError(f"{where} must be a list of terms")
    total: tuple = ()
    for t, term in enumerate(entry):
        if (not isinstance(term, dict)
                or set(term) != {"num", "den", "rad"}):
            raise ParseError(
                f"{where} term {t} must be an object with keys "
                "num, den, rad")
        num, den, rad = term["num"], term["den"], term["rad"]
        if not all(type(v) is int for v in (num, den, rad)):
            raise ParseError(f"{where} term {t} fields must be integers")
        if den == 0:
            raise ParseError(f"{where} term {t} has a zero denominator")
        if rad < 1:
            raise ParseError(f"{where} term {t} has radicand {rad}; "
                             "radicands must be positive")
        outer, core = split_radicand(rad, splits)
        if notes is not None and outer != 1:
            notes.append(f"{where} term {t}: radicand {rad} is not "
                         f"squarefree; normalized to {outer}^2 * {core}")
        total = _kernel.add_terms(
            total, _kernel.root_terms(num * outer, den, core))
    return total


def _from_csv(text: str, notes: list[str] | None) -> ExactMatrix:
    rows = []
    width = None
    splits: dict[int, tuple[int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"line {lineno} has {len(cells)} cells, expected {width}")
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(parse_scalar(cell, notes, splits)._terms)
            except ParseError as exc:
                raise ParseError(
                    f"line {lineno}, cell {colno}: {exc}") from None
        rows.append(tuple(row))
    if not rows:
        raise ParseError("no rows found in csv text")
    return ExactMatrix._raw(len(rows), width, tuple(rows))
