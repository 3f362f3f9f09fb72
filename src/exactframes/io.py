"""Matrix serialization: exact JSON, exact CSV, LaTeX and float CSV.

The exact formats round-trip losslessly:

* ``exact-json``: ``{"rows": R, "cols": C, "entries": [[...]]}`` where
  each entry is a list of ``{"num": int, "den": int, "rad": int}`` terms
  (empty list for zero).  Serialized entries are canonical (squarefree
  radicands in ascending order, reduced coefficients), so serializing a
  parsed matrix reproduces the bytes exactly.
* ``csv``: one row per line, entries in the scalar text grammar
  separated by commas (the grammar contains no commas).  A line ends at
  ``\n``, ``\r\n`` or ``\r`` only, and a line of the grammar's ASCII
  whitespace is blank and skipped.

``latex`` emits a bmatrix for inspection and ``float-csv`` emits
nearest-double values with 17 significant digits; these two are one-way.
csv and LaTeX cells come from the scalar renderer of
:mod:`exactframes.radicals`, so their terms read as in ``str()``.  A
write renders each distinct cell once, by the cell map of ``str()``.

Deserialization accepts the two exact formats only, detects them by
the first character after ASCII whitespace, and normalizes
non-squarefree radicands (reporting through the optional ``notes`` list
rather than rejecting).  Malformed input, including an unknown key and
an integer past the interpreter's digit limit, raises ParseError.

A read parses each distinct cell once.  Its memo lives for one
:func:`deserialize` call and maps a csv cell's text, or an exact-json
entry's ``(num, den, rad)`` triples, to the cell's terms and notes; a
repeat takes the terms and re-emits the notes, an exact-json note at the
repeat's own ``entries[i][j]``.  An entry is keyed only after each of
its terms has passed every check a first sight makes (keys, integer
fields, denominator, radicand, radicand cap, in that order), and a bad
cell is never remembered, so errors are those of reading every cell
afresh.  The memo stops growing once it holds ``_MEMO_TRIAL`` cells and
they are more than half of the cells read: an input of mostly distinct
cells then costs one dictionary miss a cell.
"""

from __future__ import annotations

import json
import sys

from exactframes import _kernel
from exactframes.errors import DomainError, ParseError
from exactframes.matrices import ExactMatrix, _MEMO_TRIAL, _map_cells
from exactframes.radicals import (MAX_RADICAND_BITS, RadicalScalar, _SPACE,
                                  _digit_limit_error, _format_terms,
                                  _radicand_cap_error, parse_scalar,
                                  split_radicand)

_LARGEST_RADICAND = (1 << MAX_RADICAND_BITS) - 1
_KEYS = "must be an object with keys num, den, rad"


def _json_cell(terms: tuple) -> str:
    """An exact-json entry as ``json.dumps`` with sorted keys and no
    whitespace writes it, but without a document of dicts (7 MiB for a
    dense 128 x 128 matrix)."""
    try:
        return "[" + ",".join([f'{{"den":{d},"num":{n},"rad":{r}}}'
                               for r, n, d in terms]) + "]"
    except ValueError:
        # an f-string refuses an int past the limit
        raise _digit_limit_error() from None


# the cell writer and the cell separator of each format
_WRITERS = {
    "exact-json": (_json_cell, ","),
    "csv": (_format_terms, ","),
    "latex": (lambda t: _format_terms(t, r"\frac{%d}{%d}", r"\sqrt{%d}", ""),
              " & "),
    "float-csv": (lambda t: "%.17g" % RadicalScalar._raw(t).to_float(), ","),
}
FORMATS = tuple(_WRITERS)


def serialize(a: ExactMatrix, fmt: str = "exact-json") -> str:
    """Render a matrix in one of the formats above.  A coefficient with
    more digits than the interpreter's limit on integer text raises
    ResourceLimitError; an entry beyond the float64 range in float-csv
    raises DomainError."""
    if fmt not in _WRITERS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    cell, sep = _WRITERS[fmt]
    lines = [sep.join(cells) for cells in _map_cells(cell, a._data, {})]
    if fmt == "exact-json":
        return (f'{{"cols":{a.cols},"entries":[[{"],[".join(lines)}]],'
                f'"rows":{a.rows}}}\n')
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


def deserialize(text: str, notes: list[str] | None = None) -> ExactMatrix:
    """Parse an exact-json or csv matrix (detected by first character).

    Malformed input raises ParseError naming the offending location;
    non-squarefree radicands are normalized with a message appended to
    ``notes`` when given.
    """
    stripped = text.lstrip(_SPACE)
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
    # entry key -> (terms, the notes the entry gave, each cut after its
    # "entries[i][j]" so that a repeat re-emits it at its own position)
    memo: dict[tuple, tuple] = {}
    grow = True
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"entries[{i}] must be a list of {cols} entries")
        drow = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list):
                raise ParseError(f"entries[{i}][{j}] must be a list of terms")
            # every check of every term, in the order of a first sight:
            # a repeat is known only once its whole key has passed them
            key = []
            for term in entry:
                if not isinstance(term, dict) or len(term) != 3:
                    raise _term_error(i, j, len(key), _KEYS)
                try:
                    num, den, rad = term["num"], term["den"], term["rad"]
                except KeyError:
                    raise _term_error(i, j, len(key), _KEYS) from None
                if not (type(num) is int and type(den) is int
                        and type(rad) is int):
                    raise _term_error(i, j, len(key),
                                      "fields must be integers")
                if den == 0:
                    raise _term_error(i, j, len(key),
                                      "has a zero denominator")
                if not 0 < rad <= _LARGEST_RADICAND:
                    if rad < 1:
                        raise _term_error(i, j, len(key),
                                          f"has radicand {rad}; radicands "
                                          "must be positive")
                    raise _radicand_cap_error(rad)
                key.append((num, den, rad))
            key = tuple(key)
            hit = memo.get(key)
            if hit is not None:
                terms, tails = hit
                if tails:
                    where = f"entries[{i}][{j}]"
                    notes.extend(where + tail for tail in tails)
                drow.append(terms)
                continue
            where = f"entries[{i}][{j}]"
            start = len(notes) if notes else 0
            terms = ()
            for t, (num, den, rad) in enumerate(key):
                outer, core = split_radicand(rad, splits)
                if notes is not None and outer != 1:
                    notes.append(f"{where} term {t}: radicand {rad} is not "
                                 f"squarefree; normalized to {outer}^2 * "
                                 f"{core}")
                terms = _kernel.add_terms(
                    terms, _kernel.root_terms(num * outer, den, core))
            if grow:
                if len(memo) < _MEMO_TRIAL or 2 * len(memo) <= i * cols + j:
                    made = notes[start:] if notes else ()
                    memo[key] = terms, tuple(n[len(where):] for n in made)
                else:
                    grow = False
            drow.append(terms)
        data.append(tuple(drow))
    return ExactMatrix._raw(rows, cols, tuple(data))


def _term_error(i: int, j: int, t: int, what: str) -> ParseError:
    return ParseError(f"entries[{i}][{j}] term {t} {what}")


def _from_csv(text: str, notes: list[str] | None) -> ExactMatrix:
    rows = []
    width = None
    splits: dict[int, tuple[int, int]] = {}
    # cell text -> (terms, the notes the cell gave)
    memo: dict[str, tuple] = {}
    grow = True
    # lines end at \n, \r\n or \r only, not at the other breaks of
    # str.splitlines() (form feed, U+2028 and the like)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(_SPACE):
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"line {lineno} has {len(cells)} cells, expected {width}")
        row = []
        for colno, cell in enumerate(cells, start=1):
            hit = memo.get(cell)
            if hit is not None:
                terms, cell_notes = hit
                if cell_notes:
                    notes.extend(cell_notes)
                row.append(terms)
                continue
            start = len(notes) if notes else 0
            try:
                terms = parse_scalar(cell, notes, splits)._terms
            except ParseError as exc:
                raise ParseError(
                    f"line {lineno}, cell {colno}: {exc}") from None
            if grow:
                if (len(memo) < _MEMO_TRIAL
                        or 2 * len(memo) <= len(rows) * width + colno):
                    memo[cell] = terms, tuple(notes[start:] if notes else ())
                else:
                    grow = False
            row.append(terms)
        rows.append(tuple(row))
    if not rows:
        raise ParseError("no rows found in csv text")
    return ExactMatrix._raw(len(rows), width, tuple(rows))
