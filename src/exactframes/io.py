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
write renders each distinct cell once while its memo keeps it (by the
rule below) and looks every cell up in C; a row of long zero runs, such
as a row of a sparse hyperplane basis, is looked up only at its nonzero
cells, between slices of one pre-rendered run of zero cells, so that
its cost follows its support.

Deserialization accepts the two exact formats only, detects them by
the first character after ASCII whitespace, and normalizes
non-squarefree radicands (reporting through the optional ``notes`` list
rather than rejecting).  Malformed input, including an unknown or
duplicate key and an integer past the interpreter's digit limit, raises
ParseError.  A duplicate key is found by counting the quotes of a
document that has passed every other check (:func:`_duplicate_key`), so
that the decoder builds its plain dicts.

A read parses each distinct cell once.  Its memo lives for one
:func:`deserialize` call and maps a csv cell's text, or a nonempty
exact-json entry's ``(num, den, rad)`` triples, to the cell's terms and
notes; a repeat takes the terms and re-emits the notes, an exact-json
note at the repeat's own ``entries[i][j]``.  An entry is keyed only
after each of its terms has passed every check a first sight makes
(keys, integer fields, denominator, radicand, radicand cap, in that
order), and a bad cell is never remembered, so errors are those of
reading every cell afresh.  Each memo, the writer's and the readers',
is a :class:`~exactframes.matrices._CellMemo`: it keeps each cell until
it holds ``_MEMO_TRIAL`` cells and they are more than half of the cells
seen, and then nothing more for the rest of the call, so an input of
mostly distinct cells remembers about ``_MEMO_TRIAL`` of them.
An empty exact-json entry is zero and is not read at all: the entries
are checked to be lists, and the nonempty ones found, in C, so a sparse
matrix costs a step of Python per nonzero entry.  An entry that is not
a list, or a row that is not a list of ``cols`` entries, still fails
only after every entry before it has been read.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, compress, repeat

from exactframes import _kernel
from exactframes.errors import DomainError, ParseError
from exactframes.matrices import ExactMatrix, _CellMemo
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


# A row is written at its nonzero cells alone when it has more than
# (8 cols + 32) / 9 zeros, that is more than 8 to each nonzero cell and
# 32 besides; any other row is looked up cell by cell, in C.  A nonzero
# cell costs about 0.2 us of Python at its position and a zero about
# 20 ns in a lookup, and this is where the two meet on rows of 64 to 256
# cells (Python 3.11, 2-CPU Xeon).  Rows of 32 cells or fewer are
# always looked up whole.
_SPARSE_RATIO, _SPARSE_OFFSET = 8, 32


def _lines(rows, cols: int, cell, sep: str):
    """Each row's cells rendered by ``cell`` and joined by ``sep``.

    Each distinct cell is rendered once while the memo keeps it, and
    every lookup is made in C.
    A row of long zero runs is looked up only at its nonzero cells,
    found in C, and their texts are joined with slices of one
    pre-rendered run of zero cells: it costs a step of Python per
    nonzero cell.
    """
    texts = _CellMemo(cell)
    get = texts.__getitem__
    columns = range(cols)
    # the most zeros of a row looked up whole
    most = (_SPARSE_RATIO * cols + _SPARSE_OFFSET) // (_SPARSE_RATIO + 1)
    zeros = None
    for row in rows:
        if most >= cols or row.count(()) <= most:
            yield sep.join(map(get, row))
        else:
            if zeros is None:
                zero = sep + get(())
                zeros, width = zero * cols, len(zero)
            line, end = [], 0
            at = list(compress(columns, row))
            for c, text in zip(at, map(get, map(row.__getitem__, at))):
                line += zeros[:(c - end) * width], sep, text
                end = c + 1
            line.append(zeros[:(cols - end) * width])
            yield "".join(line)[len(sep):]
        texts.seen += cols


def serialize(a: ExactMatrix, fmt: str = "exact-json") -> str:
    """Render a matrix in one of the formats above.  A coefficient with
    more digits than the interpreter's limit on integer text raises
    ResourceLimitError; an entry beyond the float64 range in float-csv
    raises DomainError."""
    if fmt not in _WRITERS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    cell, sep = _WRITERS[fmt]
    lines = list(_lines(a._data, a.cols, cell, sep))
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
    # The entries are read as one row-major list, cell k at entries[i][j]
    # with (i, j) = divmod(k, cols), up to the first row that is not a
    # list of cols entries and then up to the first entry that is not a
    # list: each fails only after every entry before it has been read.
    # That entry, and the nonempty entries, the only ones read, are found
    # in C: an empty entry is zero.
    shaped = rows
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            shaped = i
            break
    cells = list(chain.from_iterable(entries[:shaped]))
    listed = len(cells) if all(map(isinstance, cells, repeat(list))) else next(
        k for k, entry in enumerate(cells) if not isinstance(entry, list))
    data = [()] * listed
    splits: dict[int, tuple[int, int]] = {}
    # entry key -> (terms, the notes the entry gave, each cut after its
    # "entries[i][j]" so that a repeat re-emits it at its own position)
    memo = _CellMemo()
    get, keep = memo.get, memo.keep
    for k in compress(range(listed), cells):
        entry = cells[k]
        # every check of every term, in the order of a first sight: a
        # repeat is known only once its whole key has passed them
        key = []
        for term in entry:
            if not isinstance(term, dict) or len(term) != 3:
                raise _term_error(k, cols, len(key), _KEYS)
            try:
                num, den, rad = term["num"], term["den"], term["rad"]
            except KeyError:
                raise _term_error(k, cols, len(key), _KEYS) from None
            if not (type(num) is int and type(den) is int
                    and type(rad) is int):
                raise _term_error(k, cols, len(key),
                                  "fields must be integers")
            if den == 0:
                raise _term_error(k, cols, len(key), "has a zero denominator")
            if not 0 < rad <= _LARGEST_RADICAND:
                if rad < 1:
                    raise _term_error(k, cols, len(key),
                                      f"has radicand {rad}; radicands "
                                      "must be positive")
                raise _radicand_cap_error(rad)
            key.append((num, den, rad))
        key = tuple(key)
        hit = get(key)
        if hit is not None:
            terms, tails = hit
            if tails:
                where = _where(k, cols)
                notes.extend(where + tail for tail in tails)
            data[k] = terms
            continue
        where = _where(k, cols)
        start = len(notes) if notes else 0
        terms = ()
        for t, (num, den, rad) in enumerate(key):
            outer, core = split_radicand(rad, splits)
            if notes is not None and outer != 1:
                notes.append(f"{where} term {t}: radicand {rad} is not "
                             f"squarefree; normalized to {outer}^2 * {core}")
            terms = _kernel.add_terms(
                terms, _kernel.root_terms(num * outer, den, core))
        made = notes[start:] if notes else ()
        memo.seen = k
        keep(key, (terms, tuple(n[len(where):] for n in made)))
        data[k] = terms
    if listed < shaped * cols:
        raise ParseError(f"{_where(listed, cols)} must be a list of terms")
    if shaped < rows:
        raise ParseError(f"entries[{shaped}] must be a list of {cols} entries")
    del cells
    # json.loads keeps the last value of a duplicate key.  Every string of
    # a document read this far is a key, and no key holds a quote or a
    # brace.  Without a duplicate, each object (the top level and each
    # term) has 3 keys, so the document has 6 quotes per "{"
    if text.count('"') != 6 * text.count("{"):
        raise _duplicate_key(text, cols)
    # the rows: cols cells at a time
    return ExactMatrix._raw(rows, cols, tuple(zip(*[iter(data)] * cols)))


def _duplicate_key(text: str, cols: int) -> ParseError:
    """The error naming the first duplicate key of an exact-json
    document that has one and is otherwise well formed: at the top
    level, or else at the first term, in reading order, that has one."""

    def duplicate(pairs: list) -> str | None:
        keys = [key for key, _ in pairs]
        return next((key for n, key in enumerate(keys)
                     if key in keys[:n]), None)

    doc = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    key = duplicate(doc)
    if key is not None:
        return ParseError(f"duplicate key {key!r} at the top level")
    entries = dict(doc)["entries"]
    for k, entry in enumerate(chain.from_iterable(entries)):
        for t, pairs in enumerate(entry):
            key = duplicate(pairs)
            if key is not None:
                return _term_error(k, cols, t, f"has a duplicate key {key!r}")


def _where(k: int, cols: int) -> str:
    """``entries[i][j]`` of the k-th entry in row-major order."""
    return "entries[%d][%d]" % divmod(k, cols)


def _term_error(k: int, cols: int, t: int, what: str) -> ParseError:
    return ParseError(f"{_where(k, cols)} term {t} {what}")


def _from_csv(text: str, notes: list[str] | None) -> ExactMatrix:
    rows = []
    width = None
    splits: dict[int, tuple[int, int]] = {}
    # cell text -> (terms, the notes the cell gave)
    memo = _CellMemo()
    get, keep = memo.get, memo.keep
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
            hit = get(cell)
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
            keep(cell, (terms, tuple(notes[start:] if notes else ())))
            row.append(terms)
        rows.append(tuple(row))
        memo.seen += width
    if not rows:
        raise ParseError("no rows found in csv text")
    return ExactMatrix._raw(len(rows), width, tuple(rows))
