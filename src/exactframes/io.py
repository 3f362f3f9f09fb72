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

An exact-json document is read first by the text of its entries
(:func:`_json_by_text`).  JSON whitespace is insignificant between
tokens, and inside a valid ``"entries"`` array the only brackets are
the row and entry boundaries, ``]],[[`` and ``],[``.  So the array is
cut out of the text and split on them with ``str.split``: as it stands
when it is written without whitespace or with ``json.dumps``'s ``", "``,
and else with its whitespace dropped, where no run of it lies between
two tokens or inside a string.  The distinct entry texts are read by one
``json.loads`` and checked once each; the rest of the document, with the
array cut out, by another.  This reading may only accept: a document
with a backslash, or one that fails any check, is read again by one
``json.loads`` of the whole document, as if it had never been tried,
so every error, note and order of reading is that reader's.

A read parses each distinct cell once.  Reading by entry text keeps
every distinct entry text, as the decoder keeps the whole document.
The whole-document reader reads the entries in row-major order and
raises at the first fault; for one :func:`deserialize` call it keeps,
in a plain dict, each distinct entry's ``(num, den, rad)`` triples with
the entry's terms and notes.  A repeat takes the terms and re-emits the
notes at its own ``entries[i][j]``.  An entry is keyed only after each
of its terms has passed every check a first sight makes (keys, integer
fields, denominator, radicand, radicand cap, in that order), and a bad
cell is never remembered, so errors are those of reading every cell
afresh.  The csv reader's memo maps a cell's text to its terms and
notes in the same way.  It and the writer's memo are each a
:class:`~exactframes.matrices._CellMemo`: it keeps each cell until it
holds ``_MEMO_TRIAL`` cells and they are more than half of the cells
seen, and then nothing more for the rest of the call, so an input of
mostly distinct cells remembers about ``_MEMO_TRIAL`` of them.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, compress

from exactframes import _kernel
from exactframes.errors import DomainError, ParseError, ResourceLimitError
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


# JSON's whitespace; and each ASCII character as whitespace (" "), a
# bracket or separator ("|") or a part of a token or a string ("a")
_JSON_SPACE = " \t\n\r"
_DROP_SPACE = dict.fromkeys(map(ord, _JSON_SPACE))
_CLASSES = {c: " " if chr(c) in _JSON_SPACE else "|" if chr(c) in "[]{}:,"
            else "a" for c in range(128)}


def _from_json(text: str, notes: list[str] | None) -> ExactMatrix:
    read = _json_by_text(text, notes)
    if read is not None:
        return read
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
    # The entries are read in row-major order, cell k at entries[i][j]
    # with (i, j) = divmod(k, cols), and the first fault raises.  Every
    # check of every term comes in the order of a first sight: a repeat
    # is known only once its whole key has passed them.
    # entry key -> (terms, the notes the entry gave, each cut after its
    # "entries[i][j]" so that a repeat re-emits it at its own position)
    memo: dict[tuple, tuple] = {}
    splits: dict[int, tuple[int, int]] = {}
    data = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"entries[{i}] must be a list of {cols} entries")
        for k, entry in enumerate(row, i * cols):
            if not isinstance(entry, list):
                raise ParseError(f"{_where(k, cols)} must be a list of terms")
            key = _entry_key(entry, k, cols)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _entry_value(key, notes is not None, splits)
            terms, tails = hit
            if tails:
                where = _where(k, cols)
                notes.extend(where + tail for tail in tails)
            data.append(terms)
    # json.loads keeps the last value of a duplicate key.  Every string of
    # a document read this far is a key, and no key holds a quote or a
    # brace.  Without a duplicate, each object (the top level and each
    # term) has 3 keys, so the document has 6 quotes per "{"
    if text.count('"') != 6 * text.count("{"):
        raise _duplicate_key(text, cols)
    # the rows: cols cells at a time
    return ExactMatrix._raw(rows, cols, tuple(zip(*[iter(data)] * cols)))


def _entry_key(entry: list, k: int, cols: int) -> tuple:
    """The ``(num, den, rad)`` of each term of the k-th entry, after
    every check a first sight makes, in order: keys, integer fields,
    denominator, radicand, radicand cap."""
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
            raise _term_error(k, cols, len(key), "fields must be integers")
        if den == 0:
            raise _term_error(k, cols, len(key), "has a zero denominator")
        if not 0 < rad <= _LARGEST_RADICAND:
            if rad < 1:
                raise _term_error(k, cols, len(key),
                                  f"has radicand {rad}; radicands must "
                                  "be positive")
            raise _radicand_cap_error(rad)
        key.append((num, den, rad))
    return tuple(key)


def _entry_value(key: tuple, noting: bool, splits: dict) -> tuple:
    """``(terms, tails)`` of a checked entry key: its terms, and when
    ``noting`` the notes of its non-squarefree radicands, each without
    the ``entries[i][j]`` that names the entry's position."""
    terms, tails = (), []
    for t, (num, den, rad) in enumerate(key):
        outer, core = split_radicand(rad, splits)
        if noting and outer != 1:
            tails.append(f" term {t}: radicand {rad} is not squarefree; "
                         f"normalized to {outer}^2 * {core}")
        terms = _kernel.add_terms(
            terms, _kernel.root_terms(num * outer, den, core))
    return terms, tuple(tails)


def _json_by_text(text: str, notes: list[str] | None) -> ExactMatrix | None:
    """The matrix of an exact-json document read by the text of its
    entries, or None when it declines the document or a check fails.

    The document holds no backslash, so each of its strings is the text
    between two quotes.  The ``"entries"`` array runs from the ``[``
    after its key to the last ``]``; the rest of the document, with a
    0 in its place, is read by ``json.loads``.  The array is split into
    rows and entries by :func:`_entry_texts`, as it stands when its
    boundaries are ``]],[[`` and ``],[``, or ``]], [[`` and ``], [`` as
    ``json.dumps`` writes them, and else with its JSON whitespace
    dropped where no run of it joins two tokens or lies in a string.
    The distinct entry texts are read by one ``json.loads`` and checked
    as :func:`_from_json` checks an entry at first sight.
    """
    if "\\" in text:
        return None
    at = text.find('"entries"')
    start, end = text.find("[", at), text.rfind("]") + 1
    if (at < 0 or not 0 < start < end
            or text[at + 9:start].strip(_JSON_SPACE) != ":"):
        return None
    rest = text[:start] + "0" + text[end:]
    try:
        doc = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    # the top level has only its three keys, each once
    if not (isinstance(doc, dict) and rest.count('"') == 6
            and doc.keys() == {"rows", "cols", "entries"}):
        return None
    rows, cols = doc["rows"], doc["cols"]
    if not (type(rows) is int and type(cols) is int
            and rows >= 1 and cols >= 1):
        return None
    spaces = [text.find(space, start, end) >= 0 for space in _JSON_SPACE]
    split = None
    if not any(spaces):
        split = _entry_texts(text, start, end, rows, cols, "")
    elif not any(spaces[1:]):
        split = _entry_texts(text, start, end, rows, cols, " ")
    if split is None and any(spaces):
        array = text[start:end]
        if not array.isascii():
            return None
        classes = array.translate(_CLASSES)
        if "a " in classes:
            # whitespace after a token must not join it to the next:
            # dropping the whitespace must leave as many runs of "a"
            runs = classes.count("|a") + classes.count(" a")
            if classes.translate(_DROP_SPACE).count("|a") != runs:
                return None
        del classes
        array = array.translate(_DROP_SPACE)
        split = _entry_texts(array, 0, len(array), rows, cols, "")
    if split is None:
        return None
    texts, keys, entries = split
    splits: dict[int, tuple[int, int]] = {}
    terms, noted = {}, {}
    try:
        for cell, entry in zip(texts, entries):
            terms[cell], tails = _entry_value(_entry_key(entry, 0, 1),
                                              notes is not None, splits)
            if tails:
                noted[cell] = tails
    except (ParseError, ResourceLimitError):
        return None
    data = []
    for i, line in enumerate(keys):
        data.append(tuple(map(terms.__getitem__, line)))
        if noted:
            for j in compress(range(cols), map(noted.__contains__, line)):
                where = "entries[%d][%d]" % (i, j)
                notes.extend(where + tail for tail in noted[line[j]])
    return ExactMatrix._raw(rows, cols, tuple(data))


def _entry_texts(text: str, start: int, end: int, rows: int, cols: int,
                 space: str) -> tuple | None:
    """The entries of the array ``text[start:end]`` of ``rows`` rows of
    ``cols`` entries, each ``]],`` + ``space`` + ``[[`` ending a row and
    each ``],`` + ``space`` + ``[`` an entry: ``(texts, keys,
    entries)``, with ``texts`` the distinct entry texts, ``keys[i]`` the
    text of each entry of row ``i`` and ``entries`` the ``json.loads``
    of each text, or None when the array does not begin with ``[[[``
    and end with ``]]]``, holds another number of rows or a row of
    another length, a text that is not a list's items, or a duplicate
    key.  A bracket in an entry, or in a boundary of other whitespace,
    is left to the checks of the entries that :func:`_json_by_text`
    makes.

    Each distinct text is kept once and stands for every copy of it.
    """
    row_end, entry_end = "]]," + space + "[[", "]," + space + "["
    start, end = start + 3, end - 3
    if not (text.startswith("[[[", start - 3) and text.startswith("]]]", end)):
        return None
    texts: dict[str, str] = {}
    keys = []
    while start <= end:
        stop = text.find(row_end, start, end)
        if stop < 0:
            stop = end
        cells = text[start:stop].split(entry_end)
        if len(cells) != cols:
            return None
        keys.append(tuple(map(texts.setdefault, cells, cells)))
        start = stop + len(row_end)
    joined = "[[" + "],[".join(texts) + "]]"
    # a duplicate key makes more than 6 quotes per term
    if len(keys) != rows or joined.count('"') != 6 * joined.count("{"):
        return None
    try:
        entries = json.loads(joined)
    except (ValueError, RecursionError):
        return None
    # a bracket in an entry text leaves the lists out of step with the
    # texts, and a term that is not an object, or a key that is not num,
    # den or rad, fails a check
    if len(entries) != len(texts):
        return None
    return texts, keys, entries


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
