"""Presentation-layer encoding of exact rationals and tabular documents.

Exactness lives in the library; this module only renders.  JSON carries
rationals as {"num": ..., "den": ...} decimal strings so arbitrarily large
values survive any JSON reader; CSV and markdown carry "num/den" text plus
a rounded decimal column.  Decimal rendering rounds half to even at the
configured number of places, trims trailing zeros, and always uses '.' as
the decimal point, so identical inputs give byte-identical output.
`records_document` renders rows of cells in any of the three formats.  A
rational cell arrives as a (num, den) pair of ints in lowest terms, so no
Fraction is built per row.  The rows are read as the document is written,
and each writer yields its text in chunks of CHUNK_ROWS rows, so a document
of any length is written in flat memory, one write per chunk.  Each
rational's numerator is converted to text once, an integer's decimal cell
being that same text, and a rational equal to the one rendered just before
it (the agreeing routes of `area`) reuses that one's cells, so a run of
equal values is converted once in all.  Each row is built once, as its
cells in column order: `table_document` writes those cells as they are for
CSV and markdown, and in JSON they are already JSON text, joined into the
row's object text.  The JSON frame around the rows is a few lines, written
by `records_document` itself; `json_document`, verify's writer, is
json.dumps with a two-space indent.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_DIGITS",
    "MAX_DIGITS",
    "format_decimal",
    "rational_from_json",
    "json_document",
    "table_document",
    "records_document",
]

DEFAULT_DIGITS = 4
MAX_DIGITS = 1000  # the CLI's --digits limit; the work and the text grow with digits
_UNDEFINED = "undefined"  # CSV/markdown text of a missing rational; JSON uses null


def format_decimal(value: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Round to `digits` decimal places (half to even) and trim trailing zeros."""
    return _decimal_text(value.numerator, value.denominator, digits)


def _decimal_text(num: int, den: int, digits: int) -> str:
    """format_decimal of num/den (den > 0, lowest terms); str(num) when den == 1."""
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    if den == 1:
        return str(num)
    unit = 10**digits
    scaled, rest = divmod(num * unit, den)  # floor; 0 <= rest < den
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), unit)
    if digits == 0:
        return f"{sign}{whole}"
    text = f"{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return sign + text


def rational_from_json(obj: object) -> Fraction:
    """Decode a {"num": ..., "den": ...} object back into a reduced Fraction.

    Each field is an int or an integer string of any length, read past the
    digit cap int() keeps on Python 3.11+.  Any other value, a float or a bool
    included, is refused rather than truncated, by its key, never its text.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"not a rational object: a {type(obj).__name__}, not a dict")
    num, den = _json_integer(obj, "num"), _json_integer(obj, "den")
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {'0' if den == 0 else 'a negative'}")
    return Fraction(num, den)


# The integer strings int() reads.  Decimal reads them too, exactly and with
# no digit cap, and int() of a Decimal converts without going through text.
_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _json_integer(obj: dict, key: str) -> int:
    """Field `key` of a rational object: an int, or an integer string of any length."""
    if key not in obj:
        raise ValueError(f"not a rational object: no {key!r} field")
    field = obj[key]
    if isinstance(field, str) and _INTEGER_TEXT.fullmatch(field):
        return int(Decimal(field))
    if isinstance(field, int) and not isinstance(field, bool):
        return int(field)
    raise ValueError(f"not a rational object: {key!r} is not an int or an integer string")


# Rows per chunk of a streamed document: each chunk is one write of many rows.
CHUNK_ROWS = 256


def batched(items: Iterable) -> Iterator[list]:
    """Consecutive lists of CHUNK_ROWS items (the last one shorter), as the items are read."""
    items = iter(items)
    while batch := list(islice(items, CHUNK_ROWS)):
        yield batch


def table_document(fmt: str, headers: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    """A markdown pipe table when fmt is "markdown", else a CSV table with '\\n' line endings.

    The text comes in chunks of CHUNK_ROWS lines, the header first, as the rows are read.
    """
    lines = chain((headers, ["---"] * len(headers)) if fmt == "markdown" else (headers,), rows)
    for batch in batched(lines):
        if fmt == "markdown":
            yield "".join(f"| {' | '.join(row)} |\n" for row in batch)
        else:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(batch)
            yield buffer.getvalue()


def json_document(payload: dict) -> str:
    """Stable two-space-indented JSON document (insertion key order), newline-terminated."""
    return json.dumps(payload, indent=2) + "\n"


def _indented_json(value: object) -> str:
    """json.dumps(value, indent=2) laid out as a member of a top-level object."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


# A records row is an item of the list under a top-level key, so it opens at
# this depth and its fields sit one level deeper.
_ROW_PAD = "    "
_FIELD_PAD = _ROW_PAD + "  "


def records_document(
    fmt: str,
    fields: Sequence[str],
    rows: Iterable[Sequence[str | tuple[int, int] | None]],
    params: dict,
    digits: int,
    key: str = "rows",
    **extra: object,
) -> Iterator[str]:
    """Render rows of cells, one per field, as a csv, markdown or json document, in chunks.

    A text cell is one column.  A rational cell, a (num, den) pair in lowest
    terms with den > 0, makes its field `f` the columns `f` ("num/den", or
    {"num", "den"} in JSON) and `f_decimal`; None, a rational that does not
    exist, fills both with "undefined" (null in JSON).  The first row's
    cells tell which fields are text, and every row has the same kinds in
    the same order; with no rows there are no columns.

    The rows are read as the chunks are taken, CHUNK_ROWS to a chunk, so a
    document of any length is written in flat memory.  Each row is built
    once, as its list of cells in column order, and a run of equal rationals
    is converted once (see the module docstring).  The num/den text keeps a
    denominator of 1 ("6/1").  CSV and markdown rows go to table_document as
    they are, and omit params.  In JSON the cells are already JSON text, and
    each row is joined into its object's text, every cell after its field's
    `"name": ` prefix.  The document around the rows is written here too:
    params, the rows under `key`, then each extra key, every value but the
    rows through json.dumps with a two-space indent, so the whole is what
    json_document({"params": params, key: rows, **extra}) would write.
    """
    rows = iter(rows)
    first = next(rows, None)
    kinds = () if first is None else [isinstance(cell, str) for cell in first]
    headers = [
        column
        for name, text in zip(fields, kinds)
        for column in ((name,) if text else (name, name + "_decimal"))
    ]
    cells = _row_cells(fmt == "json", () if first is None else chain((first,), rows), digits)
    if fmt != "json":
        yield from table_document(fmt, headers, cells)
        return
    prefixes = [f"{_FIELD_PAD}{_quote(name)}: " for name in headers]
    close = "\n" + _ROW_PAD + "}"
    yield f'{{\n  "params": {_indented_json(params)},\n  {_quote(key)}: ['
    separator = "\n"  # before the first row; ",\n" between rows
    for batch in batched(cells):
        yield separator + ",\n".join(
            f"{_ROW_PAD}{{\n" + ",\n".join(map(operator.add, prefixes, row)) + close
            for row in batch
        )
        separator = ",\n"
    extra_text = "".join(
        f",\n  {_quote(name)}: {_indented_json(value)}" for name, value in extra.items()
    )
    yield ("]" if first is None else "\n  ]") + extra_text + "\n}\n"


def _row_cells(
    as_json: bool, rows: Iterable[Sequence[str | tuple[int, int] | None]], digits: int
) -> Iterator[list[str]]:
    """Each row's cells in column order, JSON text when as_json, as the rows are read."""
    missing = ("null", "null") if as_json else (_UNDEFINED, _UNDEFINED)
    last = pair = None  # the rational rendered last, and its two cells
    for row in rows:
        cells: list[str] = []
        for value in row:
            if isinstance(value, str):
                cells.append(_quote(value) if as_json else value)
            elif value is None:
                cells += missing
            else:
                if value != last:
                    num, den = value
                    decimal = _decimal_text(num, den, digits)
                    num_text = decimal if den == 1 else str(num)
                    if as_json:
                        pair = (
                            f'{{\n{_FIELD_PAD}  "num": "{num_text}",\n'
                            f'{_FIELD_PAD}  "den": "{den}"\n{_FIELD_PAD}}}',
                            f'"{decimal}"',
                        )
                    else:
                        pair = (f"{num_text}/{den}", decimal)
                    last = value
                cells += pair
        yield cells
