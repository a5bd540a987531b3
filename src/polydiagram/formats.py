"""Presentation-layer encoding of exact rationals and tabular documents.

Exactness lives in the library; this module only renders.  JSON carries
rationals as {"num": ..., "den": ...} decimal strings so arbitrarily large
values survive any JSON reader; CSV and markdown carry "num/den" text plus
a rounded decimal column.  Decimal rendering rounds half to even at the
configured number of places, trims trailing zeros, and always uses '.' as
the decimal point, so identical inputs give byte-identical output.
`records_document` renders one list of records in any of the three formats.
It converts each rational's numerator to text once, an integer's decimal
cell being that same text, and a rational equal to the one rendered just
before it (the agreeing routes of `area`) reuses that one's cells, so a run
of equal values is converted once in all.  Each row is built once, as its
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
from json.encoder import encode_basestring_ascii as _quote

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


def table_document(fmt: str, headers: list[str], rows: list[list[str]]) -> str:
    """A markdown pipe table when fmt is "markdown", else a CSV table with '\\n' line endings."""
    if fmt == "markdown":
        rule = ["---"] * len(headers)
        return "".join(f"| {' | '.join(row)} |\n" for row in (headers, rule, *rows))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


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
    records: list[dict[str, str | Fraction | None]],
    params: dict,
    digits: int,
    key: str = "rows",
    **extra: object,
) -> str:
    """Render records (field -> str | Fraction | None) as a csv, markdown or json document.

    A text field is one column.  A rational field `f` becomes the columns
    `f` ("num/den", or {"num", "den"} in JSON) and `f_decimal`; None, a
    rational that does not exist, fills both with "undefined" (null in JSON).
    Every record has the first record's fields, in its order; the columns
    and the CSV and markdown header come from it.

    Each row is built once, as its list of cells in column order, and a run
    of equal rationals is converted once (see the module docstring).  The
    num/den text keeps a denominator of 1 ("6/1").  CSV and markdown rows go
    to table_document as they are, and omit params.  In JSON the cells are
    already JSON text, and each row is joined into its object's text, every
    cell after its field's `"name": ` prefix.  The document around the rows
    is written here too: params, the rows under `key`, then each extra key,
    every value but the rows through json.dumps with a two-space indent, so
    the whole is what json_document({"params": params, key: rows, **extra})
    would write.
    """
    as_json = fmt == "json"
    headers = [
        column
        for name, value in (records[0].items() if records else ())
        for column in ((name,) if isinstance(value, str) else (name, name + "_decimal"))
    ]
    missing = ("null", "null") if as_json else (_UNDEFINED, _UNDEFINED)
    rows: list[list[str]] = []
    last_num = last_den = None  # the rational rendered last; `pair` holds its two cells
    for record in records:
        row: list[str] = []
        for value in record.values():
            if isinstance(value, str):
                row.append(_quote(value) if as_json else value)
            elif value is None:
                row += missing
            else:
                num, den = value.numerator, value.denominator
                if num != last_num or den != last_den:
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
                    last_num, last_den = num, den
                row += pair
        rows.append(row)
    if not as_json:
        return table_document(fmt, headers, rows)
    prefixes = [f"{_FIELD_PAD}{_quote(name)}: " for name in headers]
    close = "\n" + _ROW_PAD + "}"
    rows_text = ",\n".join(
        f"{_ROW_PAD}{{\n" + ",\n".join(map(operator.add, prefixes, row)) + close for row in rows
    )
    rows_open, rows_close = ("[\n", "\n  ]") if rows else ("[", "]")
    extra_text = "".join(
        f",\n  {_quote(name)}: {_indented_json(value)}" for name, value in extra.items()
    )
    return (
        f'{{\n  "params": {_indented_json(params)},\n  {_quote(key)}: '
        f"{rows_open}{rows_text}{rows_close}{extra_text}\n}}\n"
    )
