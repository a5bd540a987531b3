"""Presentation-layer encoding of exact rationals and tabular documents.

Exactness lives in the library; this module only renders.  JSON carries
rationals as {"num": ..., "den": ...} decimal strings so arbitrarily large
values survive any JSON reader; CSV and markdown carry "num/den" text plus
a rounded decimal column.  Decimal rendering rounds half to even at the
configured number of places, trims trailing zeros, and always uses '.' as
the decimal point, so identical inputs give byte-identical output.
`records_document` renders one list of records in any of the three formats.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

__all__ = [
    "DEFAULT_DIGITS",
    "MAX_DIGITS",
    "UNDEFINED",
    "format_rational",
    "format_decimal",
    "rational_to_json",
    "rational_from_json",
    "csv_document",
    "markdown_document",
    "json_document",
    "table_document",
    "records_document",
]

DEFAULT_DIGITS = 4
MAX_DIGITS = 1000  # the CLI's --digits limit; the work grows with 10**digits
UNDEFINED = "undefined"  # CSV/markdown text of a missing rational; JSON uses null


def format_rational(value: Fraction) -> str:
    """Render as num/den with the denominator always explicit, e.g. '6/1'."""
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Round to `digits` decimal places (half to even) and trim trailing zeros."""
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    unit = 10**digits
    den = value.denominator
    scaled, rest = divmod(value.numerator * unit, den)  # floor; 0 <= rest < den
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), unit)
    if digits == 0:
        return f"{sign}{whole}"
    text = f"{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return sign + text


def rational_to_json(value: Fraction) -> dict[str, str]:
    """Encode a rational as {"num": ..., "den": ...} decimal strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def rational_from_json(obj: object) -> Fraction:
    """Decode a {"num": ..., "den": ...} object back into a reduced Fraction."""
    try:
        num = int(obj["num"])  # type: ignore[index]
        den = int(obj["den"])  # type: ignore[index]
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"not a rational object: {obj!r}") from exc
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    return Fraction(num, den)


def csv_document(headers: list[str], rows: list[list[str]]) -> str:
    """One CSV table with a header row and '\\n' line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def markdown_document(headers: list[str], rows: list[list[str]]) -> str:
    """One markdown pipe table."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def table_document(fmt: str, headers: list[str], rows: list[list[str]]) -> str:
    """A markdown pipe table when fmt is "markdown", else a CSV table."""
    if fmt == "markdown":
        return markdown_document(headers, rows)
    return csv_document(headers, rows)


def json_document(payload: dict) -> str:
    """Stable two-space-indented JSON document (insertion key order).

    Byte-identical to what `json.dumps` writes with a two-space indent, plus
    a final newline, but written in one pass: given an indent, `json.dumps`
    falls back to its pure-Python generator encoder.  Dict keys are always
    `str` in this package and are not converted; tuples are arrays, as in
    `json.dumps`.
    """
    return _json_value(payload, "") + "\n"


def _json_value(value: object, pad: str) -> str:
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{_quote(key)}: {_json_value(item, inner)}" for key, item in value.items()
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_json_value(item, inner)}" for item in value)
        return f"[\n{items}\n{pad}]"
    return json.dumps(value)  # int, bool, None


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
    rational that does not exist, fills both with UNDEFINED (null in JSON).
    The JSON document is {"params": params, key: records, **extra}; CSV
    and markdown take their header from the first record and omit params.
    """
    as_json = fmt == "json"
    rows: list[dict] = []
    for record in records:
        row: dict = {}
        for name, value in record.items():
            if isinstance(value, str):
                row[name] = value
            elif value is None:
                row[name] = row[name + "_decimal"] = None if as_json else UNDEFINED
            else:
                row[name] = rational_to_json(value) if as_json else format_rational(value)
                row[name + "_decimal"] = format_decimal(value, digits)
        rows.append(row)
    if as_json:
        return json_document({"params": params, key: rows, **extra})
    headers = list(rows[0]) if rows else []
    return table_document(fmt, headers, [list(row.values()) for row in rows])
