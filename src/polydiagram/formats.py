"""Presentation-layer encoding of exact rationals and tabular documents.

Exactness lives in the library; this module only renders.  JSON carries
rationals as {"num": ..., "den": ...} decimal strings so arbitrarily large
values survive any JSON reader; CSV and markdown carry "num/den" text plus
a rounded decimal column.  Decimal rendering rounds half to even at the
configured number of places, trims trailing zeros, and always uses '.' as
the decimal point, so identical inputs give byte-identical output.
`records_document` renders rows of cells in any of the three formats.  Its
first field is text and every later one rational, so its columns come from
its fields alone, and a document with no rows still has its header.  A
rational cell arrives as a (num, den) pair of ints in lowest terms, so no
Fraction is built per row.  The rows are read as the document is written,
and each writer yields its text in chunks of CHUNK_ROWS rows, so a document
of any length is written in flat memory, one write per chunk.

Whatever is the same for every row is set up once per document, and most
of the per-row work runs in C.  Each chunk's rows are read as columns: the
text column passes as it is (quoted in JSON), and each rational column is
one `map` of the document's cell function, which fixes 10**digits and its
templates once.  That function converts each numerator to text once, an
integer's decimal cell being that same text, and a rational equal to the
one rendered just before it (the agreeing routes of `area`) reuses that
one's cells, so a run of equal values is converted once in all.  `zip`
rebuilds the rows from the columns.  Each JSON row object is then written
by one `%` template built from the headers, and each chunk of CSV or
markdown rows by one join of the rows' joined cells.  `table_document` is the one CSV and markdown writer,
`verify`'s tables included.  A few counts over a chunk's text tell whether
a cell in it needs quoting (CSV) or escaping (markdown); only such a chunk,
which no area, table or diff row makes, is written again, by csv.writer or
with its cells escaped.  The JSON frame around the rows is a few lines,
written by `records_document` itself; `json_document`, verify's writer, is
json.dumps with a two-space indent.  The `json` and `csv` modules are
imported by the writers that use them, `csv` only for a chunk that needs
quoting, so importing this module, as every CLI call does, costs neither.

Python 3.11+ caps the digits str() converts from an int, and a setting can
lower the cap to 640 (sys.int_info.str_digits_check_threshold).  `int_text`
gives an int's text under any cap: str() below 10**640 in magnitude, else a
split on powers of two joined in `decimal`, as 3.12's str() does, which is
faster than str() before 3.12 from about 10,000 digits on.  A rational whose
numerator, denominator or rounded decimal may pass the bound has all three
converted by it.
"""

from __future__ import annotations

import io
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

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
    return _rational_cells(False, digits)((value.numerator, value.denominator))[1]


# Every sum and product of integers is exact in this context: its precision
# is the largest there is, and an inexact result would raise.  Its methods
# are called directly, so no thread's current context changes.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

# No setting of the int->str digit cap refuses str() of an int below this.
_SPLIT_FROM = 10 ** getattr(sys.int_info, "str_digits_check_threshold", 640)
# Below this many bits Decimal(int) converts a part directly.  On 3.11 a split then
# takes 1.05-1.3x str()'s time to 6,000 digits, 0.7x from 10,000 (1.4-2x at 128 bits).
_LEAF_BITS = 4096


def split_int_text(value: int) -> str:
    """str(value), by splitting the int on powers of two and joining the parts in decimal.

    value = hi * 2^w + lo with w half its bits; each half is converted the
    same way, and the parts are joined by one exact decimal product and sum,
    with each power 2^w formed once.  That is the method of str() from
    Python 3.12 on (its _pylong module), and takes the time of a few
    decimal products of the result's size rather than time quadratic in
    its digits.  No int is converted to text, so the int->str digit cap of
    Python 3.11+ does not apply.
    """
    powers: dict[int, Decimal] = {}

    def power(bits: int) -> Decimal:
        result = powers.get(bits)
        if result is None:
            if bits <= _LEAF_BITS:
                result = Decimal(1 << bits)
            elif bits - 1 in powers:
                result = EXACT.add(powers[bits - 1], powers[bits - 1])
            else:  # the smaller half first, so an odd width finds bits - 1 formed
                half = bits >> 1
                result = EXACT.multiply(power(half), power(bits - half))
            powers[bits] = result
        return result

    def join(part: int, bits: int) -> Decimal:
        if bits <= _LEAF_BITS:
            return Decimal(part)
        half = bits >> 1
        hi = part >> half
        low = join(part - (hi << half), half)
        return EXACT.add(low, EXACT.multiply(join(hi, bits - half), power(half)))

    text = str(join(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def int_text(value: int) -> str:
    """str(value) under any digit cap: str() below _SPLIT_FROM in magnitude, else split_int_text."""
    return str(value) if abs(value) < _SPLIT_FROM else split_int_text(value)


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


# A markdown line break in a cell, each of which becomes <br>.
_LINE_BREAK = re.compile(r"\r\n?|\n")


def table_document(fmt: str, headers: list[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """A markdown pipe table when fmt is "markdown", else a CSV table with '\\n' line endings.

    The text comes in chunks of CHUNK_ROWS lines, the header first, as the
    rows are read.  Each chunk is one join of its lines' joined cells: ","
    and "\\n" in CSV, "| ", " | " and " |\\n" in markdown.  A few scans of
    that text, in C, tell whether some cell needs quoting or escaping: the
    chunk holds more commas (CSV) or bars (markdown) than the joins put
    there, more "\\n" than lines, or a "\\r"; in CSV also a '"', or an empty
    line, which a line of one empty cell (or of none) makes.  Only such a
    chunk is written again, cell by cell: by csv.writer in CSV, so every
    byte is csv.writer's on every Python, and in markdown with each | in a
    cell escaped as \\| and each line break written <br>, so that each line
    stays one row.
    """
    markdown = fmt == "markdown"
    start, between, end, mark = ("| ", " | ", " |\n", "|") if markdown else ("", ",", "\n", ",")
    separator = end + start
    lines = chain((headers, ["---"] * len(headers)) if markdown else (headers,), rows)
    for batch in batched(lines):
        text = start + separator.join(map(between.join, batch)) + end
        # a line of n cells holds n + 1 |, or n - 1 commas
        marks = sum(map(len, batch)) + (len(batch) if markdown else -len(batch))
        if (
            text.count(mark) > marks
            or text.count("\n") > len(batch)
            or "\r" in text
            or not markdown and ('"' in text or text[0] == "\n" or "\n\n" in text)
        ):
            if markdown:
                escaped = ([_LINE_BREAK.sub("<br>", cell.replace("|", "\\|")) for cell in line]
                           for line in batch)
                text = start + separator.join(map(between.join, escaped)) + end
            else:
                import csv

                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\n").writerows(batch)
                text = buffer.getvalue()
        yield text


def json_document(payload: dict) -> str:
    """Stable two-space-indented JSON document (insertion key order), newline-terminated."""
    import json

    return json.dumps(payload, indent=2) + "\n"


def _indented_json(value: object) -> str:
    """json.dumps(value, indent=2) laid out as a member of a top-level object."""
    import json

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

    The first field is text, one column.  Every later field is rational: its
    cell, a (num, den) pair in lowest terms with den > 0, makes the field `f`
    the columns `f` ("num/den", or {"num", "den"} in JSON) and `f_decimal`;
    None, a rational that does not exist, fills both with "undefined" (null
    in JSON).  So the headers come from `fields` alone, and a document with
    no rows still writes them in CSV and markdown, as JSON writes its keys.

    The rows are read as the chunks are taken, CHUNK_ROWS to a chunk, so a
    document of any length is written in flat memory.  Each chunk's cells
    are made column by column, and a run of equal rationals is converted
    once (see the module docstring).  The num/den text keeps a denominator
    of 1 ("6/1").  CSV and markdown rows go to table_document, and omit
    params.  In JSON the cells are already JSON text, and each row's object
    is one `%` template of the headers, every cell after its field's
    `"name": ` prefix.  The document around the rows is written here too,
    its start in the first chunk of rows: params, the rows under `key`, then
    each extra key, every value but the rows through json.dumps with a
    two-space indent, so the whole is what json_document({"params": params,
    key: rows, **extra}) would write.
    """
    headers = [fields[0], *(f for name in fields[1:] for f in (name, name + "_decimal"))]
    batches = _row_batches(fmt == "json", rows, digits)
    if fmt != "json":
        yield from table_document(fmt, headers, chain.from_iterable(batches))
        return
    from json.encoder import encode_basestring_ascii as quote

    fields_text = ",\n".join(
        f"{_FIELD_PAD}{quote(name).replace('%', '%%')}: %s" for name in headers
    )
    row = f"{_ROW_PAD}{{\n{fields_text}\n{_ROW_PAD}}}"
    start = f'{{\n  "params": {_indented_json(params)},\n  {quote(key)}: ['
    separator = start + "\n"  # the start, with the first chunk of rows; ",\n" between rows
    for batch in batches:
        yield separator + ",\n".join(map(row.__mod__, batch))
        separator = ",\n"
    extra_text = "".join(
        f",\n  {quote(name)}: {_indented_json(value)}" for name, value in extra.items()
    )
    yield ("\n  ]" if separator == ",\n" else start + "]") + extra_text + "\n}\n"


def _row_batches(
    as_json: bool,
    rows: Iterable[Sequence[str | tuple[int, int] | None]],
    digits: int,
) -> Iterator[Iterable[tuple[str, ...]]]:
    """Each CHUNK_ROWS rows' cells in column order, JSON text when as_json, as the rows are read.

    A chunk is read as columns: the first, text, passes as it is, or quoted
    in JSON, and each later one, rational, is one map of the document's cell
    function, split into its two columns; zip rebuilds the rows.
    """
    rational = _rational_cells(as_json, digits)
    if as_json:
        from json.encoder import encode_basestring_ascii as quote
    for batch in batched(rows):
        text, *rationals = zip(*batch)
        columns = [map(quote, text) if as_json else text]
        for column in rationals:
            columns += zip(*map(rational, column))
        yield zip(*columns)


def _rational_cells(
    as_json: bool, digits: int
) -> Callable[[tuple[int, int] | None], tuple[str, str]]:
    """The document's cell function: a rational's two cells, JSON text when as_json.

    A rational (num, den), in lowest terms with den > 0, gives its num/den
    text and its decimal, num/den rounded half to even at `digits` places
    with trailing zeros trimmed (num itself when den == 1).  10**digits and
    the templates are fixed here, once per document, and a rational equal
    to the one rendered just before it reuses that one's cells.  The ints
    are converted by str() while num, den and the scaled decimal all lie
    below _SPLIT_FROM in magnitude, which |num| < _SPLIT_FROM // 10**digits
    ensures, and by int_text otherwise.
    """
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    twice_unit = 2 * 10**digits
    # |scaled| <= |num| * 10**digits / 2 + 1 when den >= 2: below _SPLIT_FROM when |num| is
    num_from = _SPLIT_FROM // 10**digits
    width = digits + 1  # the scaled decimal's digits, zero-padded to at least one whole digit
    if as_json:
        missing = ("null", "null")
        fraction = f'{{\n{_FIELD_PAD}  "num": "%s",\n{_FIELD_PAD}  "den": "%s"\n{_FIELD_PAD}}}'
    else:
        missing = (_UNDEFINED, _UNDEFINED)
        fraction = "%s/%s"
    last = pair = None  # the rational rendered last, and its two cells

    def cells(value: tuple[int, int] | None) -> tuple[str, str]:
        nonlocal last, pair
        if value is None:
            return missing
        if value == last:
            return pair
        last = num, den = value
        small = abs(num) < num_from and den < _SPLIT_FROM
        text = str if small else int_text
        if den == 1:
            decimal = text(num)
        else:
            scaled, rest = divmod(num * twice_unit + den, 2 * den)  # num/den rounded half up
            if not rest and scaled & 1:  # a tie, which rounds to even
                scaled -= 1
            if digits:
                decimal = text(abs(scaled)).zfill(width)
                decimal = (decimal[:-digits] + "." + decimal[-digits:]).rstrip("0").rstrip(".")
                if scaled < 0:
                    decimal = "-" + decimal
            else:
                decimal = text(scaled)
        # %s gives str() of each int of a small value; a large one's ints are converted once
        texts = (num, den) if small else (decimal if den == 1 else text(num), text(den))
        pair = fraction % texts, '"%s"' % decimal if as_json else decimal
        return pair

    return cells
