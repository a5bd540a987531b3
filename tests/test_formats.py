"""Rational/decimal rendering and document emitters."""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polydiagram.cli as cli
import polydiagram.formats as formats
from polydiagram import area_general, build_polynomial
from polydiagram.formats import (
    CHUNK_ROWS,
    format_decimal,
    int_text,
    json_document,
    rational_from_json,
    records_document,
    split_int_text,
    table_document,
)
import faults
from references import (
    decimal_by_fraction_round,
    format_rational,
    markdown_line,
    rational_to_json,
    records_document_by_rows,
)


class TestFormatRational:
    def test_half_integer(self):
        assert format_rational(Fraction(5, 2)) == "5/2"

    def test_integers_keep_explicit_denominator(self):
        assert format_rational(Fraction(6)) == "6/1"

    def test_negative(self):
        assert format_rational(Fraction(-3, 4)) == "-3/4"


class TestFormatDecimal:
    def test_trims_trailing_zeros(self):
        assert format_decimal(Fraction(5, 2)) == "2.5"

    def test_integer_loses_the_point(self):
        assert format_decimal(Fraction(6)) == "6"

    def test_rounds_half_to_even(self):
        assert format_decimal(Fraction(45, 32)) == "1.4062"  # 1.40625 rounds down
        assert format_decimal(Fraction(25, 1000), digits=2) == "0.02"
        assert format_decimal(Fraction(35, 1000), digits=2) == "0.04"

    def test_repeating_decimal(self):
        assert format_decimal(Fraction(4, 3)) == "1.3333"

    def test_negative_value(self):
        assert format_decimal(Fraction(-5, 2), digits=1) == "-2.5"

    def test_rounds_tiny_negative_to_plain_zero(self):
        assert format_decimal(Fraction(-1, 10**6)) == "0"

    def test_zero_digits(self):
        assert format_decimal(Fraction(7, 2), digits=0) == "4"  # ties to even

    def test_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            format_decimal(Fraction(1), digits=-1)


@given(
    whole=st.one_of(st.integers(min_value=-99, max_value=99),
                    st.integers(min_value=-(10**60), max_value=10**60)),
    digits=st.integers(min_value=0, max_value=8),
)
@example(whole=0, digits=0)
@example(whole=-1, digits=8)
def test_decimal_of_an_integer_matches_fraction_rounding(whole, digits):
    value = Fraction(whole)
    assert format_decimal(value, digits) == decimal_by_fraction_round(value, digits)


class TestJsonRational:
    def test_round_trip(self):
        value = Fraction(285, 2)
        assert rational_from_json(rational_to_json(value)) == value

    def test_round_trip_huge_values(self):
        value = Fraction(16**300 + 1, 2)
        encoded = rational_to_json(value)
        assert json.loads(json.dumps(encoded)) == encoded
        assert rational_from_json(encoded) == value

    def test_decodes_unreduced_input(self):
        assert rational_from_json({"num": "10", "den": "4"}) == Fraction(5, 2)

    @pytest.mark.parametrize("den", [-(10**5000 - 1), "-" + "9" * 5000, 0, "-2"],
                             ids=["int_5000_digits", "str_5000_digits", "zero", "minus_two"])
    def test_names_a_non_positive_denominator_by_its_sign(self, den):
        # a 5000-digit int has no text under the int->str digit cap of Python 3.11+,
        # so the message must not format the denominator
        sign = "0" if den == 0 else "a negative"
        with pytest.raises(ValueError, match=f"^denominator must be positive, got {sign}$"):
            rational_from_json({"num": "1", "den": den})

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            rational_from_json({"num": "1"})
        with pytest.raises(ValueError):
            rational_from_json("5/2")
        with pytest.raises(ValueError):
            rational_from_json({"num": "1", "den": "0"})
        # fields that int() would truncate, to 1/2, 15/2 and 1/2, and strings
        # that Decimal reads but that are not integers
        for obj in ({"num": 1.9, "den": 2}, {"num": 15, "den": 2.7}, {"num": True, "den": 2},
                    {"num": "1e3", "den": "1"}, {"num": "1.5", "den": "2"},
                    {"num": "NaN", "den": "1"}, {"num": "1", "den": "Infinity"}):
            with pytest.raises(ValueError, match="not a rational object"):
                rational_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [{"num": 10**5000, "den": 2.5}, {"num": 10**5000}, [10**5000],
         {"num": [10**5000], "den": "1"}],
        ids=["float_den", "no_den", "list", "list_num"],
    )
    def test_junk_holding_an_int_past_the_digit_cap(self, obj):
        # a 5000-digit int has no text under the int->str digit cap of Python 3.11+,
        # so the message must name what is wrong without formatting the input
        with pytest.raises(ValueError, match="^not a rational object: "):
            rational_from_json(obj)


class TestDocuments:
    def test_csv_layout(self):
        doc = "".join(table_document("csv", ["a", "b"], [["1", "2"], ["3", "4"]]))
        assert doc == "a,b\n1,2\n3,4\n"

    def test_markdown_layout(self):
        doc = "".join(table_document("markdown", ["a", "b"], [["1", "2"]]))
        assert doc == "| a | b |\n| --- | --- |\n| 1 | 2 |\n"

    def test_json_document_parses_and_ends_with_newline(self):
        doc = json_document({"x": 1})
        assert doc.endswith("\n")
        assert json.loads(doc) == {"x": 1}

    def test_json_document_of_an_injected_verify_failure(self, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "json_document", lambda payload: payloads.append(payload) or "")
        with faults.CATALOG["general-plus-2-at-n-1"].inject():
            assert cli.main(["verify", "--q-max", "2", "--n-max", "1", "--k-max", "2"]) == 1
        (payload,) = payloads
        assert payload["failures"] and isinstance(payload["first_failure"], dict)
        assert payload["passed"] is False
        assert json_document(payload) == json.dumps(payload, indent=2) + "\n"


# Strings that stress the escaping: quotes, backslashes, control characters,
# non-ASCII, astral characters and lone surrogates.
json_texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    )
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    json_texts,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_texts, children, max_size=4),
    ),
    max_leaves=20,
)

# Cells that make csv.writer quote, or that end a markdown cell or line, and clean ones.
table_cells = st.one_of(
    json_texts,
    st.sampled_from([",", '"', '""', "\r", "\n", "\r\n", "|", "", "7/2"]),
    st.text(st.sampled_from(',"\r\n| a'), max_size=4),
    st.from_regex(r"-?\d{1,3}(/\d{1,2}|\.\d{1,4})?|undefined", fullmatch=True),
)
# A row of any width: none, one cell, or several.
table_rows = st.lists(table_cells, max_size=4)


@given(
    headers=table_rows,
    rows=st.lists(table_rows, min_size=1, max_size=6),
    run=st.sampled_from([1, 7, CHUNK_ROWS]),
    length=st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 2]),
)
@example(headers=["a", "b"], rows=[["1", "2"]], run=1, length=2 * CHUNK_ROWS + 2)  # all clean
@example(headers=["a"], rows=[[""], []], run=1, length=2)  # one empty cell, or none
@example(headers=["a", "b"], rows=[["1", "x | y\nz"]], run=1, length=1)  # a line break in a cell
@example(headers=["a", "b"], rows=[["1", "2"], ["x,y", "\r"], ["3", "4"]], run=CHUNK_ROWS,
         length=2 * CHUNK_ROWS + 2)  # a chunk that needs quoting between clean ones
@settings(max_examples=60, deadline=None)
def test_table_document_is_csv_writer_and_an_escaped_markdown_table(headers, rows, run, length):
    # runs of `run` equal rows, so some chunks can be clean and others not
    lines = [rows[j // run % len(rows)] for j in range(length)]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([headers, *lines])
    assert "".join(table_document("csv", headers, iter(lines))) == buffer.getvalue()
    assert "".join(table_document("markdown", headers, iter(lines))) == "".join(
        map(markdown_line, [headers, ["---"] * len(headers), *lines])
    )


def _pair(value: Fraction | None) -> tuple[int, int] | None:
    return None if value is None else (value.numerator, value.denominator)


def _streamed(
    fmt: str, fields: tuple[str, ...], records: list[dict], params: dict, digits: int,
    key: str = "rows", **extra: object,
) -> str:
    """records_document's chunks, joined, for records of a text field, then Fraction fields."""
    text, *rationals = fields
    rows = ((record[text], *(_pair(record[name]) for name in rationals)) for record in records)
    return "".join(records_document(fmt, fields, rows, params, digits, key, **extra))


class TestRecordsDocument:
    FIELDS = ("q", "ratio")
    RECORDS = [
        {"q": "1", "ratio": None},
        {"q": "2", "ratio": Fraction(7, 4)},
    ]

    def test_csv_splits_rationals_and_marks_missing_ones(self):
        doc = _streamed("csv", self.FIELDS, self.RECORDS, {"k": "2"}, 1)
        assert doc == "q,ratio,ratio_decimal\n1,undefined,undefined\n2,7/4,1.8\n"

    def test_markdown_has_the_csv_columns(self):
        doc = _streamed("markdown", self.FIELDS, self.RECORDS, {"k": "2"}, 1)
        assert doc.splitlines()[0] == "| q | ratio | ratio_decimal |"
        assert doc.splitlines()[2] == "| 1 | undefined | undefined |"

    def test_json_carries_params_rows_and_extra_keys(self):
        doc = _streamed("json", self.FIELDS, self.RECORDS, {"k": "2"}, 1, "results", agree=True)
        assert json.loads(doc) == {
            "params": {"k": "2"},
            "results": [
                {"q": "1", "ratio": None, "ratio_decimal": None},
                {"q": "2", "ratio": {"num": "7", "den": "4"}, "ratio_decimal": "1.8"},
            ],
            "agree": True,
        }


wide_rationals = st.one_of(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=4),
    st.builds(Fraction, st.integers(min_value=-(10**80), max_value=10**80),
              st.integers(min_value=1, max_value=2)),
)


def _json_rows(fields: tuple[str, ...], records: list[dict], digits: int) -> list[dict]:
    """The records as the JSON rows records_document must write, each rational on its own."""
    text, *rationals = fields
    rows = []
    for record in records:
        row: dict = {text: record[text]}
        for name in rationals:
            v = record[name]
            row[name] = None if v is None else rational_to_json(v)
            row[name + "_decimal"] = None if v is None else format_decimal(v, digits)
        rows.append(row)
    return rows


def _cells_one_by_one(
    fmt: str, fields: tuple[str, ...], records: list[dict], digits: int, key: str = "rows",
    **extra: object,
) -> str:
    """The document records_document must write, each rational rendered on its own."""
    if fmt == "json":
        document = {"params": {}, key: _json_rows(fields, records, digits), **extra}
        return json.dumps(document, indent=2) + "\n"
    text, *rationals = fields
    rows = [
        [
            record[text],
            *(
                cell
                for v in map(record.__getitem__, rationals)
                for cell in (
                    ("undefined", "undefined") if v is None
                    else (format_rational(v), format_decimal(v, digits))
                )
            ),
        ]
        for record in records
    ]
    headers = [text, *(column for name in rationals for column in (name, name + "_decimal"))]
    return "".join(table_document(fmt, headers, rows))


@given(a=wide_rationals, b=wide_rationals, digits=st.integers(min_value=0, max_value=8))
@example(a=Fraction(7), b=Fraction(7, 2), digits=4)  # n/1 next to n/2
@example(a=Fraction(7, 2), b=Fraction(7), digits=0)
@example(a=Fraction(5, 2), b=Fraction(-5, 2), digits=1)  # a value next to its negation
@example(a=Fraction(-3), b=Fraction(3), digits=4)
@example(a=Fraction(0), b=Fraction(0), digits=4)
def test_records_document_renders_each_cell_as_alone(a, b, digits):
    # equal values arrive as distinct Fraction objects
    values = [Fraction(v.numerator, v.denominator) if v is not None else None
              for v in (a, a, b, a, None, a)]
    records = [{"i": str(i), "v": v} for i, v in enumerate(values)]
    # two rational fields, None first, under a non-default key with an extra key
    shifted = values[4:] + values[:4]
    pairs = [{"i": str(i), "u": u, "v": v} for i, (u, v) in enumerate(zip(shifted, values))]
    for fmt in ("csv", "markdown", "json"):
        assert _streamed(fmt, ("i", "v"), records, {}, digits) == (
            _cells_one_by_one(fmt, ("i", "v"), records, digits)
        )
        assert _streamed(fmt, ("i", "u", "v"), pairs, {}, digits, "results", agree=False) == (
            _cells_one_by_one(fmt, ("i", "u", "v"), pairs, digits, "results", agree=False)
        )


# Names records_document binds itself, or that its document already holds.
_TAKEN = {"fmt", "records", "params", "digits", "key", "results"}


@given(
    params=st.dictionaries(json_texts, st.one_of(json_texts, st.integers()), min_size=1,
                           max_size=4),
    field=json_texts.filter(lambda name: name not in ("v", "v_decimal")),
    cells=st.lists(st.tuples(json_texts, st.one_of(st.none(), wide_rationals)), max_size=3),
    extra=st.dictionaries(json_texts.filter(lambda name: name not in _TAKEN), json_values,
                          max_size=3),
    digits=st.integers(min_value=0, max_value=8),
)
@example(params={"q": "2"}, field="t", cells=[], extra={}, digits=4)  # no rows
@example(params={"a\n\"b": -(10**30)}, field="\ud800", cells=[("\\", Fraction(7, 2))],
         extra={"agree": True, "nested": {"x": [1, {"y": ()}]}}, digits=1)
def test_records_document_json_is_json_dumps_of_the_same_document(
    params, field, cells, extra, digits
):
    # the frame around the pre-encoded rows (params, the rows key, each extra
    # key) is written by records_document itself
    records = [{field: text, "v": v} for text, v in cells]
    document = {"params": params, "results": _json_rows((field, "v"), records, digits), **extra}
    assert _streamed("json", (field, "v"), records, params, digits, "results", **extra) == (
        json.dumps(document, indent=2) + "\n"
    )


@given(
    values=st.lists(st.one_of(st.none(), wide_rationals), min_size=1, max_size=5),
    run=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=0, max_value=2 * CHUNK_ROWS + 2),
    extra=st.dictionaries(st.sampled_from(["agree", "note"]), json_values, max_size=2),
    digits=st.integers(min_value=0, max_value=6),
)
@example(values=[Fraction(5, 2)], run=1, length=0, extra={}, digits=4)  # no rows
@example(values=[None, Fraction(6)], run=3, length=CHUNK_ROWS, extra={"agree": True}, digits=4)
@example(values=[Fraction(-7, 2)], run=1, length=CHUNK_ROWS + 1, extra={}, digits=0)
@settings(max_examples=40, deadline=None)
def test_streamed_chunks_join_to_the_one_cell_at_a_time_document(
    values, run, length, extra, digits
):
    # rows across chunk boundaries, with runs of equal values (each `run` rows
    # long), None cells and extra keys; a chunk holds many rows, not one per write
    records = [
        {"q": str(j), "area": values[j // run % len(values)],
         "ratio": values[(j // run + 1) % len(values)]}
        for j in range(length)
    ]
    rows = [(r["q"], _pair(r["area"]), _pair(r["ratio"])) for r in records]
    for fmt in ("csv", "markdown", "json"):
        chunks = list(records_document(fmt, ("q", "area", "ratio"), iter(rows), {}, digits,
                                       **extra))
        kept = extra if fmt == "json" else {}
        assert "".join(chunks) == _cells_one_by_one(fmt, ("q", "area", "ratio"), records, digits,
                                                    **kept)
        assert len(chunks) <= length // 64 + 3


# Denominators past the areas' 1 and 2, so that decimals round at every place.
rationals = st.one_of(
    wide_rationals,
    st.builds(Fraction, st.integers(min_value=-(10**40), max_value=10**40),
              st.integers(min_value=1, max_value=10**12)),
)


@given(
    texts=st.lists(json_texts, min_size=1, max_size=3),
    values=st.lists(st.one_of(st.none(), rationals), min_size=1, max_size=5),
    run=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=0, max_value=40),
    digits=st.integers(min_value=0, max_value=12),
)
@example(texts=["a"], values=[Fraction(-7, 2), None, Fraction(1, 3)], run=2,
         length=CHUNK_ROWS + 3, digits=12)  # runs across a chunk boundary
@example(texts=["x"], values=[Fraction(5, 2)], run=1, length=3, digits=0)  # ties to even
@settings(max_examples=60, deadline=None)
def test_records_document_matches_a_row_by_row_writer(texts, values, run, length, digits):
    # a text field, then two rational fields holding runs of equal values
    rows = [
        (texts[j % len(texts)], *(
            None if v is None else (v.numerator, v.denominator)
            for v in (values[j // run % len(values)], values[(j // run + 1) % len(values)])
        ))
        for j in range(length)
    ]
    fields = ["name", "area", "ratio"]
    for fmt in ("csv", "markdown", "json"):
        extra = {"agree": True} if fmt == "json" else {}
        assert "".join(records_document(fmt, fields, iter(rows), {"k": "2"}, digits, **extra)) == (
            records_document_by_rows(fmt, fields, rows, {"k": "2"}, digits, **extra)
        )


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit cap (Python >= 3.11) while str() is the oracle."""
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


@given(value=st.one_of(st.integers(), st.integers(min_value=-(1 << 6000), max_value=1 << 6000)))
@example(value=0)
@example(value=-1)
@example(value=(1 << formats._LEAF_BITS) - 1)  # the widest leaf
@example(value=1 << formats._LEAF_BITS)  # the narrowest split
@example(value=-(1 << 257) + 1)
@example(value=10**1000)  # decimal digits that cross the parts' boundaries
def test_split_int_text_is_str(value):
    with unlimited_int_digits():
        assert split_int_text(value) == str(value)


def test_int_text_splits_from_the_lowest_digit_cap():
    # 640 digits is the lowest cap any setting allows, so no cap refuses str() below the bound
    threshold = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert threshold == 640
    assert formats._SPLIT_FROM == 10**threshold


@pytest.mark.parametrize(
    "value",
    [formats._SPLIT_FROM - 1, formats._SPLIT_FROM, -formats._SPLIT_FROM + 1, -formats._SPLIT_FROM,
     3**40000, -(7**30001)],
    ids=["below", "at", "negative_below", "negative_at", "3^40000", "-7^30001"],
)
def test_int_text_is_str_around_the_crossover(digit_cap, value):
    # the crossover is the 640-digit bound, and int_text runs under a cap that low
    with digit_cap(0):
        expected = str(value)
    with digit_cap(640):
        assert int_text(value) == expected


def test_huge_rationals_are_converted_by_int_text(monkeypatch):
    # a numerator past the bound goes through int_text, which splits it on every Python
    splits = []
    monkeypatch.setattr(formats, "split_int_text",
                        lambda value: splits.append(value) or split_int_text(value))
    num = 3**40000
    rows = [("a", (num, 1)), ("b", (num, 1)), ("c", (-num, 2)), ("d", None)]
    with unlimited_int_digits():
        for fmt in ("csv", "json"):
            assert "".join(records_document(fmt, ["t", "v"], rows, {}, 3)) == (
                records_document_by_rows(fmt, ["t", "v"], rows, {}, 3)
            )
    # each format: the integer's text once for its run, then -num/2's numerator and digits
    assert [abs(v) for v in splits] == [num, num * 500, num] * 2


def test_format_decimal_of_an_area_past_the_default_cap():
    # a 6022-digit numerator, written outside the CLI under the interpreter's own cap
    area = area_general(build_polynomial(2, 0, 20000))
    text = format_decimal(area)
    assert Fraction(Decimal(text)) == round(area, 4)
    assert len(text) > 6000 and not text.endswith("0")


@pytest.mark.parametrize(
    "rows, digits",
    [
        # cells of 4534 and 9000 digits, past the default cap
        ([("a", (3**9500, 1)), ("b", (-(3**9500), 2)), ("c", (1, 7**10650))], 4),
        # 600-digit cells whose scaled decimals, at --digits 1000, cross the 640-digit bound
        ([("a", (10**599 + 1, 7)), ("b", (-(10**599) - 3, 11)), ("c", (10**599, 1))], 1000),
    ],
    ids=["past_the_default_cap", "decimal_past_the_bound"],
)
def test_records_past_the_digit_cap_are_exact_under_the_lowest_cap(digit_cap, rows, digits):
    with digit_cap(0):
        expected = {fmt: records_document_by_rows(fmt, ["t", "v"], rows, {}, digits)
                    for fmt in ("csv", "markdown", "json")}
    with digit_cap(640):
        got = {fmt: "".join(records_document(fmt, ["t", "v"], rows, {}, digits))
               for fmt in expected}
    assert got == expected
