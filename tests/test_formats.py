"""Rational/decimal rendering and document emitters."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polydiagram.areas as areas
import polydiagram.cli as cli
from polydiagram.formats import (
    csv_document,
    format_decimal,
    format_rational,
    json_document,
    markdown_document,
    rational_from_json,
    rational_to_json,
    records_document,
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

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            rational_from_json({"num": "1"})
        with pytest.raises(ValueError):
            rational_from_json("5/2")
        with pytest.raises(ValueError):
            rational_from_json({"num": "1", "den": "0"})


class TestDocuments:
    def test_csv_layout(self):
        doc = csv_document(["a", "b"], [["1", "2"], ["3", "4"]])
        assert doc == "a,b\n1,2\n3,4\n"

    def test_markdown_layout(self):
        doc = markdown_document(["a", "b"], [["1", "2"]])
        assert doc == "| a | b |\n| --- | --- |\n| 1 | 2 |\n"

    def test_json_document_parses_and_ends_with_newline(self):
        doc = json_document({"x": 1})
        assert doc.endswith("\n")
        assert json.loads(doc) == {"x": 1}

    def test_json_document_of_an_injected_verify_failure(self, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "json_document", lambda payload: payloads.append(payload) or "")
        original = areas.area_general
        monkeypatch.setattr(areas, "area_general", lambda p: original(p) + (p.n == 1))
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


@given(value=json_values)
def test_json_document_is_json_dumps_with_indent_2(value):
    assert json_document(value) == json.dumps(value, indent=2) + "\n"


class TestRecordsDocument:
    RECORDS = [
        {"q": "1", "ratio": None},
        {"q": "2", "ratio": Fraction(7, 4)},
    ]

    def test_csv_splits_rationals_and_marks_missing_ones(self):
        doc = records_document("csv", self.RECORDS, {"k": "2"}, 1)
        assert doc == "q,ratio,ratio_decimal\n1,undefined,undefined\n2,7/4,1.8\n"

    def test_markdown_has_the_csv_columns(self):
        doc = records_document("markdown", self.RECORDS, {"k": "2"}, 1)
        assert doc.splitlines()[0] == "| q | ratio | ratio_decimal |"
        assert doc.splitlines()[2] == "| 1 | undefined | undefined |"

    def test_json_carries_params_rows_and_extra_keys(self):
        doc = records_document("json", self.RECORDS, {"k": "2"}, 1, "results", agree=True)
        assert json.loads(doc) == {
            "params": {"k": "2"},
            "results": [
                {"q": "1", "ratio": None, "ratio_decimal": None},
                {"q": "2", "ratio": {"num": "7", "den": "4"}, "ratio_decimal": "1.8"},
            ],
            "agree": True,
        }
