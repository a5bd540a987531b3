"""The package's records: immutable slotted classes that compare, hash, print and copy by value."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from polydiagram import (
    AreaCrossCheck,
    AreaSequence,
    CheckFailure,
    PolynomialDiagram,
    RenderSpec,
    SequenceReport,
    SpecialPolynomial,
    VerificationReport,
)
from polydiagram.core import VertexCycle

FAILURE = CheckFailure(2, 0, 3, "simple", "non-adjacent edges touch")

# Each record class: a factory of equal instances, its fields in order, and its repr.
RECORDS = {
    "SpecialPolynomial": (
        lambda: SpecialPolynomial(2, 0, 3), ("q", "n", "k"), "SpecialPolynomial(q=2, n=0, k=3)"
    ),
    "VertexCycle": (lambda: VertexCycle(2, 3, 1), ("q", "k", "x0"), "VertexCycle(q=2, k=3, x0=1)"),
    "PolynomialDiagram": (
        lambda: PolynomialDiagram(VertexCycle(2, 3, 1), SpecialPolynomial(2, 0, 3)),
        ("vertices", "source"),
        "PolynomialDiagram(vertices=VertexCycle(q=2, k=3, x0=1), "
        "source=SpecialPolynomial(q=2, n=0, k=3))",
    ),
    "AreaCrossCheck": (
        lambda: AreaCrossCheck({"closed": 15, "pick": 15}, {"general": "ValueError: no"}),
        ("twice_areas", "raised"),
        "AreaCrossCheck(twice_areas={'closed': 15, 'pick': 15}, "
        "raised={'general': 'ValueError: no'})",
    ),
    "AreaSequence": (
        lambda: AreaSequence(k=2, n=0, q_start=2, values=(Fraction(5, 2), Fraction(6))),
        ("k", "n", "q_start", "values"),
        "AreaSequence(k=2, n=0, q_start=2, values=(Fraction(5, 2), Fraction(6, 1)))",
    ),
    "SequenceReport": (
        lambda: SequenceReport((None, Fraction(12, 5)), (Fraction(1),), 2, False, Fraction(7, 5)),
        ("ratios", "differences", "difference_order", "monotone_decreasing", "distance_to_limit"),
        "SequenceReport(ratios=(None, Fraction(12, 5)), differences=(Fraction(1, 1),), "
        "difference_order=2, monotone_decreasing=False, distance_to_limit=Fraction(7, 5))",
    ),
    "CheckFailure": (
        lambda: CheckFailure(2, 0, 3, "simple", "non-adjacent edges touch"),
        ("q", "n", "k", "check", "detail"),
        "CheckFailure(q=2, n=0, k=3, check='simple', detail='non-adjacent edges touch')",
    ),
    "VerificationReport": (
        lambda: VerificationReport(2, 0, 3, {"simple": 4}, (FAILURE,), ("q=2: no",)),
        ("q_max", "n_max", "k_max", "tally", "failures", "golden_problems"),
        "VerificationReport(q_max=2, n_max=0, k_max=3, tally={'simple': 4}, "
        f"failures=({FAILURE!r},), golden_problems=('q=2: no',))",
    ),
    "RenderSpec": (
        RenderSpec, ("width_px", "height_px", "margin_px", "log_x"),
        "RenderSpec(width_px=640, height_px=480, margin_px=48, log_x=False)",
    ),
}

UNHASHABLE = {"AreaCrossCheck"}  # it holds dicts

parametrize_records = pytest.mark.parametrize("name", sorted(RECORDS))


def fields_of(record: object) -> tuple:
    return tuple(getattr(record, field) for field in RECORDS[type(record).__name__][1])


@parametrize_records
def test_fields_are_the_slots_and_the_match_args_in_order(name):
    make, fields, _ = RECORDS[name]
    record = make()
    assert type(record).__slots__ == type(record).__match_args__ == fields
    assert not hasattr(record, "__dict__")


@parametrize_records
def test_an_equal_instance_is_equal_and_hashes_alike(name):
    make, _, _ = RECORDS[name]
    record, again = make(), make()
    assert record is not again
    assert record == again and not record != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(again)


@parametrize_records
def test_a_record_is_not_equal_to_a_tuple_of_its_fields(name):
    record = RECORDS[name][0]()
    assert record != fields_of(record)
    assert fields_of(record) != record


@parametrize_records
def test_repr_names_each_field(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@parametrize_records
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == make()


@parametrize_records
@pytest.mark.parametrize(
    "duplicate",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copies_round_trip_to_an_equal_value(name, duplicate):
    record = RECORDS[name][0]()
    again = duplicate(record)
    assert type(again) is type(record)
    assert again == record
    assert fields_of(again) == fields_of(record)


@pytest.mark.parametrize(
    "make, error, text",
    [
        (lambda: SpecialPolynomial(0, 0, 1), ValueError, "q must be a positive integer, got 0"),
        (lambda: SpecialPolynomial(1, -1, 1), ValueError,
         "n must be a non-negative integer, got -1"),
        (lambda: SpecialPolynomial(1, 0, 0), ValueError,
         "k must be a positive integer (the degree), got 0"),
        (lambda: SpecialPolynomial(1.0, 0, 1), TypeError, "q must be an int, got float"),
        (lambda: SpecialPolynomial(True, 0, 1), TypeError, "q must be an int, got bool"),
        (lambda: SpecialPolynomial(1, 0, "3"), TypeError, "k must be an int, got str"),
        (lambda: RenderSpec(width_px=0), ValueError, "width_px and height_px must be positive"),
        (lambda: RenderSpec(margin_px=-1), ValueError, "margin_px must be non-negative"),
        (lambda: RenderSpec(100, 100, 50), ValueError, "margins leave no drawing area"),
    ],
)
def test_validation_texts(make, error, text):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == text


def test_a_cross_check_defaults_to_a_new_empty_raised_dict():
    first, second = AreaCrossCheck({"closed": 15}), AreaCrossCheck({"closed": 15})
    assert first.raised == {} and first.raised is not second.raised


def test_a_reports_hash_leaves_out_its_tally():
    report = VerificationReport(2, 0, 3, {"simple": 4}, (FAILURE,), ())
    other_tally = VerificationReport(2, 0, 3, {"simple": 5}, (FAILURE,), ())
    assert report != other_tally
    assert hash(report) == hash(other_tally)
