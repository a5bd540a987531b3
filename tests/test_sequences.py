"""Area sequences over q: ratios, forward differences, convergence reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from polydiagram import areas, sequences
from polydiagram import (
    AreaSequence,
    area_sequence,
    convergence_report,
    finite_difference,
    ratio_sequence,
)

import faults


def test_quadratic_family_values():
    seq = area_sequence(2, 0, 2, 6)
    assert seq.values == (
        Fraction(5, 2),
        Fraction(6),
        Fraction(21, 2),
        Fraction(16),
        Fraction(45, 2),
    )


def test_single_degenerate_value():
    assert area_sequence(2, 0, 1, 1).values == (Fraction(0),)


def test_cubic_family_values():
    # shoelace over (1,0),(1,3),(3,2),(9,1),(27,0) gives |3-7-15-27|/2 = 23
    assert area_sequence(3, 0, 2, 3).values == (Fraction(15, 2), Fraction(23))


def test_rejects_empty_range():
    with pytest.raises(ValueError, match="empty"):
        area_sequence(2, 0, 5, 4)


@pytest.mark.parametrize(
    "k, n, q_from, message",
    [
        (0, 0, 2, "k must be a positive integer"),
        (2, -1, 2, "n must be a non-negative integer"),
        (2, 0, 0, "q must be a positive integer, got 0"),
    ],
)
def test_rejects_parameters_out_of_range_before_any_work(k, n, q_from, message):
    with pytest.raises(ValueError, match=message):
        area_sequence(k, n, q_from, 5)


def test_rejects_non_integer_parameters():
    with pytest.raises(TypeError, match="k must be an int, got float"):
        area_sequence(2.0, 0, 2, 5)


class TestRatios:
    def test_quadratic_family(self):
        ratios = ratio_sequence(area_sequence(2, 0, 2, 6))
        assert ratios == [
            Fraction(12, 5),
            Fraction(7, 4),
            Fraction(32, 21),
            Fraction(45, 32),
        ]

    def test_last_tabulated_ratio(self):
        ratios = ratio_sequence(area_sequence(2, 0, 16, 17))
        assert ratios == [Fraction(64, 57)]

    def test_shifted_family(self):
        # areas 2^3*5/2 = 20 and 3^3*6 = 162, over 20
        ratios = ratio_sequence(area_sequence(2, 3, 2, 3))
        assert ratios == [Fraction(81, 10)]

    def test_zero_predecessor_is_marked_undefined(self):
        ratios = ratio_sequence(area_sequence(2, 0, 1, 3))
        assert ratios == [None, Fraction(12, 5)]

    def test_gcd_operands_do_not_grow_with_distinct_denominators(self, monkeypatch):
        # 1/1, -3/2, 1/3, ...: the lcm of every denominator has thousands of
        # bits, but each ratio only needs its own pair cross-multiplied.
        values = tuple(Fraction((-1) ** j * (2 * j + 1), j + 1) for j in range(2000))
        widest = []

        def recording_gcd(a, b):
            widest.append(max(a.bit_length(), b.bit_length()))
            return math.gcd(a, b)

        monkeypatch.setattr(sequences, "gcd", recording_gcd)
        ratios = ratio_sequence(AreaSequence(k=1, n=0, q_start=1, values=values))
        assert ratios == [b / a for a, b in zip(values, values[1:])]
        assert len(widest) == len(values) - 1
        assert max(widest) <= 2 * 12


class TestFiniteDifference:
    def test_second_difference_of_quadratic_family_is_one(self):
        seq = area_sequence(2, 0, 1, 10)
        assert finite_difference(seq, 2) == [Fraction(1)] * 8

    def test_first_difference_of_constant_sequence_is_zero(self):
        seq = AreaSequence(k=2, n=0, q_start=5, values=(Fraction(7), Fraction(7), Fraction(7)))
        assert finite_difference(seq, 1) == [Fraction(0), Fraction(0)]

    def test_shifted_quadratic_family_at_base_two(self):
        # areas 5, 18, 42 at q = 2, 3, 4: second difference 42 - 36 + 5
        seq = area_sequence(2, 1, 2, 4)
        assert finite_difference(seq, 2) == [Fraction(11)]

    def test_matches_direct_three_term_form(self):
        seq = area_sequence(2, 0, 1, 20)
        direct = [
            seq.values[j + 2] - 2 * seq.values[j + 1] + seq.values[j]
            for j in range(len(seq.values) - 2)
        ]
        assert finite_difference(seq, 2) == direct

    def test_second_difference_not_constant_for_cubic_family(self):
        values = finite_difference(area_sequence(3, 0, 2, 10), 2)
        assert len(set(values)) > 1

    def test_second_difference_not_constant_for_shifted_family(self):
        values = finite_difference(area_sequence(2, 1, 2, 10), 2)
        assert len(set(values)) > 1

    def test_rejects_order_at_least_length(self):
        seq = area_sequence(2, 0, 2, 3)
        with pytest.raises(ValueError, match="order"):
            finite_difference(seq, 2)

    def test_rejects_non_positive_order(self):
        with pytest.raises(ValueError, match="order"):
            finite_difference(area_sequence(2, 0, 2, 5), 0)


class TestConvergenceReport:
    def test_quadratic_family_report(self):
        report = convergence_report(area_sequence(2, 0, 2, 17))
        assert report.monotone_decreasing
        assert report.ratios[-1] == Fraction(64, 57)
        assert report.distance_to_limit == Fraction(64, 57) - 1
        assert report.differences == tuple([Fraction(1)] * 14)
        assert report.difference_order == 2

    def test_large_base_ratio_is_close_to_one(self):
        report = convergence_report(area_sequence(2, 0, 10**6, 10**6 + 1))
        assert report.distance_to_limit is not None
        assert report.distance_to_limit < Fraction(1, 10**5)

    def test_all_zero_sequence_has_insufficient_data(self):
        seq = AreaSequence(k=2, n=0, q_start=1, values=(Fraction(0), Fraction(0), Fraction(0)))
        report = convergence_report(seq)
        assert report.ratios == (None, None)
        assert report.distance_to_limit is None
        assert not report.monotone_decreasing


@pytest.mark.parametrize("name, at_q", [
    # a raise keeps the bare q as its id
    pytest.param(name, at_q, id=str(at_q) if name.startswith("raise-") else f"{name}-{at_q}")
    for name in ("raise-ZeroDivisionError", "float")
    for at_q in (2, 4, 6)  # the first, an inner and the last q of the range
])
def test_a_raising_route_is_named_with_the_q_it_raised_at(name, at_q):
    # the values before at_q are yielded; a raise is the cause, a non-int has none
    fault = faults.CATALOG[name]
    before = [areas.ROUTES["general"].twice_area(q, 0, 2) for q in range(2, at_q)]
    values = []
    with fault.inject(from_q=at_q):
        sequence = sequences.twice_area_sequence(2, 0, 2, 6)
        with pytest.raises(sequences.RouteRaised) as info:
            for twice in sequence:
                values.append(twice)
    assert str(info.value) == f"route 'general' {fault.text} at q = {at_q}"
    assert values == before
    if name == "float":
        assert info.value.__cause__ is None
    else:
        assert isinstance(info.value.__cause__, ZeroDivisionError)
