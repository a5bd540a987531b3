"""Area sequences over the base q: consecutive ratios and forward differences.

For fixed (k, n) the diagram area is a polynomial in q of degree n+k, so the
sequence of areas at q, q+1, q+2, ... has telling difference behaviour: the
degree-2, n=0 family has a constant second difference of exactly 1, while
the order-(n+3) difference of any degree-2 family vanishes identically.
Consecutive ratios for the degree-2, n=0 family reduce to
q(q+4) / ((q+3)(q-1)), which decreases strictly toward 1.

All values are exact rationals; ratios with a zero predecessor (the q = 1
entry) are carried as None markers so indices stay aligned with q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .areas import ROUTES
from .core import build_polynomial

__all__ = [
    "AreaSequence",
    "SequenceReport",
    "area_sequence",
    "ratio_sequence",
    "finite_difference",
    "convergence_report",
]


@dataclass(frozen=True)
class AreaSequence:
    """Areas of the (k, n) family at q = q_start, q_start+1, ..."""

    k: int
    n: int
    q_start: int
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class SequenceReport:
    """Ratio and difference diagnostics for an area sequence.

    monotone_decreasing holds only when at least two defined ratios exist
    and every consecutive defined pair strictly decreases.
    distance_to_limit is |last defined ratio - 1|; None (insufficient data)
    when no ratio is defined.
    """

    ratios: tuple[Fraction | None, ...]
    differences: tuple[Fraction, ...]
    difference_order: int
    monotone_decreasing: bool
    distance_to_limit: Fraction | None


def area_sequence(k: int, n: int, q_from: int, q_to: int) -> AreaSequence:
    """Materialize the areas for q = q_from..q_to at fixed (k, n): halves of ROUTES["general"]."""
    check_range(k, n, q_from, q_to)
    general = ROUTES["general"].twice_area
    values = tuple(Fraction(general(q, n, k), 2) for q in range(q_from, q_to + 1))
    return AreaSequence(k=k, n=n, q_start=q_from, values=values)


def check_range(k: int, n: int, q_from: int, q_to: int) -> None:
    """Refuse an empty range, then (k, n, q_from): a valid first q makes every q in range valid."""
    if q_from > q_to:
        raise ValueError(f"empty range: q_from={q_from} > q_to={q_to}")
    build_polynomial(q_from, n, k)


def ratio_sequence(s: AreaSequence) -> list[Fraction | None]:
    """Consecutive ratios values[j+1] / values[j]; None marks a zero predecessor.

    Each ratio is Fraction(b.num * a.den, b.den * a.num), cross-multiplied:
    the constructor's one gcd reduces it and moves a negative sign to the
    numerator, where `b / a` would dispatch the operator and take two.
    """
    return [
        Fraction(b.numerator * a.denominator, b.denominator * a.numerator) if a else None
        for a, b in zip(s.values, s.values[1:])
    ]


def finite_difference(s: AreaSequence, order: int) -> list[Fraction]:
    """Forward differences of the given order, by `order` passes of values[j+1] - values[j].

    The passes subtract integer numerators on one common denominator; order 2
    gives values[j+2] - 2*values[j+1] + values[j].  The sequence must be
    longer than the order.
    """
    check_order(order, len(s.values))
    den = math.lcm(*(v.denominator for v in s.values))
    nums = [v.numerator * (den // v.denominator) for v in s.values]
    for _ in range(order):
        nums = list(map(sub, nums[1:], nums))
    return [Fraction(x, den) for x in nums]


def check_order(order: int, length: int) -> None:
    """Refuse a difference order that is not positive or not below the sequence length."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order >= length:
        raise ValueError(f"order {order} needs more than {order} values, sequence has {length}")


def convergence_report(s: AreaSequence, difference_order: int = 2) -> SequenceReport:
    """Summarize ratio convergence and differences for an area sequence.

    Differences are included only when the sequence is long enough for the
    requested order; ratios keep their None markers for index alignment.
    """
    ratios = tuple(ratio_sequence(s))
    if difference_order < len(s.values):
        differences = tuple(finite_difference(s, difference_order))
    else:
        differences = ()
    defined = [r for r in ratios if r is not None]
    monotone = len(defined) >= 2 and all(a > b for a, b in zip(defined, defined[1:]))
    distance = abs(defined[-1] - 1) if defined else None
    return SequenceReport(
        ratios=ratios,
        differences=differences,
        difference_order=difference_order,
        monotone_decreasing=monotone,
        distance_to_limit=distance,
    )
