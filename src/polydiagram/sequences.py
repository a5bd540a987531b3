"""Area sequences over the base q: consecutive ratios and forward differences.

For fixed (k, n) the diagram area is a polynomial in q of degree n+k, so the
sequence of areas at q, q+1, q+2, ... has telling difference behaviour: the
degree-2, n=0 family has a constant second difference of exactly 1, while
the order-(n+3) difference of any degree-2 family vanishes identically.
Consecutive ratios for the degree-2, n=0 family reduce to
q(q+4) / ((q+3)(q-1)), which decreases strictly toward 1.

Each operation has one implementation on exact ints, which `table` and
`diff` run on the twice-areas as they are computed, with no Fraction per
row: twice_area_sequence yields 2A for each q from ROUTES["general"] in
one loop, checking each value as it yields it (a raise from the route, or
a value that is not an int, comes out as RouteRaised with
areas.route_failure's text, naming the route and q); ratio_pairs pairs
each value with its ratio to the next, reduced by one gcd (_ratio), as the
halves cancel; differences takes `order` passes of integer subtraction,
and the result is halved once.  The library functions keep their Fraction
results, built from those same ints: area_sequence halves each twice-area
by half_pair, ratio_sequence cross-multiplies each pair of neighbours into
_ratio, and finite_difference puts the values on their least common
denominator (2 for an area sequence) first.  Ratios with a zero predecessor
(the q = 1 entry) are carried as None markers so indices stay aligned with
q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, pairwise
from math import gcd, lcm
from operator import sub
from typing import Iterable, Iterator

from .areas import ROUTES, RouteRaised, half_pair, route_failure
from .core import Record, build_polynomial

__all__ = [
    "AreaSequence",
    "SequenceReport",
    "area_sequence",
    "ratio_sequence",
    "finite_difference",
    "convergence_report",
]


class AreaSequence(Record):
    """Areas of the (k, n) family at q = q_start, q_start+1, ..."""

    __slots__ = __match_args__ = ("k", "n", "q_start", "values")
    k: int
    n: int
    q_start: int
    values: tuple[Fraction, ...]


class SequenceReport(Record):
    """Ratio and difference diagnostics for an area sequence.

    monotone_decreasing holds only when at least two defined ratios exist
    and every consecutive defined pair strictly decreases.
    distance_to_limit is |last defined ratio - 1|; None (insufficient data)
    when no ratio is defined.
    """

    __slots__ = __match_args__ = ("ratios", "differences", "difference_order",
                                  "monotone_decreasing", "distance_to_limit")
    ratios: tuple[Fraction | None, ...]
    differences: tuple[Fraction, ...]
    difference_order: int
    monotone_decreasing: bool
    distance_to_limit: Fraction | None


def area_sequence(k: int, n: int, q_from: int, q_to: int) -> AreaSequence:
    """Materialize the areas for q = q_from..q_to at fixed (k, n): twice_area_sequence halved."""
    twice = twice_area_sequence(k, n, q_from, q_to)
    values = tuple(Fraction(*half_pair(t)) for t in twice)
    return AreaSequence(k=k, n=n, q_start=q_from, values=values)


def twice_area_sequence(k: int, n: int, q_from: int, q_to: int) -> Iterator[int]:
    """Twice the area at q = q_from..q_to, exact ints from ROUTES["general"], computed as read.

    The range is refused, if at all, by this call, before any route runs.  A
    raise from the route, or a value that is not an int, is raised as
    RouteRaised with route_failure's text at the q it came from.
    """
    check_range(k, n, q_from, q_to)
    return _twice_areas(k, n, q_from, q_to)


def _twice_areas(k: int, n: int, q_from: int, q_to: int) -> Iterator[int]:
    """twice_area_sequence once its range is checked: each value checked as it is yielded."""
    for q in range(q_from, q_to + 1):
        try:
            twice = ROUTES["general"].twice_area(q, n, k)
        except Exception as exc:  # any raise is the route's fault, as in cross_check
            failure = route_failure(exc, raised=True)
            raise RouteRaised(f"route 'general' {failure} at q = {q}") from exc
        failure = route_failure(twice)
        if failure is not None:
            raise RouteRaised(f"route 'general' {failure} at q = {q}")
        yield twice


def check_range(k: int, n: int, q_from: int, q_to: int) -> None:
    """Refuse an empty range, then (k, n, q_from): a valid first q makes every q in range valid."""
    if q_from > q_to:
        raise ValueError(f"empty range: q_from={q_from} > q_to={q_to}")
    build_polynomial(q_from, n, k)


def ratio_sequence(s: AreaSequence) -> list[Fraction | None]:
    """Consecutive ratios values[j+1] / values[j] by _ratio; None marks a zero predecessor.

    Each pair is cross-multiplied onto the one denominator it needs, so the
    cost per ratio does not grow with the rest of the sequence.
    """
    pairs = (
        _ratio(b.numerator * a.denominator, a.numerator * b.denominator)
        for a, b in pairwise(s.values)
    )
    return [None if pair is None else Fraction(*pair) for pair in pairs]


def ratio_pairs(values: Iterable[int]) -> Iterator[tuple[int, tuple[int, int] | None]]:
    """Each value a but the last, with its ratio to the next, b / a by _ratio, as read.

    The values share one denominator, which cancels.
    """
    return ((a, _ratio(b, a)) for a, b in pairwise(values))


def _ratio(b: int, a: int) -> tuple[int, int] | None:
    """b / a as the pair (b / g, a / g), g = gcd(a, b) signed like a; None when a = 0.

    The pair is in lowest terms with a positive denominator.
    """
    if not a:
        return None
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    return b // g, a // g


def finite_difference(s: AreaSequence, order: int) -> list[Fraction]:
    """Forward differences of the given order, by `differences` on one common denominator.

    Order 2 gives values[j+2] - 2*values[j+1] + values[j].  The sequence must
    be longer than the order.
    """
    check_order(order, len(s.values))
    den = lcm(*(v.denominator for v in s.values))
    nums = [v.numerator * (den // v.denominator) for v in s.values]
    return [Fraction(x, den) for x in differences(nums, order)]


def differences(values: list[int], order: int) -> list[int]:
    """Forward differences of integers: `order` passes of values[j+1] - values[j].

    The caller has checked the order with check_order.
    """
    for _ in range(order):
        values = list(map(sub, islice(values, 1, None), values))
    return values


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
