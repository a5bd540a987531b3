"""Area sequences over the base q: consecutive ratios and forward differences.

For fixed (k, n) the diagram area is a polynomial in q of degree n+k, so the
sequence of areas at q, q+1, q+2, ... has telling difference behaviour: the
degree-2, n=0 family has a constant second difference of exactly 1, while
the order-(n+3) difference of any degree-2 family vanishes identically.
Consecutive ratios for the degree-2, n=0 family reduce to
q(q+4) / ((q+3)(q-1)), which decreases strictly toward 1.

Each operation has one implementation on exact ints, which `table` and
`diff` run on the twice-areas as they are computed, with no Fraction per
row: twice_area_sequence yields 2A for each q from ROUTES["general"] (a
raise from the route, or a value that is not an int, comes out as
RouteRaised, naming the route and q); ratio_pairs reduces each ratio of
neighbours by one gcd (_ratio), as the halves cancel; differences takes
`order` passes of integer subtraction, and the result is halved once.  The
library functions keep their Fraction results, built from those same ints:
area_sequence halves each twice-area by half_pair, ratio_sequence
cross-multiplies each pair of neighbours into _ratio, and finite_difference
puts the values on their least common denominator (2 for an area sequence)
first.  Ratios with a zero predecessor (the q = 1 entry) are carried as
None markers so indices stay aligned with q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, islice, pairwise, repeat
from math import gcd, lcm
from operator import length_hint, sub
from typing import Iterable, Iterator

from .areas import ROUTES, RouteRaised, half_pair
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

    def __init__(self, k: int, n: int, q_start: int, values: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q_start", q_start)
        object.__setattr__(self, "values", values)


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

    def __init__(self, ratios: tuple[Fraction | None, ...], differences: tuple[Fraction, ...],
                 difference_order: int, monotone_decreasing: bool,
                 distance_to_limit: Fraction | None) -> None:
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "differences", differences)
        object.__setattr__(self, "difference_order", difference_order)
        object.__setattr__(self, "monotone_decreasing", monotone_decreasing)
        object.__setattr__(self, "distance_to_limit", distance_to_limit)


def area_sequence(k: int, n: int, q_from: int, q_to: int) -> AreaSequence:
    """Materialize the areas for q = q_from..q_to at fixed (k, n): twice_area_sequence halved."""
    twice = twice_area_sequence(k, n, q_from, q_to)
    values = tuple(Fraction(*half_pair(t)) for t in twice)
    return AreaSequence(k=k, n=n, q_start=q_from, values=values)


def twice_area_sequence(k: int, n: int, q_from: int, q_to: int) -> Iterator[int]:
    """Twice the area at q = q_from..q_to, exact ints from ROUTES["general"], computed as read.

    The range is refused, if at all, by this call, before any route runs.  A
    raise from the route, or a value that is not an int, is raised as
    RouteRaised at the q it came from.
    """
    check_range(k, n, q_from, q_to)
    qs = iter(range(q_from, q_to + 1))
    values = map(ROUTES["general"].twice_area, qs, repeat(n), repeat(k))
    return _naming_faults("general", values, qs, q_to)


def _naming_faults(name: str, values: Iterator[int], qs: Iterator[int], q_to: int) -> Iterator[int]:
    """Yield from `values`, route `name` applied to each q of `qs`, while each is an int.

    A raise, or the first value whose type is not int, becomes RouteRaised.
    groupby passes the values on in runs of one type, in C, and `yield from`
    passes each run through this one generator, so a value costs no Python
    call (groupby adds about 17 ns to each on CPython 3.11).  `map` takes
    each q from `qs` before it calls the route, so the q of the value last
    read is the last one taken: q_to less the number still to come.
    """
    try:
        for kind, run in groupby(values, type):
            if kind is not int:  # as `area` fails it: a float, a Fraction or a bool
                break
            yield from run
        else:
            return
    except Exception as exc:  # any raise is the route's fault, as in cross_check
        q = q_to - length_hint(qs)
        raise RouteRaised(f"route {name!r} raised {type(exc).__name__}: {exc} at q = {q}") from exc
    q = q_to - length_hint(qs)
    raise RouteRaised(f"route {name!r} returned {kind.__name__}, not an int at q = {q}")


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


def ratio_pairs(values: Iterable[int]) -> Iterator[tuple[int, int] | None]:
    """Consecutive ratios b / a of integers on one denominator, which cancels, by _ratio as read."""
    return (_ratio(b, a) for a, b in pairwise(values))


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
