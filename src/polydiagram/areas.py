"""Exact diagram areas by four independent routes, cross-checked.

Two formula routes (the per-slab trapezoid sum, and the closed form it
telescopes to) and two geometric oracles (the shoelace sum over the vertex
cycle, and lattice-point counting through Pick's relation A = I + B/2 - 1)
must all give the same twice-area 2A = 2I + B - 2, an exact int.  ROUTES
holds each route's own function, once, in the order documents list them:
the formula routes read (q, n, k) and the oracles one walk of the cycle.
route_failure is the one rule for what a route gave: None for an int, else
the failure text, `raised <Type>: <text>` or `returned <type>, not an int`.
cross_check is the one place that runs the routes: AreaCrossCheck keeps
the ints and each failure text, and agrees only when no route failed and
every int is the same.  route_area, which each public area function runs, reads its
one route from cross_check and halves the int to a Fraction, or raises
RouteRaised, a ValueError, with `route '<route>' <text>`, the text `area`
writes after `error: `.
The closed form costs O(1) big-integer operations and every other route O(k)
of them: the slab sum joins k slab weights by binary splitting, and the
shoelace sum and the lattice counts share one running sum of the chain x,
one addition per vertex, to which the shoelace sum adds one subtraction and
one product by a small factor wherever its coefficient changes, and the
lattice counts two gcds (comparisons aside).  None grows with the polygon's
x-extent q^(n+k), and none uses the fact that consecutive chain x differ by
a factor of q.  The walk (_walk_cycle) reads the cycle as a stream and
keeps that one sum of x for both oracles: it walks the cycle once,
forward, holding O(1) vertices, and takes the closing edge from the first
vertices it kept, so memory stays flat in k when the cycle is regenerated
(as build_diagram's is) rather than stored.  It is the one place that
refuses a cycle of fewer than 3 vertices, for both oracles.  cross_check
takes it once per diagram for both oracles, and records a walk that raises
as a failure of each.
Each Route states the least q it applies to (Pick's is 2, as a q = 1
diagram has no interior): by default cross_check compares that int and
skips the route, and route_refusal forms the text that lattice_counts and
cross_check, for a route named to it (as route_area names one), raise from
it.

Each O(k) route evaluates an exact identity:

- the slab sum factors (q-1) q^n out of every slab and sums the remaining
  weighted sum of q^m by binary splitting, W(lo, hi) = W(lo, mid) +
  q^(mid-lo) W(mid, hi), with Horner's rule over runs of at most
  _SLAB_LEAF slabs, so its big-integer products are balanced instead of
  k products by q of an ever longer number;
- the shoelace sum takes its vertex form, sum of x_i (y_{i+1} - y_{i-1}),
  which holds for any lattice cycle, and by distributivity multiplies each
  run of equal coefficients once, by the run's sum of x: the running sum of
  x less its value where the run began;
- the interior count sums the per-edge counts by parts, which needs every
  chain edge to descend exactly one unit (the walk checks each edge, and a
  failed check is Pick's alone: it never changes the shoelace sum);
- the boundary count, in the same walk, takes gcd(1, |dx|) = 1 for each
  checked chain edge, so the chain costs no big-integer operation at all;
  only the anchor edge and the closing edge cost an x difference and a gcd.

The slab decomposition cuts the region under the monomial chain into k-1
rectangular trapezoids plus one right triangle at the far end.  Slab m
(0 <= m <= k-2) spans x = q^(n+m)..q^(n+m+1) with parallel vertical sides of
heights k-m and k-m-1, hence area (q^(n+m+1) - q^(n+m)) * (2k-2m-1) / 2.
The triangle (m = k-1) fits the same expression, so the general route sums
the integer numerators for m = 0..k-1, and route_area halves the sum once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .core import PolynomialDiagram, Record, SpecialPolynomial, build_diagram
from .formats import int_text

__all__ = [
    "ROUTES",
    "Route",
    "AreaCrossCheck",
    "area_closed_form",
    "area_general",
    "area_shoelace",
    "lattice_counts",
    "area_pick",
    "route_refusal",
    "route_failure",
    "route_area",
    "RouteRaised",
    "cross_check",
]

class AreaCrossCheck(Record, defaults={"failed": dict}):
    """Twice the area, an int, by every route that applies, keyed by name in ROUTES order.

    A route that failed has no twice-area; `failed` holds route_failure's
    text under its name, "raised ZeroDivisionError: division by zero" or
    "returned float, not an int".  `failed` defaults to a new empty dict.
    Unhashable, as it holds dicts.
    """

    __slots__ = __match_args__ = ("twice_areas", "failed")
    twice_areas: dict[str, int]
    failed: dict[str, str]

    @property
    def areas(self) -> dict[str, Fraction]:
        """Each route's area: its twice-area halved."""
        return {name: Fraction(twice, 2) for name, twice in self.twice_areas.items()}

    @property
    def agree(self) -> bool:
        """No route failed, and the twice-areas hold one distinct value."""
        return not self.failed and len(set(self.twice_areas.values())) <= 1


def area_closed_form(p: SpecialPolynomial) -> Fraction:
    """Closed-form area q^n * (q^k - (2k-1) + 2(q^k - q)/(q-1)) / 2; 0 when q = 1.

    The slab sum telescopes: summing (q^(m+1) - q^m) * (2k-2m-1) by parts over
    m = 0..k-1 leaves q^k - (2k-1) + 2(q + q^2 + ... + q^(k-1)), and the
    geometric sum is (q^k - q)/(q-1).  At k = 2 this is q^n (q+3)(q-1) / 2.
    Runs ROUTES["closed"].
    """
    return route_area("closed", p)


def _closed_form(q: int, n: int, k: int) -> int:
    """The closed route: twice area_closed_form on plain ints, which the caller has validated."""
    if q == 1:
        return 0
    qk = q**k
    return q**n * (qk - (2 * k - 1) + 2 * ((qk - q) // (q - 1)))


def area_general(p: SpecialPolynomial) -> Fraction:
    """Total diagram area: sum of the k-1 trapezoid slabs plus the triangle.

    Slab m has twice-area (q-1) q^n * q^m (2k-2m-1), so the sum is
    (q-1) q^n * W with W = sum of (2k-2m-1) q^m over m = 0..k-1; m = k-1 is
    the triangle, and for k = 1 only the triangle remains.  W is summed by
    binary splitting (see _slab_weights), so the cost is that of a few
    big-integer products of the result's size, not k of them.  Equals
    area_closed_form exactly, and 0 when q = 1.  Runs ROUTES["general"],
    which is _slab_sum.
    """
    return route_area("general", p)


# Runs of at most this many slabs are summed by Horner's rule; at k <= _SLAB_LEAF
# that is the whole sum, and longer runs are split in two.
_SLAB_LEAF = 64


def _slab_sum(q: int, n: int, k: int) -> int:
    """The general route: twice area_general's slab sum on plain, validated ints."""
    weights, _ = _slab_weights(q, k, 0, k, power=False)
    return (q - 1) * q**n * weights


def _slab_weights(q: int, k: int, lo: int, hi: int, power: bool) -> tuple[int, int]:
    """(sum of (2k-2m-1) q^(m-lo) over lo <= m < hi, q^(hi-lo) if `power` else 1).

    A run of at most _SLAB_LEAF slabs adds its weights by Horner's rule from
    slab hi-1 leftwards, one product by q and one small addition per slab.
    A longer run splits at its midpoint: W(lo, hi) = W(lo, mid) +
    q^(mid-lo) W(mid, hi), where the left half returns its power of q with
    its sum.  The power of the rightmost run is never needed, so it is only
    formed when asked for.
    """
    if hi - lo <= _SLAB_LEAF:
        weights = 0  # accumulated from slab hi-1 (weight 2k-2hi+1) leftwards
        for weight in range(2 * (k - hi) + 1, 2 * (k - lo), 2):
            weights = weights * q + weight
        return weights, q ** (hi - lo) if power else 1
    mid = (lo + hi) // 2
    low, shift = _slab_weights(q, k, lo, mid, power=True)
    high, rest = _slab_weights(q, k, mid, hi, power)
    return low + shift * high, shift * rest if power else 1


class _CycleSums(NamedTuple):
    """What one walk of a cycle of at least 3 vertices gives each diagram oracle, kept apart.

    `shoelace` is the vertex-form shoelace sum, twice the signed area;
    `interior` and `boundary` are Pick's lattice counts, and `bad_edge` the
    first chain edge that does not step right and down by one, or None.
    The shoelace sum and the interior count are both read from one running
    sum of the chain x, each weighing and correcting it in its own way; a
    fault in that sum can move both areas alike, so the formula routes,
    which never read it, are what catch it.  The counts are meaningless
    when there is a bad edge; Pick states that failure itself, so no text
    is formed here.
    """

    shoelace: int
    interior: int
    boundary: int
    bad_edge: tuple[tuple[int, int], tuple[int, int]] | None


def _walk_cycle(vertices: Iterable[tuple[int, int]]) -> _CycleSums:
    """Walk a cycle once, anchor first, for the shoelace sum and Pick's counts.

    Each vertex after the first chain vertex arrives as `after` while its
    predecessor `here` sits between `before` and `after`.  One addition
    puts here.x into `count`, the sum of x over every chain vertex but the
    last, which the interior count reads whole.  The shoelace sum keeps
    `mark`, the value of `count` where its coefficient last changed, so a
    run of equal coefficients sums to count - mark: it adds that run times
    its coefficient at each change and once at the end, exact for any
    cycle.  Pick's check reads the chain edge here -> after; a failed check
    is recorded and never stops the walk, so the shoelace sum is the same
    whatever Pick finds.  The two wrap-around shoelace terms, at the last
    vertex and at the anchor, come from the first vertices the walk kept.
    It takes the anchor and the first chain vertex with next() and loops
    over the rest of the same iterator, so its set-up is the same for every
    cycle.  A cycle of fewer than 3 vertices is no polygon for either
    oracle, so the walk raises ValueError `need at least 3 vertices, got N`
    for both; a vertex that is not a pair raises as it is unpacked.
    """
    walk = iter(vertices)
    anchor, first = next(walk, None), next(walk, None)
    if first is None:
        raise ValueError(f"need at least 3 vertices, got {0 if anchor is None else 1}")
    (anchor_x, anchor_y), (first_x, first_y) = anchor, first
    count = 0  # sum of x over every chain vertex but the last, read by both oracles
    total = mark = coefficient = 0  # shoelace; mark: count when the coefficient last changed
    bad_edge = after_x = None  # after_x stays None unless a third vertex arrives
    before_y, here_x, here_y = anchor_y, first_x, first_y
    for after_x, after_y in walk:
        if (after_x <= here_x or after_y != here_y - 1) and bad_edge is None:
            bad_edge = (here_x, here_y), (after_x, after_y)
        step = after_y - before_y
        if step != coefficient:
            total += (count - mark) * coefficient
            mark, coefficient = count, step
        count += here_x
        before_y, here_x, here_y = here_y, after_x, after_y
    if after_x is None:  # the loop never ran
        raise ValueError("need at least 3 vertices, got 2")
    last_x, last_y = here_x, here_y
    total += ((count - mark) * coefficient + last_x * (anchor_y - before_y)
              + anchor_x * (first_y - last_y))
    edges = first_y - last_y
    interior = count + last_x * last_y - first_x * first_y - edges - (last_y - 1)
    boundary = (edges + math.gcd(first_y - anchor_y, first_x - anchor_x)
                + math.gcd(anchor_y - last_y, anchor_x - last_x))
    return _CycleSums(total, interior, boundary, bad_edge)


def area_shoelace(d: PolynomialDiagram) -> Fraction:
    """Shoelace oracle: |sum of x_i * (y_{i+1} - y_{i-1})| / 2 over the cycle.

    The vertex form of the shoelace sum: it holds for every lattice cycle,
    in either orientation, and needs no property of the diagram.  Vertices
    whose coefficients y_{i+1} - y_{i-1} repeat in a row form a run: their
    x are added up and the run is multiplied by its coefficient once, which
    is exact by distributivity.  A run's sum of x is the difference of the
    walk's running sum of x, shared with the lattice counts, at its two
    ends.  So each vertex costs one addition, shared, and each change of
    coefficient one subtraction and one product by a small factor (at most
    two changes in a diagram, whose inner chain vertices all have
    coefficient -2).  The walk (see _walk_cycle) starts next to the
    anchor, so the running sum grows with the vertices' x instead of
    starting at full width.  Exact for every diagram, including degenerate
    ones (which give 0).  Runs ROUTES["shoelace"] on one walk of d's cycle.
    """
    return route_area("shoelace", d.source, d)


def _shoelace_area(walk: _CycleSums) -> int:
    """The shoelace route: twice area_shoelace from one walk of the cycle."""
    return abs(walk.shoelace)


def lattice_counts(d: PolynomialDiagram) -> tuple[int, int]:
    """Lattice points (strictly inside, on the boundary), in one walk of the cycle.

    Needs every chain edge a -> b to step right and descend exactly one unit.
    Then the chain height lies strictly between b.y and a.y on the columns
    a.x < x < b.x, each holding a.y - 1 interior points (0 < y < h), and the
    column through b holds b.y - 1; with a.y = b.y + 1 the edge's points are
    (b.x - a.x) * b.y - 1.  Summing by parts gives

        sum of x over every chain vertex but the last
          + last.x * last.y - first.x * first.y - (number of edges),

    less last.y - 1 for the column through the final vertex, which lies on
    the boundary (the anchor's column is excluded too).  Each edge costs one
    addition, and as each descends one unit there are first.y - last.y of
    them.  On the boundary each such edge holds gcd(1, |dx|) = 1 point
    besides its start, so only the anchor edge and the closing edge, taken
    from the anchor and the first chain vertex the walk keeps, cost a gcd.
    The walk is the one the shoelace sum reads (see _walk_cycle), and the
    sum of x is the one running sum both read; the shoelace sum takes
    differences of it and weighs them by coefficient, where the count adds
    it whole to its corrections.  Raises ValueError with route_refusal's
    text at q = 1, before the walk, with the walk's text for a cycle of
    fewer than 3 vertices, and for the first chain edge that does not step
    right and down by one.
    """
    _refuse(d.source, "pick")
    return _lattice_counts(_walk_cycle(d.vertices))


def _lattice_counts(walk: _CycleSums) -> tuple[int, int]:
    """lattice_counts from one walk of the cycle, once its chain edges are checked."""
    if walk.bad_edge is not None:
        a, b = (f"({int_text(x)}, {int_text(y)})" for x, y in walk.bad_edge)
        raise ValueError(f"chain edge {a} -> {b} does not step right and down by one")
    return walk.interior, walk.boundary


def area_pick(d: PolynomialDiagram) -> Fraction:
    """Pick's I + B/2 - 1 by route_area("pick", d.source, d).

    Refused at q = 1 as lattice_counts is; any text lattice_counts raises
    after that comes as RouteRaised, `route 'pick' raised ValueError: <text>`.
    """
    return route_area("pick", d.source, d)


def _pick_area(walk: _CycleSums) -> int:
    """The Pick route: 2I + B - 2, twice Pick's I + B/2 - 1, over the counts of one walk."""
    interior, boundary = _lattice_counts(walk)
    return 2 * interior + boundary - 2


class Route(NamedTuple):
    """An area route: whether it reads the diagram, its twice-area function, and its least q.

    `twice_area` gives 2A, an int, from a validated polynomial's ints (q, n, k) or,
    when `reads_diagram`, one walk of its diagram's cycle (from cross_check).
    The route applies to every q >= `least_q`.
    """

    reads_diagram: bool
    twice_area: Callable[..., int]
    least_q: int = 1


# Every route, in the order documents list them.  Pick needs q >= 2: a q = 1
# diagram has no interior.
ROUTES: dict[str, Route] = {
    "closed": Route(False, _closed_form),
    "general": Route(False, _slab_sum),
    "shoelace": Route(True, _shoelace_area),
    "pick": Route(True, _pick_area, 2),
}


def route_refusal(name: str, p: SpecialPolynomial) -> str | None:
    """Why route `name` does not apply to p, or None when it does.

    A route applies from its Route.least_q on; only Pick's is above 1, as a
    q = 1 diagram has no interior.  lattice_counts and cross_check, for a
    route it is given by name (and so route_area), raise this text; by
    default cross_check compares Route.least_q itself and skips the route.
    """
    least_q = ROUTES[name].least_q
    if p.q < least_q:
        return (f"route {name!r} needs q >= {least_q} (a q = 1 diagram has no interior), "
                f"got q = {p.q}")
    return None


def _refuse(p: SpecialPolynomial, *names: str) -> None:
    """Raise, as ValueError, route_refusal's text for the first route of `names` refusing p."""
    for refusal in filter(None, (route_refusal(name, p) for name in names)):
        raise ValueError(refusal)


def route_failure(given: object, raised: bool = False) -> str | None:
    """None when a route gave an int, else its failure text; `raised` when it raised `given`.

    The text is "raised <Type>: <text>" for a raise, and "returned <type>, not
    an int" for any value that is not an int: a bool, a float equal to the
    exact value, or an exception object the route returned.  Each caller adds
    the route's name, and q or the point where it has them.
    """
    if raised:
        return f"raised {type(given).__name__}: {given}"
    return None if type(given) is int else f"returned {type(given).__name__}, not an int"


class RouteRaised(ValueError):
    """A route failed: `route '<route>' <route_failure's text>`, and ` at q = <q>` in a sequence."""


def route_area(name: str, p: SpecialPolynomial, d: PolynomialDiagram | None = None) -> Fraction:
    """Area of p by route `name` alone: cross_check's twice-area for it, halved.

    cross_check refuses a route that does not apply before any work; a route
    that raises or gives a non-int raises RouteRaised with its name and
    route_failure's text.  `d` is p's diagram when the caller has built it,
    else built for a route that reads one.
    """
    check = cross_check(p, d, (name,))
    if name in check.failed:
        raise RouteRaised(f"route {name!r} {check.failed[name]}")
    return check.areas[name]


def half_pair(twice: int) -> tuple[int, int]:
    """Fraction(twice, 2) as the (num, den) pair of a document cell, in lowest terms, for an int."""
    return (twice, 2) if twice & 1 else (twice >> 1, 1)


def cross_check(p: SpecialPolynomial, d: PolynomialDiagram | None = None,
                names: Iterable[str] | None = None) -> AreaCrossCheck:
    """Compute twice the area by every route that applies, as exact ints, and compare them.

    By default every route of ROUTES that applies to p (its least_q at most
    p.q) runs, in order, and the others are skipped.  `names` are the routes
    to run instead, in order; if one of them does not apply, route_refusal's
    text is raised as ValueError before any route runs.  Each route that
    runs branches once on its Route.reads_diagram: a formula route is
    called on p's ints, and a diagram route on the one walk of the cycle
    of `d` (p's diagram when the caller has already built it), which the
    first diagram route to run takes and the other reuses, so no walk is
    taken when none runs.  Disagreement is reported in the record, never
    raised, and so is a route that raises or gives a non-int: it is a
    fault of that route, kept in `failed` as route_failure's text, which
    is read once per route run.  A walk that raises (a cycle of fewer than
    3 vertices, or a vertex that is not a pair) is the fault of every
    diagram route: each re-raises what the walk raised, and fails with
    its text.
    """
    twice_areas: dict[str, int] = {}
    failed: dict[str, str] = {}
    walk: _CycleSums | Exception | None = None  # the one walk, or what it raised
    q, n, k = p.q, p.n, p.k
    if names is not None:  # a named route that does not apply is refused before any route runs
        names = tuple(names)
        _refuse(p, *names)
    for name in ROUTES if names is None else names:
        reads_diagram, twice_area, least_q = ROUTES[name]
        if q < least_q:  # only by default: a route that does not apply is skipped
            continue
        try:
            if not reads_diagram:
                twice = twice_area(q, n, k)
            else:
                if walk is None:  # the first diagram route to run takes the one walk
                    try:
                        walk = _walk_cycle((build_diagram(p) if d is None else d).vertices)
                    except Exception as exc:  # what the walk raised fails each diagram route
                        walk = exc
                if isinstance(walk, Exception):
                    raise walk
                twice = twice_area(walk)
            failure = route_failure(twice)
        except Exception as exc:  # any raise is a failed route, reported like a disagreement
            failure = route_failure(exc, raised=True)
        if failure is None:
            twice_areas[name] = twice
        else:
            failed[name] = failure
    return AreaCrossCheck(twice_areas, failed)
