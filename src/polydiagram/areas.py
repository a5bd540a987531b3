"""Exact diagram areas by four independent routes, cross-checked.

Two formula routes (the per-slab trapezoid sum, and the closed form it
telescopes to) and two geometric oracles (the shoelace sum over the vertex
cycle, and lattice-point counting through Pick's relation A = I + B/2 - 1)
must all produce the same rational.  ROUTES names them, once, in the order
documents list them, and states whether each reads the diagram or only its
polynomial.  Every function returns a Fraction in lowest terms; for a
lattice polygon the reduced denominator is always 1 or 2.  The closed form
costs O(1) big-integer operations and every other route O(k): the slab sum
does two per slab (a product by q and a small addition), and the shoelace
sum and the lattice counts at most one addition per vertex, plus, in the
shoelace sum, one product by a small factor wherever its coefficient
changes, and in the lattice counts two gcds (comparisons aside).  None
grows with the polygon's x-extent q^(n+k), and none uses the fact that
consecutive chain x differ by a factor of q.  The diagram routes read the
vertex cycle as a stream: each walks it once, forward, holding O(1)
vertices, and takes the closing edge from the first vertices it kept, so
their memory stays flat in k when the cycle is regenerated (as
build_diagram's is) rather than stored.

Each O(k) route evaluates an exact identity:

- the slab sum factors (q-1) q^n out of every slab and evaluates the
  remaining weighted sum of q^m by Horner's rule;
- the shoelace sum takes its vertex form, sum of x_i (y_{i+1} - y_{i-1}),
  which holds for any lattice cycle, and by distributivity adds the x of
  each run of equal coefficients before multiplying the run once;
- the interior count sums the per-edge counts by parts, which needs every
  chain edge to descend exactly one unit (it checks each edge);
- the boundary count, in the same walk, takes gcd(1, |dx|) = 1 for each
  checked chain edge, so the chain costs no big-integer operation at all;
  only the anchor edge and the closing edge cost an x difference and a gcd.

The slab decomposition cuts the region under the monomial chain into k-1
rectangular trapezoids plus one right triangle at the far end.  Slab m
(0 <= m <= k-2) spans x = q^(n+m)..q^(n+m+1) with parallel vertical sides of
heights k-m and k-m-1, hence area (q^(n+m+1) - q^(n+m)) * (2k-2m-1) / 2.
The triangle (m = k-1) fits the same expression, so area_general sums the
integer numerators for m = 0..k-1 and halves once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, NamedTuple

from .core import PolynomialDiagram, SpecialPolynomial, build_diagram

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
    "route_area",
    "cross_check",
]

@dataclass(frozen=True)
class AreaCrossCheck:
    """Area by every route that applies, keyed by route name in ROUTES order."""

    areas: dict[str, Fraction]

    @property
    def agree(self) -> bool:
        """Exact equality of every area present."""
        return len(set(self.areas.values())) <= 1


def area_closed_form(p: SpecialPolynomial) -> Fraction:
    """Closed-form area q^n * (q^k - (2k-1) + 2(q^k - q)/(q-1)) / 2; 0 when q = 1.

    The slab sum telescopes: summing (q^(m+1) - q^m) * (2k-2m-1) by parts over
    m = 0..k-1 leaves q^k - (2k-1) + 2(q + q^2 + ... + q^(k-1)), and the
    geometric sum is (q^k - q)/(q-1).  At k = 2 this is q^n (q+3)(q-1) / 2.
    """
    if p.degenerate:
        return Fraction(0)
    q, k = p.q, p.k
    qk = q**k
    return Fraction(q**p.n * (qk - (2 * k - 1) + 2 * ((qk - q) // (q - 1))), 2)


def area_general(p: SpecialPolynomial) -> Fraction:
    """Total diagram area: sum of the k-1 trapezoid slabs plus the triangle.

    Slab m has twice-area (q-1) q^n * q^m (2k-2m-1), so the sum is
    (q-1) q^n * W with W = sum of (2k-2m-1) q^m over m = 0..k-1; m = k-1 is
    the triangle, and for k = 1 only the triangle remains.  Horner's rule
    from m = k-1 down adds each slab's weight in turn, one multiplication by
    q and one small addition per slab.  Equals area_closed_form exactly, and
    0 when q = 1.
    """
    return _slab_sum(p.q, p.n, p.k)


def _slab_sum(q: int, n: int, k: int) -> Fraction:
    """area_general's slab sum on plain ints, which the caller has validated."""
    weights = 0  # W, accumulated from the triangle (weight 1) leftwards
    for weight in range(1, 2 * k, 2):
        weights = weights * q + weight
    return Fraction((q - 1) * q**n * weights, 2)


def area_shoelace(d: PolynomialDiagram) -> Fraction:
    """Shoelace oracle: |sum of x_i * (y_{i+1} - y_{i-1})| / 2 over the cycle.

    The vertex form of the shoelace sum: it holds for every lattice cycle,
    in either orientation, and needs no property of the diagram.  Vertices
    whose coefficients y_{i+1} - y_{i-1} repeat in a row form a run: their
    x are added up and the run is multiplied by its coefficient once, which
    is exact by distributivity.  So each vertex costs one addition, and
    each change of coefficient one product by a small factor (at most k in
    a diagram, whose inner chain vertices all have coefficient -2).  One
    walk of the cycle visits the vertices from the second to the last, each
    between its neighbours, then the first, whose neighbours are the last
    and the second: the walk keeps the first two vertices for that.  It
    starts next to the anchor, so the running sums grow with the vertices'
    x instead of starting at full width.  Exact for every diagram,
    including degenerate ones (which give 0).
    """
    walk = iter(d.vertices)
    head = list(islice(walk, 3))
    if len(head) < 3:
        raise ValueError(f"need at least 3 vertices, got {len(head)}")
    total = run = coefficient = 0  # run: sum of x since the coefficient last changed
    (_, before_y), (here_x, here_y) = head[:2]
    for after_x, after_y in chain(head[2:], walk, head[:2]):
        step = after_y - before_y
        if step == coefficient:
            run += here_x
        else:
            total += run * coefficient
            run, coefficient = here_x, step
        before_y, here_x, here_y = here_y, after_x, after_y
    return Fraction(abs(total + run * coefficient), 2)


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
    Raises ValueError for degenerate diagrams and for any chain edge that
    does not step right and down by one.
    """
    if d.degenerate:
        raise ValueError("degenerate diagram (q = 1) has no interior")
    walk = iter(d.vertices)
    head = list(islice(walk, 2))
    if len(head) < 2:
        raise ValueError("need a chain vertex after the anchor")
    (anchor_x, anchor_y), (first_x, first_y) = head
    last_x, last_y = first_x, first_y
    count = 0
    for x, y in walk:
        if x <= last_x or y != last_y - 1:
            raise ValueError(
                f"chain edge {(last_x, last_y)} -> {(x, y)} does not step right and down by one"
            )
        count += last_x
        last_x, last_y = x, y
    edges = first_y - last_y
    interior = count + last_x * last_y - first_x * first_y - edges - (last_y - 1)
    boundary = (edges + math.gcd(first_y - anchor_y, first_x - anchor_x)
                + math.gcd(anchor_y - last_y, anchor_x - last_x))
    return interior, boundary


def area_pick(d: PolynomialDiagram) -> Fraction:
    """Lattice-point oracle: area = interior + boundary/2 - 1."""
    interior, boundary = lattice_counts(d)
    return Fraction(2 * interior + boundary - 2, 2)


class Route(NamedTuple):
    """An area route: whether it reads the diagram, and its area function.

    `area` takes the PolynomialDiagram when `reads_diagram`, else only the
    SpecialPolynomial; route_area passes it the one it reads.
    """

    reads_diagram: bool
    area: Callable[..., Fraction]


# Every route, in the order documents list them.  Each function is looked up
# by name when the route runs, so a rebound module attribute (a test's
# patch, a tracer's wrapper) is what runs.
ROUTES: dict[str, Route] = {
    "closed": Route(False, lambda p: area_closed_form(p)),
    "general": Route(False, lambda p: area_general(p)),
    "shoelace": Route(True, lambda d: area_shoelace(d)),
    "pick": Route(True, lambda d: area_pick(d)),
}


def route_refusal(name: str, p: SpecialPolynomial) -> str | None:
    """Why route `name` does not apply to p, or None when it does.

    Every route applies except Pick, which needs q >= 2: a degenerate
    diagram has no interior.
    """
    if name == "pick" and p.q < 2:
        return f"route 'pick' needs q >= 2 (a q = 1 diagram has no interior), got q = {p.q}"
    return None


def route_area(name: str, p: SpecialPolynomial, d: PolynomialDiagram | None = None) -> Fraction:
    """Area of p by route `name`.

    `d` is p's diagram when the caller has already built it; otherwise it
    is built only for a route that reads one.
    """
    route = ROUTES[name]
    if not route.reads_diagram:
        return route.area(p)
    return route.area(build_diagram(p) if d is None else d)


def cross_check(p: SpecialPolynomial, d: PolynomialDiagram | None = None) -> AreaCrossCheck:
    """Compute the area by every route that applies and compare exactly.

    `d` is p's diagram when the caller has already built it.  Disagreement
    is reported in the record, never raised.
    """
    d = build_diagram(p) if d is None else d
    return AreaCrossCheck(
        {name: route_area(name, p, d) for name in ROUTES if route_refusal(name, p) is None}
    )
