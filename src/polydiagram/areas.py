"""Exact diagram areas by four independent routes, cross-checked.

Two formula routes (the per-slab trapezoid sum, and the closed form it
telescopes to) and two geometric oracles (the shoelace sum over the vertex
cycle, and lattice-point counting through Pick's relation A = I + B/2 - 1)
must all produce the same rational.  ROUTES names them, once, in the order
documents list them.  Every function returns a Fraction in lowest terms; for
a lattice polygon the reduced denominator is always 1 or 2.  The closed form
costs O(1) big-integer operations and every other route O(k); none grows
with the polygon's x-extent q^(n+k).

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
from typing import Callable

from .core import PolynomialDiagram, SpecialPolynomial, build_diagram

__all__ = [
    "ROUTES",
    "AreaCrossCheck",
    "area_closed_form",
    "trapezoid_area",
    "triangle_area",
    "area_general",
    "area_shoelace",
    "boundary_lattice_count",
    "interior_lattice_count",
    "area_pick",
    "route_refusal",
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


def trapezoid_area(p: SpecialPolynomial, m: int) -> Fraction:
    """Area of slab m of the decomposition, (q^(n+m+1) - q^(n+m)) * (2k-2m-1) / 2.

    Valid for 0 <= m <= k-2; the final slab (m = k-1) is the right triangle,
    not a trapezoid.
    """
    if not 0 <= m <= p.k - 2:
        raise ValueError(f"m must be in 0..k-2 = 0..{p.k - 2}, got {m}")
    width = p.q ** (p.n + m + 1) - p.q ** (p.n + m)
    return Fraction(width * (2 * p.k - 2 * m - 1), 2)


def triangle_area(p: SpecialPolynomial) -> Fraction:
    """Area of the rightmost right triangle, (q^(n+k) - q^(n+k-1)) / 2."""
    return Fraction(p.q ** (p.n + p.k) - p.q ** (p.n + p.k - 1), 2)


def area_general(p: SpecialPolynomial) -> Fraction:
    """Total diagram area: sum of the k-1 trapezoid slabs plus the triangle.

    Adds the integer twice-areas (q^(n+m+1) - q^(n+m)) * (2k-2m-1) for
    m = 0..k-1, stepping the power of q by one multiplication per slab, and
    halves the total once; m = k-1 is the triangle.  For k = 1 only the
    triangle remains.  Equals area_closed_form exactly, and 0 when q = 1.
    """
    power = p.q**p.n  # q^(n+m)
    twice = 0
    for m in range(p.k):
        step = power * p.q
        twice += (step - power) * (2 * (p.k - m) - 1)
        power = step
    return Fraction(twice, 2)


def area_shoelace(d: PolynomialDiagram) -> Fraction:
    """Shoelace oracle: |sum of x_i*y_{i+1} - x_{i+1}*y_i| / 2 over the cycle.

    Exact for every diagram, including degenerate ones (which give 0).
    """
    pts = d.vertices
    if len(pts) < 3:
        raise ValueError(f"need at least 3 vertices, got {len(pts)}")
    total = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        total += x0 * y1 - x1 * y0
    return Fraction(abs(total), 2)


def boundary_lattice_count(d: PolynomialDiagram) -> int:
    """Lattice points on the boundary: gcd(|dx|, |dy|) summed over the edges."""
    pts = d.vertices
    m = len(pts)
    return sum(
        math.gcd(abs(pts[(i + 1) % m].x - pts[i].x), abs(pts[(i + 1) % m].y - pts[i].y))
        for i in range(m)
    )


def interior_lattice_count(d: PolynomialDiagram) -> int:
    """Lattice points strictly inside, counted in closed form per chain edge.

    Every chain edge a -> b steps right and descends exactly one unit, so the
    chain height h(x) lies strictly between b.y and a.y on the columns
    a.x < x < b.x, each of which holds a.y - 1 interior points (0 < y < h),
    and the column through b holds b.y - 1.  The column through the final
    vertex lies on the boundary and is excluded, as is the anchor's column.
    Raises ValueError for degenerate diagrams and for any chain edge that
    does not step right and down by one.
    """
    if d.degenerate:
        raise ValueError("degenerate diagram (q = 1) has no interior")
    chain = d.vertices[1:]
    count = 0
    for a, b in zip(chain, chain[1:]):
        if b.x <= a.x or b.y != a.y - 1:
            raise ValueError(
                f"chain edge {tuple(a)} -> {tuple(b)} does not step right and down by one"
            )
        count += (b.x - a.x - 1) * (a.y - 1) + (b.y - 1)
    return count - (chain[-1].y - 1)  # drop the final vertex column


def area_pick(d: PolynomialDiagram) -> Fraction:
    """Lattice-point oracle: area = interior + boundary/2 - 1."""
    interior = interior_lattice_count(d)
    boundary = boundary_lattice_count(d)
    return Fraction(2 * interior + boundary - 2, 2)


# Every route maps a diagram to its area; documents list them in this order.
ROUTES: dict[str, Callable[[PolynomialDiagram], Fraction]] = {
    "closed": lambda d: area_closed_form(d.source),
    "general": lambda d: area_general(d.source),
    "shoelace": area_shoelace,
    "pick": area_pick,
}


def route_refusal(name: str, p: SpecialPolynomial) -> str | None:
    """Why route `name` does not apply to p, or None when it does.

    Every route applies except Pick, which needs q >= 2: a degenerate
    diagram has no interior.
    """
    if name == "pick" and p.q < 2:
        return f"route 'pick' needs q >= 2 (a q = 1 diagram has no interior), got q = {p.q}"
    return None


def cross_check(p: SpecialPolynomial, d: PolynomialDiagram | None = None) -> AreaCrossCheck:
    """Compute the area by every route that applies and compare exactly.

    `d` is p's diagram when the caller has already built it.  Disagreement
    is reported in the record, never raised.
    """
    d = build_diagram(p) if d is None else d
    return AreaCrossCheck(
        {name: route(d) for name, route in ROUTES.items() if route_refusal(name, p) is None}
    )
