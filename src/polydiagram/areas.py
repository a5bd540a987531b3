"""Exact diagram areas by four independent routes, cross-checked.

Two formula routes (the per-slab trapezoid sum, and its closed form for the
degree-2 family) and two geometric oracles (the shoelace sum over the vertex
cycle, and lattice-point counting through Pick's relation A = I + B/2 - 1)
must all produce the same rational.  Every function returns a Fraction in
lowest terms; for a lattice polygon the reduced denominator is always 1 or 2.
Every route costs O(k) big-integer operations; none grows with the polygon's
x-extent q^(n+k).

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

from .core import PolynomialDiagram, SpecialPolynomial, build_diagram

__all__ = [
    "AreaCrossCheck",
    "area_closed_form_k2",
    "trapezoid_area",
    "triangle_area",
    "area_general",
    "area_shoelace",
    "boundary_lattice_count",
    "interior_lattice_count",
    "area_pick",
    "cross_check",
]

@dataclass(frozen=True)
class AreaCrossCheck:
    """Areas from every applicable route; agree is exact equality of all present."""

    closed_form: Fraction | None
    general_formula: Fraction
    shoelace: Fraction
    pick: Fraction | None
    agree: bool


def area_closed_form_k2(q: int, n: int) -> Fraction:
    """Closed-form area q^n * (q+3) * (q-1) / 2 for the degree-2 family."""
    SpecialPolynomial(q, n, 2)  # reuse the parameter validation
    return Fraction(q**n * (q + 3) * (q - 1), 2)


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
    triangle remains.  Equals area_closed_form_k2 exactly when k = 2, and 0
    when q = 1.
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


def cross_check(p: SpecialPolynomial) -> AreaCrossCheck:
    """Compute the area by every applicable route and compare exactly.

    The slab formula and the shoelace oracle always run; the closed form
    joins when k = 2, and the Pick oracle joins whenever the diagram is
    non-degenerate (q >= 2).  Disagreement is reported in the record, never
    raised.
    """
    d = build_diagram(p)
    general = area_general(p)
    lace = area_shoelace(d)
    closed = area_closed_form_k2(p.q, p.n) if p.k == 2 else None
    pick = None if d.degenerate else area_pick(d)
    present = [v for v in (closed, general, lace, pick) if v is not None]
    agree = all(v == present[0] for v in present)
    return AreaCrossCheck(
        closed_form=closed,
        general_formula=general,
        shoelace=lace,
        pick=pick,
        agree=agree,
    )
