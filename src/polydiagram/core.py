"""Geometric-coefficient polynomials and their lattice-polygon diagrams.

A parameter triple (q, n, k) fixes the degree-k polynomial whose coefficient
on x^(k-i) is q^(n+i), for i = 0..k.  Mapping each monomial to the lattice
point (coefficient, exponent) gives a descending chain from (q^n, k) to
(q^(n+k), 0); prepending the anchor (q^n, 0) and closing the cycle along the
x-axis yields the polynomial diagram, a simple polygon whenever q >= 2.

Everything here is exact integer arithmetic: slope and turn tests use
cross-multiplied comparisons, never division, so no rounding can occur even
when coordinates reach q^(n+k).  Building and validating a diagram costs
O(k) big-integer operations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from typing import NamedTuple

__all__ = [
    "LatticePoint",
    "SpecialPolynomial",
    "PolynomialDiagram",
    "DiagramDiagnostics",
    "build_polynomial",
    "evaluate_polynomial",
    "monomial_map",
    "build_diagram",
    "validate_diagram",
]


class LatticePoint(NamedTuple):
    """Integer lattice point; compares equal to a plain (x, y) tuple."""

    x: int
    y: int


@dataclass(frozen=True)
class SpecialPolynomial:
    """Parameter triple for the polynomial sum of q^(n+i) * x^(k-i), i = 0..k.

    q >= 1 is the coefficient base, n >= 0 shifts every power of q, and
    k >= 1 is the degree.  Coefficients grow like q^(n+k), so everything
    downstream stays in Python's arbitrary-precision integers.
    """

    q: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if not (type(self.q) is type(self.n) is type(self.k) is int):
            for name in ("q", "n", "k"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer (the degree), got {self.k}")

    @property
    def degenerate(self) -> bool:
        """True when q == 1: every mapped point shares x = 1."""
        return self.q == 1


@dataclass(frozen=True)
class PolynomialDiagram:
    """Closed vertex cycle of the diagram polygon, anchor first.

    vertices[0] is the anchor (q^n, 0); vertices[1:] are the monomial points
    in decreasing-exponent order, ending at (q^(n+k), 0).  The closing edge
    back to the anchor runs along the x-axis.  The vertex order is clockwise,
    so area routines take absolute values.
    """

    vertices: tuple[LatticePoint, ...]
    source: SpecialPolynomial
    degenerate: bool


@dataclass(frozen=True)
class DiagramDiagnostics:
    """Exact structural findings for a diagram; reported, never raised."""

    vertex_count: int
    degenerate: bool
    simple: bool
    chain_slopes_increasing: bool
    convex: bool


def build_polynomial(q: int, n: int, k: int) -> SpecialPolynomial:
    """Validate and return the parameter triple.

    Rejects q = 0 (the base must be positive), negative n, and k = 0 (the
    diagram would collapse to a point), naming the offending parameter.
    q = 1 is accepted; its diagram is degenerate with area 0.
    """
    return SpecialPolynomial(q, n, k)


def evaluate_polynomial(p: SpecialPolynomial, x: int) -> int:
    """Evaluate the polynomial at an integer x, exactly."""
    return sum(p.q ** (p.n + i) * x ** (p.k - i) for i in range(p.k + 1))


def monomial_map(p: SpecialPolynomial) -> list[LatticePoint]:
    """Map each monomial q^(n+i) * x^(k-i) to the point (q^(n+i), k-i).

    Returns the k+1 points in increasing i, from (q^n, k) down to
    (q^(n+k), 0); consecutive x-coordinates differ by a factor of exactly q,
    so each is one multiplication from the last.  The multiplications run
    in `itertools.accumulate` and each point is made by `tuple.__new__`,
    which is what the LatticePoint constructor calls, so the loop runs no
    bytecode per vertex: the cost is the k products, one per vertex.
    """
    xs = accumulate(repeat(p.q, p.k), operator.mul, initial=p.q**p.n)
    return list(map(partial(tuple.__new__, LatticePoint), zip(xs, range(p.k, -1, -1))))


def build_diagram(p: SpecialPolynomial) -> PolynomialDiagram:
    """Prepend the anchor (q^n, 0) to the monomial points, giving k+2 vertices."""
    anchor = LatticePoint(p.q**p.n, 0)
    return PolynomialDiagram(
        vertices=(anchor, *monomial_map(p)),
        source=p,
        degenerate=p.degenerate,
    )


def validate_diagram(d: PolynomialDiagram) -> DiagramDiagnostics:
    """Run the exact structural checks and report the findings.

    For q >= 2 the diagram is expected to be simple with strictly increasing
    chain slopes, and convex exactly when k == 1.  Simplicity is judged by
    the diagram's shape (see _is_simple), so every check is O(k).
    Degenerate (q == 1) diagrams collapse onto one vertical segment with
    overlapping edges, so they report simple=False and convex=False.
    """
    if d.degenerate:
        return DiagramDiagnostics(
            vertex_count=len(d.vertices),
            degenerate=True,
            simple=False,
            chain_slopes_increasing=False,
            convex=False,
        )
    return DiagramDiagnostics(
        vertex_count=len(d.vertices),
        degenerate=False,
        simple=_is_simple(d.vertices),
        chain_slopes_increasing=_chain_slopes_increasing(d.vertices),
        convex=_is_convex(d.vertices),
    )


def _orientation(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (cross > 0) - (cross < 0)


def _is_simple(vertices: tuple[LatticePoint, ...]) -> bool:
    """True for a diagram-shaped cycle, which is simple; False for any other.

    The cycle is anchor first, then the chain.  It has the diagram's shape
    when the first chain vertex lies directly above the anchor, chain x
    strictly increases, every chain vertex but the last lies strictly above
    the anchor's row, and the last lies on that row.  Such a cycle is
    simple: the chain is an x-monotone path whose non-adjacent edges span
    disjoint x-ranges, and only its end edges reach the anchor's column and
    row.  Every other cycle is reported not simple, even one that is simple
    in another shape.  O(k) comparisons.
    """
    if len(vertices) < 3:
        return False
    anchor, chain = vertices[0], vertices[1:]
    return (
        chain[0].x == anchor.x
        and all(a.x < b.x for a, b in zip(chain, chain[1:]))
        and all(v.y > anchor.y for v in chain[:-1])
        and chain[-1].y == anchor.y
    )


def _chain_slopes_increasing(vertices: tuple[LatticePoint, ...]) -> bool:
    """Strict slope increase along the monomial chain, by cross-multiplication.

    Chain edges all have dx > 0 for q >= 2, so dy1/dx1 < dy2/dx2 is
    equivalent to dy1*dx2 < dy2*dx1.
    """
    chain = vertices[1:]
    for a, b, c in zip(chain, chain[1:], chain[2:]):
        dx1, dy1 = b.x - a.x, b.y - a.y
        dx2, dy2 = c.x - b.x, c.y - b.y
        if dy1 * dx2 >= dy2 * dx1:
            return False
    return True


def _is_convex(vertices: tuple[LatticePoint, ...]) -> bool:
    """True when every non-zero turn of the closed cycle has the same sign.

    Returns False at the first turn whose sign differs from an earlier
    non-zero turn; for a diagram with k >= 2 that is the second turn.
    """
    m = len(vertices)
    sign = 0
    for i in range(m):
        turn = _orientation(vertices[i], vertices[(i + 1) % m], vertices[(i + 2) % m])
        if turn and sign and turn != sign:
            return False
        sign = sign or turn
    return True
