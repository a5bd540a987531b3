"""Slow, independent reference implementations used only by the tests.

The column scan and the pairwise segment test are the package's former
implementations of the interior count and the simplicity test.  They cost
O(q^(n+k)) and O(k^2) respectively, so tests call them only on small
inputs, as oracles for the O(k) versions in the package.
"""

from __future__ import annotations

from polydiagram import LatticePoint, PolynomialDiagram
from polydiagram.core import _orientation


def interior_by_column_scan(d: PolynomialDiagram) -> int:
    """Lattice points strictly inside, counted one integer column at a time.

    For each integer x strictly between the leftmost and rightmost vertices,
    the interior points are the integers y with 0 < y < h(x), where h is the
    height of the monomial chain at x; that count is (num-1) // den for
    h = num/den.  Assumes every chain edge descends exactly one unit.
    """
    chain = d.vertices[1:]
    count = 0
    last = len(chain) - 1
    for i in range(last):
        a, b = chain[i], chain[i + 1]
        den = b.x - a.x
        # Columns a.x < x <= b.x belong to this segment; the rightmost
        # vertex column of the whole chain is excluded.  Stepping one
        # column right lowers the height numerator by exactly 1.
        span = den if i + 1 < last else den - 1
        num = a.y * den - 2  # h(x)-numerator minus 1, at x = a.x + 1
        for _ in range(span):
            if num >= 0:
                count += num // den
            num -= 1
    return count


def _on_segment(p: LatticePoint, a: LatticePoint, b: LatticePoint) -> bool:
    """True when a point already known collinear with ab lies within its box."""
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _segments_touch(
    a: LatticePoint, b: LatticePoint, c: LatticePoint, d: LatticePoint
) -> bool:
    """Exact test for any contact (proper crossing or touching) of ab and cd."""
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(c, a, b):
        return True
    if o2 == 0 and _on_segment(d, a, b):
        return True
    if o3 == 0 and _on_segment(a, c, d):
        return True
    if o4 == 0 and _on_segment(b, c, d):
        return True
    return False


def simple_by_pairwise_test(vertices: tuple[LatticePoint, ...]) -> bool:
    """True when no two non-adjacent edges of the closed cycle touch.

    Adjacent edges are never compared, so a cycle that folds back on
    itself along one line can pass; see the collapsed-cycle regression test.
    """
    m = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # the closing edge is adjacent to the first one
            if _segments_touch(*edges[i], *edges[j]):
                return False
    return True
