"""Slow, independent reference implementations used only by the tests.

The column scan and the pairwise segment test are the package's former
implementations of the interior count and the simplicity test.  They cost
O(q^(n+k)) and O(k^2) respectively, so tests call them only on small
inputs, as oracles for the O(k) versions in the package.  The Fraction
forms of decimal rendering and forward differences are the package's former
implementations of the integer-arithmetic `format_decimal` and
`finite_difference`.  The all-turns convexity test is the former form of the
package's early-exit one, which now reads the turns of the shape walk, and
`_orientation`, the three-point turn sign that it and the pairwise segment
test use, is the package's former turn test.  The degree-2 closed form is
the paper's formula, which the package's closed form for every k
generalizes.  The edge-product shoelace, the per-edge interior terms and
the running-power slab sum are the package's former loop bodies for the
vertex-form shoelace, the interior count summed by parts and the Horner
slab sum.  The per-triple slope test is the former body of the slope check,
which now shares one walk with the vertex count, the simplicity test and
the convexity test.  The gcd of
every edge and the point-by-point monomial loop are the former bodies of the
boundary count, which now skips the x difference of a unit-height edge, and
of the monomial map.  `monomial_map` and `materialized_diagram` are the
package's former diagram, which stored every vertex as a LatticePoint before
the diagram became a cycle regenerated on each pass; LatticePoint, the
named (x, y) pair, lives here with them.  `chain_steps_down_from` is the
former chain check of the grid sweep, which now reads the unit chain steps
off the shape walk.  The paper's per-slab formulas, `trapezoid_area` and
`triangle_area`, are the former public pieces of the slab sum, and
`format_rational` and `rational_to_json` the former per-cell encoders of
the documents, which now render each chunk's cells column by column;
`records_document_by_rows` writes a whole records document from them, a
row and a cell at a time, each markdown line by `markdown_line`.  Every
oracle that reads a diagram first materializes its vertices, so it indexes
them freely.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from typing import Iterable, NamedTuple

from polydiagram import AreaSequence, PolynomialDiagram, SpecialPolynomial


class LatticePoint(NamedTuple):
    """Integer lattice point; compares equal to a plain (x, y) tuple."""

    x: int
    y: int


def points(vertices: Iterable[tuple[int, int]]) -> tuple[LatticePoint, ...]:
    """One pass over a vertex cycle, kept as LatticePoints."""
    return tuple(LatticePoint(x, y) for x, y in vertices)


def monomial_map(p: SpecialPolynomial) -> list[LatticePoint]:
    """The k+1 points (q^(n+i), k-i) for i = 0..k, each x one product by q from the last."""
    xs = accumulate(repeat(p.q, p.k), operator.mul, initial=p.q**p.n)
    return list(map(partial(tuple.__new__, LatticePoint), zip(xs, range(p.k, -1, -1))))


def materialized_diagram(p: SpecialPolynomial) -> PolynomialDiagram:
    """p's diagram with every vertex stored: the anchor (q^n, 0), then the monomial points."""
    return PolynomialDiagram((LatticePoint(p.q**p.n, 0), *monomial_map(p)), p)


def area_closed_form_k2(q: int, n: int) -> Fraction:
    """The paper's closed-form area q^n * (q+3) * (q-1) / 2 for the degree-2 family."""
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


def format_rational(value: Fraction) -> str:
    """Render as num/den with the denominator always explicit, e.g. '6/1'."""
    return f"{value.numerator}/{value.denominator}"


def rational_to_json(value: Fraction) -> dict[str, str]:
    """Encode a rational as {"num": ..., "den": ...} decimal strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def markdown_line(cells: list[str]) -> str:
    """One markdown table line, each | in a cell escaped as \\| and each line break as <br>."""
    escaped = [cell.replace("|", "\\|").replace("\r\n", "<br>").replace("\r", "<br>")
               .replace("\n", "<br>") for cell in cells]
    return f"| {' | '.join(escaped)} |\n"


def records_document_by_rows(
    fmt: str, fields: list[str], rows: list[tuple], params: dict, digits: int,
    key: str = "rows", **extra: object,
) -> str:
    """records_document's text, written a row and a cell at a time.

    The first field is text and every later one rational, so the headers
    come from `fields` alone, and a document with no rows still has them.
    Each rational cell, a (num, den) pair or None, goes through Fraction,
    `format_rational`, `rational_to_json` and `decimal_by_fraction_round`;
    CSV is one csv.writer row per line, markdown one markdown_line per line, and JSON
    json.dumps of the whole document.
    """
    headers = [fields[0]]
    for name in fields[1:]:
        headers += [name, name + "_decimal"]

    def cells(row: tuple, as_json: bool) -> list:
        text, *rationals = row
        out: list = [text]
        for cell in rationals:
            if cell is None:
                out += [None, None] if as_json else ["undefined", "undefined"]
            else:
                value = Fraction(*cell)
                out += [rational_to_json(value) if as_json else format_rational(value),
                        decimal_by_fraction_round(value, digits)]
        return out

    if fmt == "json":
        records = [dict(zip(headers, cells(row, True))) for row in rows]
        return json.dumps({"params": params, key: records, **extra}, indent=2) + "\n"
    lines = [cells(row, False) for row in rows]
    if fmt == "markdown":
        lines = [headers, ["---"] * len(headers), *lines]
        return "".join(map(markdown_line, lines))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for line in [headers, *lines]:
        writer.writerow(line)
    return buffer.getvalue()


def chain_steps_down_from(k: int, vertices: Iterable[tuple[int, int]]) -> bool:
    """True when the chain after the anchor has strictly increasing x and y = k, k-1, ..., 0.

    One walk of the cycle: the chain must start at height k, step down by
    exactly one per vertex, and end at height 0.
    """
    walk = islice(vertices, 1, None)
    first = next(walk, None)
    if first is None or first[1] != k:
        return False
    last_x, last_y = first
    for x, y in walk:
        if x <= last_x or y != last_y - 1:
            return False
        last_x, last_y = x, y
    return last_y == 0


def area_by_edge_shoelace(d: PolynomialDiagram) -> Fraction:
    """Shoelace area |sum of x_i*y_{i+1} - x_{i+1}*y_i| / 2, one term per edge."""
    pts = points(d.vertices)
    total = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        total += x0 * y1 - x1 * y0
    return Fraction(abs(total), 2)


def boundary_by_gcd(d: PolynomialDiagram) -> int:
    """Boundary lattice points as gcd(|dy|, |dx|) summed over every edge of the cycle."""
    pts = points(d.vertices)
    return sum(
        math.gcd(abs(b.y - a.y), abs(b.x - a.x)) for a, b in zip(pts, (*pts[1:], pts[0]))
    )


def monomial_points_by_loop(p: SpecialPolynomial) -> list[LatticePoint]:
    """The points (q^(n+i), k-i) for i = 0..k, each x one product by q from the last."""
    x = p.q**p.n
    points = [LatticePoint(x, p.k)]
    for y in range(p.k - 1, -1, -1):
        x *= p.q
        points.append(LatticePoint(x, y))
    return points


def slopes_increasing_by_triples(vertices: Iterable[tuple[int, int]]) -> bool:
    """Strict slope increase along the chain, each triple's edges differenced afresh."""
    chain = points(vertices)[1:]
    for a, b, c in zip(chain, chain[1:], chain[2:]):
        dx1, dy1 = b.x - a.x, b.y - a.y
        dx2, dy2 = c.x - b.x, c.y - b.y
        if dy1 * dx2 >= dy2 * dx1:
            return False
    return True


def _orientation(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (cross > 0) - (cross < 0)


def convex_by_all_turns(vertices: Iterable[tuple[int, int]]) -> bool:
    """True when every turn of the closed cycle has the same sign, all turns visited."""
    vertices = points(vertices)
    m = len(vertices)
    signs = set()
    for i in range(m):
        turn = _orientation(vertices[i], vertices[(i + 1) % m], vertices[(i + 2) % m])
        if turn:
            signs.add(turn)
    return len(signs) <= 1


def decimal_by_fraction_round(value: Fraction, digits: int) -> str:
    """`format_decimal` through Fraction multiplication and Fraction.__round__."""
    scaled = round(value * 10**digits)  # Fraction rounding ties to even
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    text = f"{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return sign + text


def difference_by_fraction_sums(s: AreaSequence, order: int) -> list[Fraction]:
    """`finite_difference` as binomial-weighted sums of Fractions."""
    weights = [(-1) ** (order - i) * math.comb(order, i) for i in range(order + 1)]
    return [
        sum(w * v for w, v in zip(weights, s.values[j : j + order + 1]))
        for j in range(len(s.values) - order)
    ]


def interior_by_edge_terms(d: PolynomialDiagram) -> int:
    """Interior count as (b.x - a.x - 1)(a.y - 1) + (b.y - 1) per chain edge a -> b.

    The final vertex column is dropped.  Raises ValueError, as the package
    does, for a chain edge that does not step right and down by one.
    """
    chain = points(d.vertices)[1:]
    count = 0
    for a, b in zip(chain, chain[1:]):
        if b.x <= a.x or b.y != a.y - 1:
            raise ValueError(
                f"chain edge {tuple(a)} -> {tuple(b)} does not step right and down by one"
            )
        count += (b.x - a.x - 1) * (a.y - 1) + (b.y - 1)
    return count - (chain[-1].y - 1)


def interior_by_column_scan(d: PolynomialDiagram) -> int:
    """Lattice points strictly inside, counted one integer column at a time.

    For each integer x strictly between the leftmost and rightmost vertices,
    the interior points are the integers y with 0 < y < h(x), where h is the
    height of the monomial chain at x; that count is (num-1) // den for
    h = num/den.  Assumes every chain edge descends exactly one unit.
    """
    chain = points(d.vertices)[1:]
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


def slab_sum_by_running_power(p: SpecialPolynomial) -> Fraction:
    """Slab sum adding (q^(n+m+1) - q^(n+m)) * (2k-2m-1) for m = 0..k-1, halved once."""
    power = p.q**p.n  # q^(n+m)
    twice = 0
    for m in range(p.k):
        step = power * p.q
        twice += (step - power) * (2 * (p.k - m) - 1)
        power = step
    return Fraction(twice, 2)


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


def simple_by_pairwise_test(vertices: Iterable[tuple[int, int]]) -> bool:
    """True when no two non-adjacent edges of the closed cycle touch.

    Adjacent edges are never compared, so a cycle that folds back on
    itself along one line can pass; see the collapsed-cycle regression test.
    """
    vertices = points(vertices)
    m = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # the closing edge is adjacent to the first one
            if _segments_touch(*edges[i], *edges[j]):
                return False
    return True
