"""Geometric-coefficient polynomials and their lattice-polygon diagrams.

A parameter triple (q, n, k) fixes the degree-k polynomial whose coefficient
on x^(k-i) is q^(n+i), for i = 0..k.  Mapping each monomial to the lattice
point (coefficient, exponent) gives a descending chain from (q^n, k) to
(q^(n+k), 0); prepending the anchor (q^n, 0) and closing the cycle along the
x-axis yields the polynomial diagram, a simple polygon whenever q >= 2.

A diagram stores its vertex cycle as q, k and the anchor's x, q^n, and
regenerates the vertices on every pass, in one plain generator that forms
one product by q per chain vertex, so its memory stays flat in k although
the x reach q^(n+k).  Every reader of the cycle (the structural checks
here, the area routes, the renderer) walks it once, forward, holding O(1)
vertices, and takes the closing edge from the first vertices it kept.
The structural checks share that one walk: the slope and convexity checks
both read the one turn it forms per vertex, and validate_diagram reports
them as a DiagramDiagnostics NamedTuple.  A PolynomialDiagram may instead
hold its cycle as a tuple of pairs, as the verify sweep does to
regenerate each small cycle once for its two readers.

The package's records (SpecialPolynomial, VertexCycle and
PolynomialDiagram here, and those of the other modules) are slotted classes
on Record, not frozen dataclasses: importing `dataclasses`, with `inspect`,
took 6-11 ms of every CLI call's start on Python 3.11.  Record compiles
each one's __init__ from its __slots__, and gives it a frozen dataclass's
immutability, equality, hashing, repr and pickling.  DiagramDiagnostics is
a NamedTuple.

Everything here is exact integer arithmetic: slope and turn tests use
cross products, or comparisons where a cross product reduces to one, never
division, so no rounding can occur even when coordinates reach q^(n+k).
Building a diagram costs one power, and validating it O(k) big-integer
operations, of which at most three are products.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "SpecialPolynomial",
    "VertexCycle",
    "PolynomialDiagram",
    "DiagramDiagnostics",
    "build_polynomial",
    "build_diagram",
    "validate_diagram",
]


class Record:
    """Base of the package's immutable records, whose fields are the subclass's __slots__.

    Each subclass gets an __init__ compiled from its __slots__ (see
    __init_subclass__), which sets each field once; from then on assigning
    or deleting any attribute raises AttributeError.  A record equals
    another of the same class whose fields are equal, hashes by its fields,
    shows as Name(field=value, ...), and pickles and copies by calling its
    class with its fields in order, which validates them again.  A subclass
    that holds a dict is unhashable, as hashing the dict raises TypeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, defaults: dict[str, object] | None = None, **kwargs: object) -> None:
        """Compile cls.__init__(self, <each field of __slots__, in order>).

        `defaults` maps the last fields to their defaults; a class given as
        a default, such as dict, makes the parameter default to None, which
        stands for a new instance of that class.  The __init__ first calls
        the subclass's static _validate, if it has one, with every field,
        and then stores each field through its slot's own setter, one
        statement per field, bypassing Record.__setattr__.  Its def is
        compiled inside a `class <Name>:` statement, so that its qualified
        name, which a wrong argument count names, is <Name>.__init__.
        """
        super().__init_subclass__(**kwargs)
        defaults, fields = defaults or {}, cls.__slots__
        validate = getattr(cls, "_validate", None)
        fresh = [name for name, value in defaults.items() if isinstance(value, type)]
        params = ", ".join(f"{name}=None" if name in fresh else f"{name}=defaults[{name!r}]"
                           if name in defaults else name for name in fields)
        body = [*(f"{name} = defaults[{name!r}]() if {name} is None else {name}" for name in fresh),
                *([f"validate({', '.join(fields)})"] if validate else []),
                *(f"set_{name}(self, {name})" for name in fields)]
        namespace = {"__name__": cls.__module__, "defaults": defaults, "validate": validate,
                     **{f"set_{name}": getattr(cls, name).__set__ for name in fields}}
        exec(f"class {cls.__name__}:\n def __init__(self, {params}):\n  " + "\n  ".join(body),
             namespace)
        cls.__init__ = namespace[cls.__name__].__init__
        cls.__init__.__annotations__ = {**cls.__annotations__, "return": "None"}

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class SpecialPolynomial(Record):
    """Parameter triple for the polynomial sum of q^(n+i) * x^(k-i), i = 0..k.

    q >= 1 is the coefficient base, n >= 0 shifts every power of q, and
    k >= 1 is the degree.  Coefficients grow like q^(n+k), so everything
    downstream stays in Python's arbitrary-precision integers.
    """

    __slots__ = __match_args__ = ("q", "n", "k")
    q: int
    n: int
    k: int

    @staticmethod
    def _validate(q: int, n: int, k: int) -> None:
        if not (type(q) is type(n) is type(k) is int):
            for name, value in (("q", q), ("n", n), ("k", k)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if q < 1:
            raise ValueError(f"q must be a positive integer, got {q}")
        if n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n}")
        if k < 1:
            raise ValueError(f"k must be a positive integer (the degree), got {k}")

    @property
    def degenerate(self) -> bool:
        """True when q == 1: every mapped point shares x = 1."""
        return self.q == 1


class VertexCycle(Record):
    """A diagram's k+2 vertices, regenerated as (x, y) pairs on every iteration.

    Each pass is one plain generator: it yields the anchor (x0, 0), then
    the monomial points (x0 q^i, k - i) for i = 0..k, each x one product by
    q from the last, k products in all, holding O(1) vertices.  Its set-up
    is one generator, so small cycles, which the verify sweep makes at
    every point, pay little beyond their vertices: on CPython 3.11 (one
    core of a shared Xeon host) a pass into a tuple takes about 0.9 us at
    k = 6 and 1.6 us at k = 12.  At q = 2 a pass takes about 12 us at
    k = 150, and about 8 ms streamed at k = 20000, where the products of
    big ints cost the time.  Only q, k and x0 = q^n are stored, and cycles
    are equal when those are.  len() is k + 2, so tuple() allocates its
    result once at its final size: a tuple resized from a guessed size is
    kept on CPython's free list for its new size when freed, and a sweep
    that makes one per point grows those lists.
    """

    __slots__ = __match_args__ = ("q", "k", "x0")
    q: int
    k: int
    x0: int

    def __len__(self) -> int:
        return self.k + 2

    def __iter__(self) -> Iterator[tuple[int, int]]:
        q, x = self.q, self.x0
        yield x, 0
        for y in range(self.k, 0, -1):
            yield x, y
            x *= q
        yield x, 0


class PolynomialDiagram(Record):
    """Closed vertex cycle of the diagram polygon, anchor first.

    `vertices` is re-iterable, and each pass yields (x, y) pairs: the anchor
    (q^n, 0) first, then the monomial points in decreasing-exponent order,
    ending at (q^(n+k), 0).  The closing edge back to the anchor runs along
    the x-axis.  The vertex order is clockwise, so area routines take
    absolute values.  build_diagram stores a VertexCycle; any other
    re-iterable of lattice pairs, such as a tuple of (x, y) tuples, is read
    the same way.  `degenerate` is the source's: q == 1.
    """

    __slots__ = __match_args__ = ("vertices", "source")
    vertices: Iterable[tuple[int, int]]
    source: SpecialPolynomial

    @property
    def degenerate(self) -> bool:
        return self.source.degenerate


class DiagramDiagnostics(NamedTuple):
    """Exact structural findings for a diagram; reported, never raised.

    A NamedTuple: immutable and hashable, read by name or unpacked in field order.
    """

    vertex_count: int
    degenerate: bool
    simple: bool
    chain_slopes_increasing: bool
    chain_unit_steps: bool
    convex: bool


def build_polynomial(q: int, n: int, k: int) -> SpecialPolynomial:
    """Validate and return the parameter triple.

    Rejects q = 0 (the base must be positive), negative n, and k = 0 (the
    diagram would collapse to a point), naming the offending parameter.
    q = 1 is accepted; its diagram is degenerate with area 0.
    """
    return SpecialPolynomial(q, n, k)


def build_diagram(p: SpecialPolynomial) -> PolynomialDiagram:
    """The diagram of p: the anchor (q^n, 0), then the monomial points, k+2 vertices.

    Each monomial q^(n+i) * x^(k-i) maps to the point (q^(n+i), k-i).  Only
    q^n is computed here; the vertices are regenerated from it by each pass
    over the VertexCycle.
    """
    return PolynomialDiagram(VertexCycle(p.q, p.k, p.q**p.n), p)


def validate_diagram(d: PolynomialDiagram) -> DiagramDiagnostics:
    """Run the exact structural checks and report the findings.

    For q >= 2 the diagram is expected to be simple with strictly increasing
    chain slopes and unit chain steps, and convex exactly when k == 1.  One
    walk of the cycle (see _walk_shape) counts its vertices and judges
    simplicity by the diagram's shape, the chain slopes, the chain steps and
    convexity; it is O(k) and holds O(1) vertices.  Degenerate (q == 1)
    diagrams collapse onto one vertical segment with overlapping edges, so
    they report simple=False, chain_slopes_increasing=False and
    convex=False (and, as their x never increase, no unit steps).
    """
    vertex_count, simple, slopes_increasing, unit_steps, convex = _walk_shape(d.vertices)
    flat = d.source.q == 1
    return DiagramDiagnostics(vertex_count, flat, simple and not flat,
                              slopes_increasing and not flat, unit_steps, convex and not flat)


def _walk_shape(vertices: Iterable[tuple[int, int]]) -> tuple[int, bool, bool, bool, bool]:
    """One walk of a cycle, anchor first: (count, simple, slopes increasing, unit steps, convex).

    Simple: the cycle has the diagram's shape, which is simple, when the
    first chain vertex lies directly above the anchor, chain x strictly
    increases, every chain vertex but the last lies strictly above the
    anchor's row, and the last lies on that row.  The chain is then an
    x-monotone path whose non-adjacent edges span disjoint x-ranges, and
    only its end edges reach the anchor's column and row.  Every other
    cycle is reported not simple, even one that is simple in another shape.
    A vertex is known not to be the last when the next one arrives.

    The turn at a vertex is the cross product dx*ey - dy*ex of the edge
    (dx, dy) into it and the edge (ex, ey) out of it, one per vertex.
    Where both edges have the same y-step (ey == dy, as at every inner
    chain vertex of a diagram) it equals dy*(dx - ex), so the walk takes
    its sign from comparing dx with ex and from the sign of dy, and forms
    no product; the turn it keeps is then dy, -dy or 0.

    Chain slopes increasing: every chain turn, between consecutive chain
    edges, is positive.  That is dy/dx < ey/ex cross-multiplied, which is
    equivalent when both dx > 0 (every chain edge for q >= 2).

    Unit steps: after the anchor, x strictly increases and y falls by
    exactly one per vertex, ending at y = 0.  With k + 2 vertices the chain
    then runs k, k-1, ..., 0, which is what lattice_counts needs.

    Convex: every non-zero turn of the closed cycle has one sign.  The two
    turns that wrap around the cycle come last, at the last vertex into the
    closing edge and at the anchor onto the first edge, which the walk
    keeps; for a diagram with k >= 2 the second turn already decides it.

    The walk takes the anchor and the first chain vertex with next() and
    loops over the rest of the same iterator, so its set-up is the same
    for every cycle.  Each edge's differences and each turn are formed
    once.
    """
    walk = iter(vertices)
    anchor, first = next(walk, None), next(walk, None)
    if first is None:
        return 0 if anchor is None else 1, False, True, False, True
    (ax, ay), (x, y) = anchor, first  # (x, y): the last vertex walked
    count = 2
    simple, increasing, steps, convex = x == ax, True, True, True
    dx, dy = fx, fy = x - ax, y - ay  # the edge into (x, y); (fx, fy) the first edge
    signs: set[bool] = set()  # the signs of the non-zero turns so far, True when positive
    for next_x, next_y in walk:
        ex, ey = next_x - x, next_y - y
        simple = simple and ex > 0 and y > ay
        steps = steps and ey == -1 and ex > 0
        if ey == dy:  # dy * (dx - ex), signed by comparing dx with ex
            turn = dy if dx > ex else 0 if dx == ex else -dy
        else:
            turn = dx * ey - dy * ex
        increasing = increasing and (count < 3 or turn > 0)  # from the 2nd chain vertex on
        if convex and turn:
            signs.add(turn > 0)
            convex = len(signs) < 2
        x, y, dx, dy = next_x, next_y, ex, ey
        count += 1
    if convex:
        ex, ey = ax - x, ay - y  # the closing edge, back to the anchor
        signs.update(turn > 0 for turn in (dx * ey - dy * ex, ex * fy - ey * fx) if turn)
        convex = len(signs) < 2
    return count, simple and count > 2 and y == ay, increasing, steps and y == 0, convex
