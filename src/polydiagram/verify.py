"""Grid conformance sweep: every area route and structural invariant, exactly.

run_grid_verification walks q = 1..q_max, n = 0..n_max, k = 1..k_max and at
each point checks every area route against the shoelace oracle, the
n-1 -> n scaling law, the reduced denominators, and (for q >= 2) the
diagram's structural invariants.  It also replays the frozen golden rows
for the degree-2, n=0 family.  A route that raises fails its check against
the shoelace oracle, and a golden row whose slab sum raises or returns a
non-int is a problem, so a faulty route ends the sweep with a report, not
an exception.  Points are visited in (q, n, k) order and failures recorded
in that order, so reports are deterministic; details write ints by int_text.

Each check is one entry of _TABLE, from which CHECKS, the tally and every
failure derive.  One comparison per input stands for all the checks that
read it, so a passing point calls no finding and only counts its key; the
tally is summed per key at the end.  Each point's cycle is regenerated once,
into a tuple both walks read.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, NamedTuple

from .areas import ROUTES, AreaCrossCheck, NotAnInt, area_general, cross_check
from .core import PolynomialDiagram, Record, SpecialPolynomial, VertexCycle, validate_diagram
from .formats import int_text

__all__ = [
    "CHECKS",
    "GOLDEN_QUADRATIC_ROWS",
    "CheckFailure",
    "VerificationReport",
    "run_grid_verification",
]

# Golden rows for the degree-2, n=0 family: exact areas, plus the coarse
# decimal ratio renderings they are matched against within +/- 0.05.
GOLDEN_QUADRATIC_ROWS: tuple[tuple[int, Fraction, str], ...] = (
    (2, Fraction(5, 2), "2.4"),
    (3, Fraction(6), "1.75"),
    (4, Fraction(21, 2), "1.52"),
    (5, Fraction(16), "1.4"),
    (6, Fraction(45, 2), "1.3"),
    (16, Fraction(285, 2), "1.12"),
)

_GOLDEN_RATIO_TOLERANCE = Fraction(5, 100)


class CheckFailure(Record):
    """One failed exact check, with both sides rendered in the detail."""

    __slots__ = __match_args__ = ("q", "n", "k", "check", "detail")
    q: int
    n: int
    k: int
    check: str
    detail: str

    def __init__(self, q: int, n: int, k: int, check: str, detail: str) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "detail", detail)


# A point's inputs, by index: its AreaCrossCheck, the slab sum's twice-area, (2A(n),
# q*2A(n-1)) from the slab sum and its DiagramDiagnostics, each None where absent.
_ROUTES, _SLAB, _SCALING, _SHAPE = range(4)


class _Check(NamedTuple):
    """An entry of _TABLE: a check's name, input, route and finding(value, k)."""

    name: str
    reads: int
    route: str | None
    finding: Callable[[Any, int], str | None]


def _text(value: Rational) -> str:
    """str(value), "3" or "5/2", under any int digit cap."""
    num, den = int_text(value.numerator), int_text(value.denominator)
    return num if den == "1" else f"{num}/{den}"


def _half(twice: Any) -> str:
    """A twice-area halved for a detail: exactly when rational, else as the route gave it."""
    return _text(Fraction(twice, 2)) if isinstance(twice, Rational) else f"{twice!r}/2"


def _vs_shoelace(route: str) -> _Check:
    """Route `route` against the shoelace oracle; either one raising fails the check."""

    def finding(routes: AreaCrossCheck, k: int) -> str | None:
        twice, lace = routes.twice_areas.get(route), routes.twice_areas.get("shoelace")
        if twice is None or lace is None:
            return "; ".join(f"{name} raised {routes.raised[name]}"
                             for name in (route, "shoelace") if name in routes.raised)
        return None if twice == lace else f"{route}={_half(twice)} shoelace={_half(lace)}"

    return _Check(f"{route}_vs_shoelace", _ROUTES, route, finding)


def _denominator(twice: Any, k: int) -> str | None:
    if not isinstance(twice, Rational):
        return f"not an exact rational: {type(twice).__name__}"
    half = Fraction(twice, 2)  # the area: its denominator is 1 or 2 exactly when 2A is an int
    return None if half.denominator <= 2 else f"denominator={_text(half.denominator)}"


# Every check a grid point can run, in the order it runs them.
_TABLE: tuple[_Check, ...] = (
    *(_vs_shoelace(name) for name in ROUTES if name != "shoelace"),
    _Check("reduced_denominator", _SLAB, None, _denominator),
    _Check("scaling_in_n", _SCALING, None, lambda pair, k: None if pair[0] == pair[1] else
           f"area(n)={_half(pair[0])} q*area(n-1)={_half(pair[1])}"),
    _Check("vertex_count", _SHAPE, None, lambda s, k: None if s.vertex_count == k + 2 else
           f"count={s.vertex_count} expected={k + 2}"),
    _Check("simple", _SHAPE, None, lambda s, k: None if s.simple else "non-adjacent edges touch"),
    _Check("chain_slopes", _SHAPE, None, lambda s, k: None if s.chain_slopes_increasing else
           "chain slopes not strictly increasing"),
    _Check("convexity", _SHAPE, None, lambda s, k: None if s.convex == (k == 1) else
           f"convex={s.convex} expected={k == 1}"),
    # unit steps ending at 0 over k + 1 chain vertices: the chain runs k, k-1, ..., 0
    _Check("chain_structure", _SHAPE, None,
           lambda s, k: None if s.chain_unit_steps and s.vertex_count == k + 2 else
           "x not strictly increasing or y not unit steps"),
)
CHECKS: tuple[str, ...] = tuple(check.name for check in _TABLE)


class VerificationReport(Record):
    """Deterministic summary of a full grid sweep; `tally` counts the runs of each check.

    Its hash leaves out the tally, a dict, so a report is hashable.
    """

    __slots__ = __match_args__ = ("q_max", "n_max", "k_max", "tally", "failures",
                                  "golden_problems")
    q_max: int
    n_max: int
    k_max: int
    tally: dict[str, int]
    failures: tuple[CheckFailure, ...]
    golden_problems: tuple[str, ...]

    def __init__(self, q_max: int, n_max: int, k_max: int, tally: dict[str, int],
                 failures: tuple[CheckFailure, ...], golden_problems: tuple[str, ...]) -> None:
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "tally", tally)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "golden_problems", golden_problems)

    def __hash__(self) -> int:
        return hash((self.q_max, self.n_max, self.k_max, self.failures, self.golden_problems))

    @property
    def points(self) -> int:
        return self.q_max * (self.n_max + 1) * self.k_max

    @property
    def checks(self) -> int:
        return sum(self.tally.values())

    @property
    def pick_checks(self) -> int:
        return sum(self.tally[check.name] for check in _TABLE if check.route == "pick")

    @property
    def passed(self) -> bool:
        return not self.failures and not self.golden_problems

    @property
    def first_failure(self) -> CheckFailure | None:
        return self.failures[0] if self.failures else None


def run_grid_verification(q_max: int = 50, n_max: int = 10, k_max: int = 12) -> VerificationReport:
    """Sweep the grid and return the aggregated report."""
    if q_max < 1:
        raise ValueError(f"q_max must be a positive integer, got {q_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    seen: dict[tuple, int] = {}  # the points of each key (see _verify_point)
    failures: list[CheckFailure] = []
    for q in range(1, q_max + 1):
        # below[k]: twice the slab-sum area at (q, n - 1, k); None while n = 0.
        below: list[int | None] = [None] * (k_max + 1)
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                below[k] = _verify_point(q, n, k, below[k], seen, failures)
    tally = dict.fromkeys(CHECKS, 0)
    for key, points in seen.items():
        for check in _applicable(key):
            tally[check.name] += points
    return VerificationReport(q_max=q_max, n_max=n_max, k_max=k_max, tally=tally,
                              failures=tuple(failures),
                              golden_problems=tuple(_golden_quadratic_problems()))


def _verify_point(q: int, n: int, k: int, below: int | None,
                  seen: dict[tuple, int], failures: list[CheckFailure]) -> int | None:
    """Run each check of _TABLE that applies at one point; return its slab sum's twice-area.

    `below` is that at (q, n - 1, k), None at n = 0 or where it raised; `seen` counts keys.
    """
    p = SpecialPolynomial(q, n, k)
    d = PolynomialDiagram(tuple(VertexCycle(q, k, q**n)), p)
    routes = cross_check(p, d)
    slab = routes.twice_areas.get("general")
    scaling = None if slab is None or below is None else (slab, q * below)
    shape = None if q == 1 else validate_diagram(d)
    key = (slab is None, scaling is None, shape is None, *routes.twice_areas, *routes.raised)
    seen[key] = seen.get(key, 0) + 1
    held = (routes.agree, type(slab) is int, scaling is None or scaling[0] == scaling[1],
            shape is None or shape == (k + 2, False, True, True, True, k == 1))
    if all(held):
        return slab
    inputs = (routes, slab, scaling, shape)
    for name, reads, _, finding in _applicable(key):
        if not held[reads]:
            detail = finding(inputs[reads], k)
            if detail is not None:
                failures.append(CheckFailure(q, n, k, name, detail))
    return slab


def _applicable(key: tuple) -> tuple[_Check, ...]:
    """The checks that apply under `key`: a route's where it ran, any other where its input is."""
    absent, ran = (False, *key[:3]), key[3:]
    return tuple(c for c in _TABLE if not absent[c.reads] and (c.route is None or c.route in ran))


def _golden_quadratic_problems() -> list[str]:
    """Exact areas and +/-0.05 decimal ratios against the frozen golden rows."""
    problems: list[str] = []
    for q, expected_area, ratio_text in GOLDEN_QUADRATIC_ROWS:
        try:
            area, after = (area_general(SpecialPolynomial(r, 0, 2)) for r in (q, q + 1))
        except Exception as exc:  # a slab sum that raises, or returns a non-int, is a problem
            fault = exc if type(exc) is NotAnInt else f"general raised {type(exc).__name__}: {exc}"
            problems.append(f"q={q}: {fault}")
            continue
        if area != expected_area:
            problems.append(f"q={q}: area {_text(area)} != {expected_area}")
            continue
        ratio = after / area
        if abs(ratio - Fraction(ratio_text)) > _GOLDEN_RATIO_TOLERANCE:
            problems.append(f"q={q}: ratio {_text(ratio)} not within 0.05 of {ratio_text}")
    return problems
