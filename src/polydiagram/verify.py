"""Grid conformance sweep: every area route and structural invariant, exactly.

run_grid_verification walks q = 1..q_max, n = 0..n_max, k = 1..k_max and at
each point checks every area route against the shoelace oracle, the
n-1 -> n scaling law, the reduced denominators, and (for q >= 2) the
diagram's structural invariants.  It also replays the frozen golden rows
for the degree-2, n=0 family.  A route that raises fails its check against
the shoelace oracle, and a golden row whose slab sum raises is a problem,
so a faulty route ends the sweep with a report, not an exception.  Points
are visited in (q, n, k) order and failures recorded in that order, so
reports are deterministic.  Every check that runs is counted by name in
the report's tally.

A point costs its checks and little else: its cycle is regenerated once,
into a tuple that cross_check's walk and validate_diagram's walk both read;
cross_check skips Pick at q = 1 by the route's least q, with no refusal
text; and a CheckFailure and its detail are built only when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .areas import ROUTES, area_general, cross_check
from .core import PolynomialDiagram, SpecialPolynomial, build_diagram, validate_diagram

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


@dataclass(frozen=True)
class CheckFailure:
    """One failed exact check, with both sides rendered in the detail."""

    q: int
    n: int
    k: int
    check: str
    detail: str


# Every check a grid point can run, in the order it runs them; each route
# other than shoelace is checked as "<route>_vs_shoelace".
_VS_SHOELACE = {name: f"{name}_vs_shoelace" for name in ROUTES if name != "shoelace"}
CHECKS: tuple[str, ...] = (*_VS_SHOELACE.values(), "reduced_denominator", "scaling_in_n",
                           "vertex_count", "simple", "chain_slopes", "convexity",
                           "chain_structure")


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic summary of a full grid sweep; `tally` counts the runs of each check."""

    q_max: int
    n_max: int
    k_max: int
    tally: dict[str, int] = field(hash=False)
    failures: tuple[CheckFailure, ...]
    golden_problems: tuple[str, ...]

    @property
    def points(self) -> int:
        return self.q_max * (self.n_max + 1) * self.k_max

    @property
    def checks(self) -> int:
        return sum(self.tally.values())

    @property
    def pick_checks(self) -> int:
        return self.tally["pick_vs_shoelace"]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.golden_problems

    @property
    def first_failure(self) -> CheckFailure | None:
        return self.failures[0] if self.failures else None


def run_grid_verification(
    q_max: int = 50,
    n_max: int = 10,
    k_max: int = 12,
) -> VerificationReport:
    """Sweep the grid and return the aggregated report."""
    if q_max < 1:
        raise ValueError(f"q_max must be a positive integer, got {q_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    tally = dict.fromkeys(CHECKS, 0)
    failures: list[CheckFailure] = []
    for q in range(1, q_max + 1):
        # below[k]: twice the slab-sum area at (q, n - 1, k); None while n = 0.
        below: list[int | None] = [None] * (k_max + 1)
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                below[k] = _verify_point(q, n, k, below[k], tally, failures)
    return VerificationReport(
        q_max=q_max,
        n_max=n_max,
        k_max=k_max,
        tally=tally,
        failures=tuple(failures),
        golden_problems=tuple(_golden_quadratic_problems()),
    )


def _verify_point(
    q: int, n: int, k: int, below: int | None,
    tally: dict[str, int], failures: list[CheckFailure],
) -> int | None:
    """Run every check at one grid point, counting each in `tally`.

    `below` is twice the slab-sum area at (q, n - 1, k), or None at n = 0
    or when the slab sum raised there; returns this point's.  A route that
    raises fails its check against the shoelace oracle, and one the shoelace
    oracle raises fails every such check; the checks that read the slab sum
    do not run where it raised.  The cycle is regenerated once, into a tuple
    that the cross-check walk and the structural walk both read, and held
    only while the point is checked.
    """
    fail = failures.append
    p = SpecialPolynomial(q, n, k)
    d = PolynomialDiagram(tuple(build_diagram(p).vertices), p)
    routes = cross_check(p, d)
    twice_areas, raised = routes.twice_areas, routes.raised
    lace = twice_areas.get("shoelace")
    for name, check in _VS_SHOELACE.items():
        twice = twice_areas.get(name)
        if twice is None and name not in raised:
            continue  # refused: Pick at q = 1
        tally[check] += 1
        if twice is None or lace is None:
            fail(CheckFailure(q, n, k, check, "; ".join(
                f"{route} raised {raised[route]}" for route in (name, "shoelace") if route in raised
            )))
        elif twice != lace:
            fail(CheckFailure(q, n, k, check,
                              f"{name}={Fraction(twice, 2)} shoelace={Fraction(lace, 2)}"))

    # None when the general route raised, which general_vs_shoelace records
    general = twice_areas.get("general")
    if general is not None:
        tally["reduced_denominator"] += 1
        if general.denominator != 1:  # the area's is 1 or 2 exactly when 2A is an integer
            fail(CheckFailure(q, n, k, "reduced_denominator",
                              f"denominator={Fraction(general, 2).denominator}"))
        if below is not None:
            tally["scaling_in_n"] += 1
            if general != q * below:
                fail(CheckFailure(q, n, k, "scaling_in_n", f"area(n)={Fraction(general, 2)} "
                                  f"q*area(n-1)={Fraction(q * below, 2)}"))

    if q == 1:  # degenerate: no structural check applies
        return general

    count, _, simple, slopes_increasing, unit_steps, convex = validate_diagram(d)
    tally["vertex_count"] += 1
    if count != k + 2:
        fail(CheckFailure(q, n, k, "vertex_count", f"count={count} expected={k + 2}"))
    tally["simple"] += 1
    if not simple:
        fail(CheckFailure(q, n, k, "simple", "non-adjacent edges touch"))
    tally["chain_slopes"] += 1
    if not slopes_increasing:
        fail(CheckFailure(q, n, k, "chain_slopes", "chain slopes not strictly increasing"))
    tally["convexity"] += 1
    if convex != (k == 1):
        fail(CheckFailure(q, n, k, "convexity", f"convex={convex} expected={k == 1}"))
    tally["chain_structure"] += 1
    # unit steps ending at 0 over k + 1 chain vertices: the chain runs k, k-1, ..., 0
    if not (unit_steps and count == k + 2):
        fail(CheckFailure(q, n, k, "chain_structure",
                          "x not strictly increasing or y not unit steps"))
    return general


def _golden_quadratic_problems() -> list[str]:
    """Exact areas and +/-0.05 decimal ratios against the frozen golden rows."""
    problems: list[str] = []
    for q, expected_area, ratio_text in GOLDEN_QUADRATIC_ROWS:
        try:
            area, after = (area_general(SpecialPolynomial(r, 0, 2)) for r in (q, q + 1))
        except Exception as exc:  # a raising slab sum is a problem, like a wrong area
            problems.append(f"q={q}: general raised {type(exc).__name__}: {exc}")
            continue
        if area != expected_area:
            problems.append(f"q={q}: area {area} != {expected_area}")
            continue
        ratio = after / area
        if abs(ratio - Fraction(ratio_text)) > _GOLDEN_RATIO_TOLERANCE:
            problems.append(f"q={q}: ratio {ratio} not within 0.05 of {ratio_text}")
    return problems
