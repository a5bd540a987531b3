"""Grid conformance sweep: every area route and structural invariant, exactly.

run_grid_verification walks q = 1..q_max, n = 0..n_max, k = 1..k_max and at
each point checks every area route against the shoelace oracle, the
n-1 -> n scaling law, the reduced denominators, and (for q >= 2) the
diagram's structural invariants.  It also replays the frozen golden rows
for the degree-2, n=0 family.  Points are visited in (q, n, k) order and
failures recorded in that order, so reports are deterministic.  Every check
that runs is counted by name in the report's tally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .areas import ROUTES, area_general, cross_check
from .core import SpecialPolynomial, build_diagram, validate_diagram

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
        # below[k]: the slab-sum area at (q, n - 1, k); None while n = 0.
        below: list[Fraction | None] = [None] * (k_max + 1)
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
    q: int, n: int, k: int, below: Fraction | None,
    tally: dict[str, int], failures: list[CheckFailure],
) -> Fraction:
    """Run every check at one grid point, counting each in `tally`.

    `below` is the slab-sum area at (q, n - 1, k), or None when n = 0.
    Returns this point's slab-sum area.
    """

    def fail(check: str, detail: str) -> None:
        failures.append(CheckFailure(q=q, n=n, k=k, check=check, detail=detail))

    p = SpecialPolynomial(q, n, k)
    d = build_diagram(p)
    areas = cross_check(p, d).areas
    lace = areas["shoelace"]
    for name, area in areas.items():
        if name != "shoelace":
            check = _VS_SHOELACE[name]
            tally[check] += 1
            if area != lace:
                fail(check, f"{name}={area} shoelace={lace}")

    general = areas["general"]
    tally["reduced_denominator"] += 1
    if general.denominator not in (1, 2):
        fail("reduced_denominator", f"denominator={general.denominator}")

    if below is not None:
        tally["scaling_in_n"] += 1
        if general != q * below:
            fail("scaling_in_n", f"area(n)={general} q*area(n-1)={q * below}")

    if d.degenerate:
        return general

    diag = validate_diagram(d)
    tally["vertex_count"] += 1
    if diag.vertex_count != k + 2:
        fail("vertex_count", f"count={diag.vertex_count} expected={k + 2}")
    tally["simple"] += 1
    if not diag.simple:
        fail("simple", "non-adjacent edges touch")
    tally["chain_slopes"] += 1
    if not diag.chain_slopes_increasing:
        fail("chain_slopes", "chain slopes not strictly increasing")
    tally["convexity"] += 1
    expected_convex = k == 1
    if diag.convex != expected_convex:
        fail("convexity", f"convex={diag.convex} expected={expected_convex}")
    tally["chain_structure"] += 1
    xs = [v.x for v in d.vertices[1:]]
    ys = [v.y for v in d.vertices[1:]]
    if not all(a < b for a, b in zip(xs, xs[1:])) or ys != list(range(k, -1, -1)):
        fail("chain_structure", "x not strictly increasing or y not unit steps")
    return general


def _golden_quadratic_problems() -> list[str]:
    """Exact areas and +/-0.05 decimal ratios against the frozen golden rows."""
    problems: list[str] = []
    for q, expected_area, ratio_text in GOLDEN_QUADRATIC_ROWS:
        area = area_general(SpecialPolynomial(q, 0, 2))
        if area != expected_area:
            problems.append(f"q={q}: area {area} != {expected_area}")
            continue
        ratio = area_general(SpecialPolynomial(q + 1, 0, 2)) / area
        if abs(ratio - Fraction(ratio_text)) > _GOLDEN_RATIO_TOLERANCE:
            problems.append(f"q={q}: ratio {ratio} not within 0.05 of {ratio_text}")
    return problems
