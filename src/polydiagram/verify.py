"""Grid conformance sweep: every area route and structural invariant, exactly.

run_grid_verification walks q = 1..q_max, n = 0..n_max, k = 1..k_max and at
each point cross-checks the area routes against each other, the n -> n+1
scaling law, the reduced denominators, and (for q >= 2) the diagram's
structural invariants.  It also replays the frozen golden rows for the
degree-2, n=0 family.  Points are visited in (q, n, k) order and failures
recorded in that order, so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .areas import (
    area_closed_form_k2,
    area_general,
    area_pick,
    area_shoelace,
)
from .core import SpecialPolynomial, build_diagram, validate_diagram

__all__ = [
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


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic summary of a full grid sweep."""

    q_max: int
    n_max: int
    k_max: int
    points: int
    checks: int
    pick_checks: int
    failures: tuple[CheckFailure, ...]
    golden_problems: tuple[str, ...]

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
    failures: list[CheckFailure] = []
    points = 0
    checks = 0
    pick_checks = 0
    for q in range(1, q_max + 1):
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                points += 1
                ran, picked = _verify_point(q, n, k, failures)
                checks += ran
                pick_checks += picked
    return VerificationReport(
        q_max=q_max,
        n_max=n_max,
        k_max=k_max,
        points=points,
        checks=checks,
        pick_checks=pick_checks,
        failures=tuple(failures),
        golden_problems=tuple(_golden_quadratic_problems()),
    )


def _verify_point(q: int, n: int, k: int, failures: list[CheckFailure]) -> tuple[int, int]:
    """Run every check at one grid point; returns (checks run, pick checks run)."""
    checks = 0
    pick_checks = 0

    def fail(check: str, detail: str) -> None:
        failures.append(CheckFailure(q=q, n=n, k=k, check=check, detail=detail))

    p = SpecialPolynomial(q, n, k)
    d = build_diagram(p)
    general = area_general(p)
    lace = area_shoelace(d)

    checks += 1
    if general != lace:
        fail("area_general_vs_shoelace", f"general={general} shoelace={lace}")

    if k == 2:
        closed = area_closed_form_k2(q, n)
        checks += 1
        if closed != general:
            fail("closed_form_vs_general", f"closed={closed} general={general}")

    checks += 1
    if general.denominator not in (1, 2):
        fail("reduced_denominator", f"denominator={general.denominator}")

    checks += 1
    lifted = area_general(SpecialPolynomial(q, n + 1, k))
    if lifted != q * general:
        fail("scaling_in_n", f"area(n+1)={lifted} q*area(n)={q * general}")

    if d.degenerate:
        return checks, pick_checks

    pick = area_pick(d)
    checks += 1
    pick_checks += 1
    if pick != lace:
        fail("pick_vs_shoelace", f"pick={pick} shoelace={lace}")

    diag = validate_diagram(d)
    checks += 1
    if diag.vertex_count != k + 2:
        fail("vertex_count", f"count={diag.vertex_count} expected={k + 2}")
    checks += 1
    if not diag.simple:
        fail("simple", "non-adjacent edges touch")
    checks += 1
    if not diag.chain_slopes_increasing:
        fail("chain_slopes", "chain slopes not strictly increasing")
    checks += 1
    expected_convex = k == 1
    if diag.convex != expected_convex:
        fail("convexity", f"convex={diag.convex} expected={expected_convex}")
    checks += 1
    xs = [v.x for v in d.vertices[1:]]
    ys = [v.y for v in d.vertices[1:]]
    if not all(a < b for a, b in zip(xs, xs[1:])) or ys != list(range(k, -1, -1)):
        fail("chain_structure", "x not strictly increasing or y not unit steps")
    return checks, pick_checks


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
