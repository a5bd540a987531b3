"""Grid sweep bookkeeping: each slab sum computed once, each check run tallied
by name, failures in grid order."""

from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction

import pytest

import polydiagram.areas as areas
import polydiagram.core as core
import polydiagram.verify as verify
from polydiagram import (
    PolynomialDiagram,
    build_diagram,
    build_polynomial,
    cross_check,
    run_grid_verification,
    validate_diagram,
)
from polydiagram.cli import main
from polydiagram.core import _walk_shape

import faults


def test_default_grid_computes_each_slab_sum_once(monkeypatch):
    calls, general = [], areas.ROUTES["general"]
    # the route table's slab sum, which the golden rows' area_general runs too
    monkeypatch.setitem(areas.ROUTES, "general", general._replace(
        twice_area=lambda *args: calls.append(args) or general.twice_area(*args)))
    report = run_grid_verification()
    assert report.passed
    # every point runs the route checks, n >= 1 the scaling law, and q >= 2
    # Pick and the five structural checks
    assert report.tally == {
        "closed_vs_shoelace": 6600,
        "general_vs_shoelace": 6600,
        "pick_vs_shoelace": 6468,
        "scaling_in_n": 6000,
        "vertex_count": 6468,
        "simple": 6468,
        "chain_slopes": 6468,
        "convexity": 6468,
        "chain_structure": 6468,
    }
    assert list(report.tally) == list(verify.CHECKS)
    assert (report.points, report.checks, report.pick_checks) == (6600, 58008, 6468)
    # one per point, and one per golden-row area or ratio term
    assert len(calls) == 6600 + 12 == 6612


@pytest.mark.parametrize(
    "cycle, k, holds",
    [
        ([(1, 0), (1, 2), (2, 1), (4, 0)], 2, True),
        ([(1, 0), (1, 2), (2, 1), (4, 0)], 3, False),  # starts below height k
        ([(1, 0), (1, 2), (2, 2), (4, 0)], 2, False),  # a flat step
        ([(1, 0), (1, 2), (1, 1), (4, 0)], 2, False),  # x does not increase
        ([(1, 0), (1, 2), (2, 1)], 2, False),  # ends above height 0
        ([(1, 0)], 2, False),  # no chain
    ],
)
def test_chain_structure_check_walks_the_cycle_once(cycle, k, holds):
    # the sweep's verdict comes from validate_diagram's shape walk; a one-shot
    # iterator gives the same verdict, so the walk is one pass
    diag = validate_diagram(PolynomialDiagram(cycle, build_polynomial(2, 0, 1)))
    assert (diag.chain_unit_steps and diag.vertex_count == k + 2) is holds
    count, _, _, unit_steps, _ = _walk_shape(iter(cycle))
    assert (unit_steps and count == k + 2) is holds


def test_a_broken_route_fails_only_its_own_check():
    clean = run_grid_verification(q_max=4, n_max=1, k_max=3)
    with faults.CATALOG["pick-plus-2"].inject():
        report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert {f.check for f in report.failures} == {"pick_vs_shoelace"}
    assert len(report.failures) == report.pick_checks == 3 * 2 * 3
    assert report.tally == clean.tally
    assert report.checks == clean.checks
    assert isinstance(hash(report), int)  # the tally leaves a report hashable


def test_a_fault_in_the_shared_sum_of_x_fails_only_the_formula_routes():
    # both oracles move alike, so pick_vs_shoelace passes and closed and general,
    # which never read the walk, fail against shoelace at every point
    clean = run_grid_verification(q_max=4, n_max=1, k_max=3)
    with faults.CATALOG["walk-sum-of-x-one-off"].inject():
        report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert [((f.q, f.n, f.k), f.check) for f in report.failures] == [
        ((q, n, k), check) for q in (1, 2, 3, 4) for n in (0, 1) for k in (1, 2, 3)
        for check in ("closed_vs_shoelace", "general_vs_shoelace")
    ]
    assert report.tally == clean.tally


def test_failures_stay_in_grid_order_when_the_slab_sum_is_off():
    with faults.CATALOG["general-plus-2-at-n-1"].inject():
        report = run_grid_verification(q_max=2, n_max=2, k_max=2)
    at_q = [
        ((1, 1), "general_vs_shoelace"),
        ((1, 1), "scaling_in_n"),
        ((1, 2), "general_vs_shoelace"),
        ((1, 2), "scaling_in_n"),
        ((2, 1), "scaling_in_n"),
        ((2, 2), "scaling_in_n"),
    ]
    assert [((f.q, f.n, f.k), f.check) for f in report.failures] == [
        ((q, n, k), check) for q in (1, 2) for (n, k), check in at_q
    ]
    assert report.golden_problems == ()


def test_small_grid_walks_each_cycle_once_per_reader(monkeypatch):
    # each point regenerates its cycle once, into a tuple that cross_check's
    # walk (the shoelace sum and Pick) and, at q >= 2, validate_diagram's
    # shape walk both read
    walks, original = [], core.VertexCycle.__iter__
    monkeypatch.setattr(core.VertexCycle, "__iter__",
                        lambda cycle: walks.append(cycle) or original(cycle))
    report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert report.passed
    assert len(walks) == report.points == 4 * 2 * 3 == 24


def test_a_sweep_leaves_no_memory_behind():
    # each point's cycle becomes a tuple of its exact size; a tuple resized
    # from a guessed size went onto CPython's free list for its new size when
    # freed, and those lists kept about 0.65 MB after one default sweep
    gc.collect()  # a full collection empties the free lists
    tracemalloc.start()
    try:
        report = run_grid_verification()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert kept < 64 * 1024


def test_a_half_unit_fault_fails_its_check_at_every_point():
    # a twice-area one too large is an area off by 1/2, and the detail shows the halves
    with faults.CATALOG["general-plus-1"].inject():
        report = run_grid_verification(q_max=3, n_max=1, k_max=2)
    details = {(f.q, f.n, f.k): f.detail for f in report.failures
               if f.check == "general_vs_shoelace"}
    assert len(details) == report.tally["general_vs_shoelace"] == 3 * 2 * 2
    assert details[1, 0, 1] == "general=1/2 shoelace=0"
    assert details[2, 0, 2] == "general=3 shoelace=5/2"
    assert details[3, 0, 2] == "general=13/2 shoelace=6"


@pytest.mark.parametrize(
    "name",
    [
        "float",  # a float equal to the exact value is not an int
        "float-unequal",  # and one that differs is named the same way, not compared
        "Fraction",  # nor is an exact rational
    ],
    ids=["float-equal", "float-unequal", "Fraction"],
)
def test_a_non_int_twice_area_fails_only_its_check_against_shoelace(name):
    # the CLI's exit 1, and its stderr with each golden row's problem, are cells
    # of the fault matrix
    fault = f"general {faults.CATALOG[name].text}"
    with faults.CATALOG[name].inject():
        report = run_grid_verification(q_max=1, n_max=0, k_max=1)
    # cross_check keeps no twice-area for it, so only its check against shoelace fails
    assert [(f.check, f.detail) for f in report.failures] == [("general_vs_shoelace", fault)]


def test_a_golden_ratio_within_its_decimal_but_not_exact_is_a_problem(capsys):
    # the slab sum +2 at q = 17 only, past the grid: the q = 16 row's ratio reads
    # 161/142.5, within 0.05 of its printed 1.12 but not the exact 16*20/(19*15)
    with faults._at_routes(("general",), lambda f: lambda q, n, k: f(q, n, k) + 2 * (q == 17)):
        report = run_grid_verification(q_max=10, n_max=1, k_max=3)
        assert main(["verify", "--q-max", "10", "--n-max", "1", "--k-max", "3"]) == 1
    assert report.failures == ()
    assert report.golden_problems == ("q=16: ratio 322/285 != 64/57",)
    assert "error: golden row mismatch: q=16: ratio 322/285 != 64/57\n" in capsys.readouterr().err


def test_a_value_past_640_digits_is_written_under_the_lowest_cap(digit_cap):
    # an int route off by 10^700 at every point: the detail and the golden
    # problem each write an area of 700 digits through int_text
    with faults.CATALOG["general-plus-10^700"].inject(), digit_cap(640):
        report = run_grid_verification(q_max=1, n_max=0, k_max=1)
    with digit_cap(0):
        half = str(10**700 // 2)
        golden = str(10**700 + 5) + "/2"  # 2A at q = 2, k = 2 is 5
    assert [(f.check, f.detail) for f in report.failures] == [
        ("general_vs_shoelace", f"general={half} shoelace=0"),
    ]
    assert report.golden_problems[0] == f"q=2: area {golden} != 5/2"


@pytest.mark.parametrize("name", list(areas.ROUTES))
def test_a_route_returning_its_exact_value_as_a_float_fails_naming_it(capsys, name):
    with faults.CATALOG["float"].inject(route=name):
        assert not cross_check(build_polynomial(3, 0, 2)).agree
        report = run_grid_verification(q_max=5, n_max=1, k_max=4)
        assert main(["verify", "--q-max", "5", "--n-max", "1", "--k-max", "4"]) == 1
        assert main(["area", "--q", "3", "--k", "2"]) == 1
    assert f"error: route {name!r} returned float, not an int\n" in capsys.readouterr().err
    # every comparison the route takes part in fails at every point, naming it
    checks = [f"{other}_vs_shoelace" for other in areas.ROUTES
              if other != "shoelace" and name in (other, "shoelace")]
    detail = f"{name} returned float, not an int"
    vs_shoelace = [(f.check, f.detail) for f in report.failures if f.check.endswith("_vs_shoelace")]
    assert set(vs_shoelace) == {(check, detail) for check in checks}
    assert len(vs_shoelace) == sum(report.tally[check] for check in checks)


def test_a_grid_of_only_q_1_points_skips_pick_and_the_structural_checks():
    report = run_grid_verification(q_max=1, n_max=2, k_max=3)
    assert report.passed
    assert tuple(report.tally) == verify.CHECKS
    assert report.tally == {
        "closed_vs_shoelace": 9,
        "general_vs_shoelace": 9,
        "pick_vs_shoelace": 0,
        "scaling_in_n": 6,  # n = 1 and 2
        "vertex_count": 0,
        "simple": 0,
        "chain_slopes": 0,
        "convexity": 0,
        "chain_structure": 0,
    }
    assert (report.points, report.checks, report.pick_checks) == (9, 24, 0)


def test_the_one_comparison_per_input_implies_every_finding_on_it_holds():
    # a point whose inputs pass their comparisons calls no finding; each
    # finding must then return None on such an input, or it would be skipped
    table = verify._TABLE
    for k in range(1, 65):
        expected = core.DiagramDiagnostics(k + 2, False, True, True, True, k == 1)
        assert validate_diagram(build_diagram(build_polynomial(3, 1, k))) == expected
        assert [c.finding(expected, k) for c in table if c.reads == verify._SHAPE] == [None] * 5
    for q, n, k in [(1, 0, 1), (1, 2, 5), (2, 0, 1), (2, 3, 4), (7, 1, 9)]:
        routes = cross_check(build_polynomial(q, n, k))
        assert routes.agree and ("pick" in routes.twice_areas) is (q >= 2)
        findings = [c.finding(routes, k) for c in table
                    if c.reads == verify._ROUTES and c.route in routes.twice_areas]
        assert findings == [None] * (2 + (q >= 2))
        twice = routes.twice_areas["general"]
        [scaling] = [c for c in table if c.reads == verify._SCALING]
        assert scaling.finding((twice, twice), k) is None


def test_a_passing_grid_builds_no_fraction_per_point(monkeypatch):
    # the checks compare int twice-areas; what Fractions a run builds (the
    # golden rows) do not grow with the grid
    built = []
    for module in (areas, verify):
        monkeypatch.setattr(module, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    counts = []
    for q_max, n_max, k_max in [(1, 0, 1), (3, 1, 4)]:
        built.clear()
        report = run_grid_verification(q_max=q_max, n_max=n_max, k_max=k_max)
        assert report.passed
        counts.append((report.points, len(built)))
    assert counts[0][0] == 1 and counts[1][0] == 24
    assert counts[0][1] == counts[1][1] > 0


def test_a_passing_grid_reads_the_route_failure_rule_once_per_route_run(monkeypatch):
    original, calls = areas.route_failure, []
    monkeypatch.setattr(areas, "route_failure",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    report = run_grid_verification(q_max=3, n_max=1, k_max=4)
    assert report.passed
    # closed, general and shoelace at every point, Pick at q >= 2, and two
    # slab sums for each golden row
    golden = 2 * len(verify.GOLDEN_QUADRATIC_ROWS)
    assert len(calls) == 3 * report.points + report.pick_checks + golden


def test_a_raising_slab_sum_fails_its_check_and_skips_only_the_checks_that_read_it():
    with faults.CATALOG["raise-ZeroDivisionError"].inject():
        report = run_grid_verification(q_max=2, n_max=1, k_max=2)
    assert report.tally["general_vs_shoelace"] == len(report.failures) == 8
    raised = "general raised ZeroDivisionError: division by zero"
    assert {f.detail for f in report.failures} == {raised}
    assert report.tally["scaling_in_n"] == 0
    # the other routes and the structural checks still run everywhere they apply
    assert report.tally["closed_vs_shoelace"] == 8 and report.tally["pick_vs_shoelace"] == 4
    assert report.tally["vertex_count"] == 4


def test_a_validation_walk_that_raises_fails_each_structural_check_with_its_text():
    # the cycle's malformed vertex fails both oracles in cross_check, and the
    # structural checks, which read validate_diagram's walk, with its raise
    clean = run_grid_verification(q_max=2, n_max=0, k_max=2)
    with faults.CATALOG["cycle-yields-a-malformed-pair"].inject():
        report = run_grid_verification(q_max=2, n_max=0, k_max=2)
    raised = "raised ValueError: not enough values to unpack (expected 2, got 1)"
    structural = [check.name for check in verify._TABLE if check.reads == verify._SHAPE]
    assert [(f.q, f.check, f.detail) for f in report.failures if f.check in structural] == [
        (2, check, raised) for _ in (1, 2) for check in structural]
    assert report.tally == clean.tally


def test_a_failure_detail_past_640_digits_is_exact_under_the_lowest_cap(digit_cap):
    # the slab sum one unit off at (2, n_max, 1), where 2A = 2^n_max has 663 digits
    n_max = 2200
    with faults.CATALOG["general-plus-1-at-q-2-n-2200"].inject(), digit_cap(640):
        report = run_grid_verification(q_max=2, n_max=n_max, k_max=1)
    half = 2 ** (n_max - 1)
    with digit_cap(0):
        assert [(f.q, f.n, f.k, f.check, f.detail) for f in report.failures] == [
            (2, n_max, 1, "general_vs_shoelace", f"general={2 * half + 1}/2 shoelace={half}"),
            (2, n_max, 1, "scaling_in_n", f"area(n)={2 * half + 1}/2 q*area(n-1)={half}"),
        ]
        assert len(str(2 * half + 1)) == 663
    assert report.golden_problems == ()


CHAIN_STRUCTURE = "x not strictly increasing or y not unit steps"


# the failed checks, and their details at k, of each finding the catalog
# falsifies (its `false-<finding>` entry)
FALSE_FINDINGS = {
    # the chain check also reads the vertex count, so a wrong count fails both
    "vertex_count": {"vertex_count": lambda k: f"count={k + 3} expected={k + 2}",
                     "chain_structure": lambda k: CHAIN_STRUCTURE},
    "simple": {"simple": lambda k: "non-adjacent edges touch"},
    "chain_slopes_increasing": {"chain_slopes": lambda k: "chain slopes not strictly increasing"},
    "convex": {"convexity": lambda k: f"convex={k != 1} expected={k == 1}"},
    "chain_unit_steps": {"chain_structure": lambda k: CHAIN_STRUCTURE},
}


@pytest.mark.parametrize(
    "finding, fault, details",
    [(finding, fault, FALSE_FINDINGS[finding])
     for name, fault in faults.CATALOG.items()
     if (finding := name.removeprefix("false-")) != name],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_a_false_structural_finding_fails_its_check_at_every_point(finding, fault, details):
    clean = run_grid_verification(q_max=3, n_max=1, k_max=3)
    with fault.inject():
        report = run_grid_verification(q_max=3, n_max=1, k_max=3)
    assert [(f.q, f.n, f.k, f.check, f.detail) for f in report.failures] == [
        (q, n, k, check, details[check](k))
        for q in (2, 3) for n in (0, 1) for k in (1, 2, 3)
        for check in verify.CHECKS if check in details
    ]
    assert report.tally == clean.tally
