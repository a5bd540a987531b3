"""Grid sweep bookkeeping: each slab sum computed once, each check run tallied
by name, failures in grid order."""

from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction
from unittest import mock

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


def test_default_grid_computes_each_slab_sum_once(monkeypatch):
    calls = 0
    general = areas.ROUTES["general"]

    def counting(q, n, k):
        nonlocal calls
        calls += 1
        return general.twice_area(q, n, k)

    # the route table's slab sum, which the golden rows' area_general runs too
    monkeypatch.setitem(areas.ROUTES, "general", general._replace(twice_area=counting))
    report = run_grid_verification()
    assert report.passed
    # every point runs the route and denominator checks, n >= 1 the scaling
    # law, and q >= 2 Pick and the five structural checks
    assert report.tally == {
        "closed_vs_shoelace": 6600,
        "general_vs_shoelace": 6600,
        "pick_vs_shoelace": 6468,
        "reduced_denominator": 6600,
        "scaling_in_n": 6000,
        "vertex_count": 6468,
        "simple": 6468,
        "chain_slopes": 6468,
        "convexity": 6468,
        "chain_structure": 6468,
    }
    assert list(report.tally) == list(verify.CHECKS)
    assert (report.points, report.checks, report.pick_checks) == (6600, 64608, 6468)
    # one per point, and one per golden-row area or ratio term
    assert calls == 6600 + 12 == 6612


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


def test_a_broken_route_fails_only_its_own_check(monkeypatch):
    clean = run_grid_verification(q_max=4, n_max=1, k_max=3)
    pick = areas.ROUTES["pick"]
    # Pick's area one too large: its twice-area two too large
    broken = pick._replace(twice_area=lambda walk: pick.twice_area(walk) + 2)
    monkeypatch.setitem(areas.ROUTES, "pick", broken)
    report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert {f.check for f in report.failures} == {"pick_vs_shoelace"}
    assert len(report.failures) == report.pick_checks == 3 * 2 * 3
    assert report.tally == clean.tally
    assert report.checks == clean.checks
    assert isinstance(hash(report), int)  # the tally leaves a report hashable


def test_failures_stay_in_grid_order_when_the_slab_sum_is_off(monkeypatch):
    general = areas.ROUTES["general"]
    broken = general._replace(twice_area=lambda q, n, k: general.twice_area(q, n, k) + 2 * (n == 1))
    monkeypatch.setitem(areas.ROUTES, "general", broken)
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
    walks = 0
    original = core.VertexCycle.__iter__

    def counting(cycle):
        nonlocal walks
        walks += 1
        return original(cycle)

    monkeypatch.setattr(core.VertexCycle, "__iter__", counting)
    report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert report.passed
    assert walks == report.points == 4 * 2 * 3 == 24


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


def test_a_half_unit_fault_fails_its_check_at_every_point(monkeypatch):
    # a twice-area one too large is an area off by 1/2, and the detail shows the halves
    general = areas.ROUTES["general"]
    broken = general._replace(twice_area=lambda q, n, k: general.twice_area(q, n, k) + 1)
    monkeypatch.setitem(areas.ROUTES, "general", broken)
    report = run_grid_verification(q_max=3, n_max=1, k_max=2)
    details = {(f.q, f.n, f.k): f.detail for f in report.failures
               if f.check == "general_vs_shoelace"}
    assert len(details) == report.tally["general_vs_shoelace"] == 3 * 2 * 2
    assert details[1, 0, 1] == "general=1/2 shoelace=0"
    assert details[2, 0, 2] == "general=3 shoelace=5/2"
    assert details[3, 0, 2] == "general=13/2 shoelace=6"
    assert "reduced_denominator" not in {f.check for f in report.failures}


def test_a_non_integer_twice_area_fails_reduced_denominator(monkeypatch):
    general = areas.ROUTES["general"]
    broken = general._replace(
        twice_area=lambda q, n, k: general.twice_area(q, n, k) + Fraction(1, 3)
    )
    monkeypatch.setitem(areas.ROUTES, "general", broken)
    report = run_grid_verification(q_max=1, n_max=0, k_max=1)
    assert [(f.check, f.detail) for f in report.failures] == [
        ("general_vs_shoelace", "general=1/6 shoelace=0"),
        ("reduced_denominator", "denominator=6"),
    ]


@pytest.mark.parametrize(
    "offset, failures",
    [
        # a float equal to the exact value agrees with shoelace, and is not exact
        (0.0, [("reduced_denominator", "not an exact rational: float")]),
        # one that differs is shown as the route gave it
        (0.5, [("general_vs_shoelace", "general=0.5/2 shoelace=0"),
               ("reduced_denominator", "not an exact rational: float")]),
    ],
)
def test_a_non_rational_twice_area_fails_reduced_denominator_naming_its_type(
    capsys, offset, failures
):
    general = areas.ROUTES["general"]
    floating = general._replace(
        twice_area=lambda q, n, k: float(general.twice_area(q, n, k)) + offset
    )
    with mock.patch.dict(areas.ROUTES, general=floating):
        report = run_grid_verification(q_max=1, n_max=0, k_max=1)
        assert main(["verify", "--q-max", "1", "--n-max", "0", "--k-max", "1"]) == 1
    assert [(f.check, f.detail) for f in report.failures] == failures
    # stderr names the first failure
    assert "{}: {}".format(*failures[0]) in capsys.readouterr().err


def test_a_grid_of_only_q_1_points_skips_pick_and_the_structural_checks():
    report = run_grid_verification(q_max=1, n_max=2, k_max=3)
    assert report.passed
    assert tuple(report.tally) == verify.CHECKS
    assert report.tally == {
        "closed_vs_shoelace": 9,
        "general_vs_shoelace": 9,
        "pick_vs_shoelace": 0,
        "reduced_denominator": 9,
        "scaling_in_n": 6,  # n = 1 and 2
        "vertex_count": 0,
        "simple": 0,
        "chain_slopes": 0,
        "convexity": 0,
        "chain_structure": 0,
    }
    assert (report.points, report.checks, report.pick_checks) == (9, 33, 0)


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
        [denominator] = [c for c in table if c.reads == verify._SLAB]
        [scaling] = [c for c in table if c.reads == verify._SCALING]
        assert denominator.finding(twice, k) is None and scaling.finding((twice, twice), k) is None


def test_a_passing_grid_builds_no_fraction_per_point(monkeypatch):
    # the checks compare int twice-areas; what Fractions a run builds (the
    # golden rows) do not grow with the grid
    built = 0

    def counting(*args):
        nonlocal built
        built += 1
        return Fraction(*args)

    monkeypatch.setattr(areas, "Fraction", counting)
    monkeypatch.setattr(verify, "Fraction", counting)
    counts = []
    for q_max, n_max, k_max in [(1, 0, 1), (3, 1, 4)]:
        built = 0
        report = run_grid_verification(q_max=q_max, n_max=n_max, k_max=k_max)
        assert report.passed
        counts.append((report.points, built))
    assert counts[0][0] == 1 and counts[1][0] == 24
    assert counts[0][1] == counts[1][1] > 0


def test_a_raising_slab_sum_fails_its_check_and_skips_only_the_checks_that_read_it(monkeypatch):
    def raising(q, n, k):
        raise ZeroDivisionError("division by zero")

    general = areas.ROUTES["general"]
    monkeypatch.setitem(areas.ROUTES, "general", general._replace(twice_area=raising))
    report = run_grid_verification(q_max=2, n_max=1, k_max=2)
    assert report.tally["general_vs_shoelace"] == len(report.failures) == 8
    raised = "general raised ZeroDivisionError: division by zero"
    assert {f.detail for f in report.failures} == {raised}
    assert report.tally["reduced_denominator"] == report.tally["scaling_in_n"] == 0
    # the other routes and the structural checks still run everywhere they apply
    assert report.tally["closed_vs_shoelace"] == 8 and report.tally["pick_vs_shoelace"] == 4
    assert report.tally["vertex_count"] == 4
    assert report.golden_problems == tuple(f"q={q}: {raised}" for q in (2, 3, 4, 5, 6, 16))


# every field of DiagramDiagnostics, in order, for building one by keyword
FINDINGS = ("vertex_count", "degenerate", "simple", "chain_slopes_increasing",
            "chain_unit_steps", "convex")
CHAIN_STRUCTURE = "x not strictly increasing or y not unit steps"


@pytest.mark.parametrize(
    "finding, fault, details",
    [
        # the chain check also reads the vertex count, so a wrong count fails both
        ("vertex_count", lambda count: count + 1,
         {"vertex_count": lambda k: f"count={k + 3} expected={k + 2}",
          "chain_structure": lambda k: CHAIN_STRUCTURE}),
        ("simple", lambda _: False, {"simple": lambda k: "non-adjacent edges touch"}),
        ("chain_slopes_increasing", lambda _: False,
         {"chain_slopes": lambda k: "chain slopes not strictly increasing"}),
        ("convex", lambda convex: not convex,
         {"convexity": lambda k: f"convex={k != 1} expected={k == 1}"}),
        ("chain_unit_steps", lambda _: False, {"chain_structure": lambda k: CHAIN_STRUCTURE}),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_a_false_structural_finding_fails_its_check_at_every_point(
    monkeypatch, finding, fault, details
):
    clean = run_grid_verification(q_max=3, n_max=1, k_max=3)
    validate = verify.validate_diagram

    def falsified(d):
        diag = validate(d)
        fields = {name: getattr(diag, name) for name in FINDINGS}
        fields[finding] = fault(fields[finding])
        return core.DiagramDiagnostics(**fields)

    monkeypatch.setattr(verify, "validate_diagram", falsified)
    report = run_grid_verification(q_max=3, n_max=1, k_max=3)
    assert [(f.q, f.n, f.k, f.check, f.detail) for f in report.failures] == [
        (q, n, k, check, details[check](k))
        for q in (2, 3) for n in (0, 1) for k in (1, 2, 3)
        for check in verify.CHECKS if check in details
    ]
    assert report.tally == clean.tally
