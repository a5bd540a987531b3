"""Grid sweep bookkeeping: each slab sum computed once, each check run tallied
by name, failures in grid order."""

from __future__ import annotations

import polydiagram.areas as areas
import polydiagram.verify as verify
from polydiagram import run_grid_verification


def test_default_grid_computes_each_slab_sum_once(monkeypatch):
    calls = 0
    original = areas.area_general

    def counting(p):
        nonlocal calls
        calls += 1
        return original(p)

    # the route table's slab sum, and the golden rows' own
    monkeypatch.setattr(areas, "area_general", counting)
    monkeypatch.setattr(verify, "area_general", counting)
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


def test_a_broken_route_fails_only_its_own_check(monkeypatch):
    clean = run_grid_verification(q_max=4, n_max=1, k_max=3)
    original = areas.ROUTES["pick"]
    monkeypatch.setitem(areas.ROUTES, "pick", lambda d: original(d) + 1)
    report = run_grid_verification(q_max=4, n_max=1, k_max=3)
    assert {f.check for f in report.failures} == {"pick_vs_shoelace"}
    assert len(report.failures) == report.pick_checks == 3 * 2 * 3
    assert report.tally == clean.tally
    assert report.checks == clean.checks
    assert isinstance(hash(report), int)  # the tally leaves a report hashable


def test_failures_stay_in_grid_order_when_the_slab_sum_is_off(monkeypatch):
    original = areas.area_general
    monkeypatch.setattr(areas, "area_general", lambda p: original(p) + (p.n == 1))
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
