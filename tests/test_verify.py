"""Grid sweep bookkeeping: each slab sum computed once, failures in grid order."""

from __future__ import annotations

import polydiagram.verify as verify
from polydiagram import run_grid_verification


def test_default_grid_computes_each_slab_sum_once(monkeypatch):
    calls = 0
    original = verify.area_general

    def counting(p):
        nonlocal calls
        calls += 1
        return original(p)

    monkeypatch.setattr(verify, "area_general", counting)
    report = run_grid_verification()
    assert report.passed
    assert (report.checks, report.pick_checks) == (59158, 6468)
    # one n -> n+1 lift per point, one fresh area per n = 0 point, and one
    # per golden-row area or ratio term
    assert calls == 6600 + 50 * 12 + 12 == 7212


def test_failures_stay_in_grid_order_when_the_slab_sum_is_off(monkeypatch):
    original = verify.area_general
    monkeypatch.setattr(verify, "area_general", lambda p: original(p) + (p.n == 1))
    report = run_grid_verification(q_max=2, n_max=2, k_max=2)
    at_q = [
        ((0, 1), "scaling_in_n"),
        ((0, 2), "scaling_in_n"),
        ((1, 1), "area_general_vs_shoelace"),
        ((1, 1), "scaling_in_n"),
        ((1, 2), "area_general_vs_shoelace"),
        ((1, 2), "closed_form_vs_general"),
        ((1, 2), "scaling_in_n"),
    ]
    assert [((f.q, f.n, f.k), f.check) for f in report.failures] == [
        ((q, n, k), check) for q in (1, 2) for (n, k), check in at_q
    ]
    assert report.golden_problems == ()
