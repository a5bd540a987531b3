"""Acceptance sweep: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line once its assertions hold; run with
`pytest -s tests/test_acceptance.py` to see them.  The failure of any
assertion is reported by pytest as usual, in which case no line is printed.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from polydiagram import (
    area_general,
    area_pick,
    area_sequence,
    area_shoelace,
    build_diagram,
    build_polynomial,
    finite_difference,
    lattice_counts,
    validate_diagram,
)
from polydiagram.cli import main
from polydiagram.formats import rational_from_json
from references import area_closed_form_k2, trapezoid_area, triangle_area

GRID = list(itertools.product(range(1, 51), range(11), range(1, 13)))


def _report(number: int, text: str) -> None:
    print(f"acceptance {number}: PASS - {text}")


def test_criterion_1_golden_quadratic_rows():
    expected = {
        2: (Fraction(5, 2), "2.4"),
        3: (Fraction(6), "1.75"),
        4: (Fraction(21, 2), "1.52"),
        5: (Fraction(16), "1.4"),
        6: (Fraction(45, 2), "1.3"),
        16: (Fraction(285, 2), "1.12"),
    }
    for q, (area, ratio_text) in expected.items():
        assert area_general(build_polynomial(q, 0, 2)) == area
        ratio = area_general(build_polynomial(q + 1, 0, 2)) / area
        assert abs(ratio - Fraction(ratio_text)) <= Fraction(5, 100)
    _report(1, "golden rows exact, decimal ratios within 0.05")


def test_criterion_2_oracle_equivalence_over_grid():
    start = time.perf_counter()
    for q, n, k in GRID:
        p = build_polynomial(q, n, k)
        assert area_general(p) == area_shoelace(build_diagram(p)), (q, n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"general == shoelace on {len(GRID)} points in {elapsed:.2f}s")


def test_criterion_3_closed_form_consistency():
    for q in range(1, 1001):
        for n in range(21):
            p = build_polynomial(q, n, 2)
            closed = area_closed_form_k2(q, n)
            assert closed == area_general(p), (q, n)
            assert closed == trapezoid_area(p, 0) + triangle_area(p), (q, n)
    _report(3, "closed form and slab decomposition agree on 21021 points")


def test_criterion_4_second_difference_behaviour():
    seq = area_sequence(2, 0, 1, 1002)
    diffs = finite_difference(seq, 2)
    assert len(diffs) == 1000
    assert all(value == 1 for value in diffs)
    for k, n in ((3, 0), (2, 1)):
        window = finite_difference(area_sequence(k, n, 2, 10), 2)
        assert len(set(window)) > 1, (k, n)
    _report(4, "second difference is 1 for (k=2, n=0) and non-constant otherwise")


def test_criterion_5_ratio_identity_and_limit_behaviour():
    previous = None
    for q in range(2, 101):
        area = area_general(build_polynomial(q, 0, 2))
        ratio = area_general(build_polynomial(q + 1, 0, 2)) / area
        # cross-multiplied identity check: ratio == q(q+4) / ((q+3)(q-1))
        assert ratio.numerator * (q + 3) * (q - 1) == q * (q + 4) * ratio.denominator
        assert ratio > 1
        if previous is not None:
            assert ratio < previous
        previous = ratio
    q = 10**6
    big = area_general(build_polynomial(q + 1, 0, 2)) / area_general(build_polynomial(q, 0, 2))
    assert abs(big - 1) < Fraction(1, 10**5)
    _report(5, "ratio identity holds for q in 2..100, |ratio-1| < 1e-5 at q=1e6")


def test_criterion_6_pick_oracle():
    points = 0
    for q in range(2, 5):
        for n in range(3):
            for k in range(1, 4):
                d = build_diagram(build_polynomial(q, n, k))
                assert area_pick(d) == area_shoelace(d), (q, n, k)
                points += 1
    d = build_diagram(build_polynomial(2, 0, 2))
    assert lattice_counts(d) == (0, 7)
    assert area_pick(d) == Fraction(5, 2)
    _report(6, f"pick == shoelace on {points} points; (2,0,2) has I=0, B=7, area 5/2")


def test_criterion_7_structural_invariants():
    for q, n, k in GRID:
        if q < 2:
            continue
        p = build_polynomial(q, n, k)
        diag = validate_diagram(build_diagram(p))
        assert diag.vertex_count == k + 2, (q, n, k)
        assert diag.simple, (q, n, k)
        assert diag.chain_slopes_increasing, (q, n, k)
        assert diag.convex == (k == 1), (q, n, k)
        assert area_general(p).denominator in (1, 2), (q, n, k)
    _report(7, "all q >= 2 diagrams simple, slope-monotone, non-convex iff k >= 2")


def test_criterion_8_scaling_in_n():
    for q, n, k in GRID:
        base = area_general(build_polynomial(q, n, k))
        lifted = area_general(build_polynomial(q, n + 1, k))
        assert lifted == q * base, (q, n, k)
    _report(8, "area(q, n+1, k) == q * area(q, n, k) across the grid")


def test_criterion_9_cli_contract(capsys):
    # default verification grid exits 0
    assert main(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True

    # table output is byte-deterministic
    assert main(["table"]) == 0
    first = capsys.readouterr().out
    assert main(["table"]) == 0
    assert capsys.readouterr().out == first

    # JSON round-trips rationals losslessly on 100 seeded random grid points
    rng = random.Random(20260810)
    for _ in range(100):
        q = rng.randint(1, 50)
        n = rng.randint(0, 10)
        k = rng.randint(1, 12)
        code = main(
            ["area", "--q", str(q), "--n", str(n), "--k", str(k),
             "--method", "general", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        decoded = rational_from_json(doc["results"][0]["area"])
        assert decoded == area_general(build_polynomial(q, n, k)), (q, n, k)
    _report(9, "verify exits 0, table is deterministic, JSON round-trips 100 points")
