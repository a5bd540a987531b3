"""Property-based invariants over randomly drawn (q, n, k) parameters."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydiagram import (
    LatticePoint,
    area_general,
    area_sequence,
    area_shoelace,
    build_diagram,
    build_polynomial,
    evaluate_polynomial,
    finite_difference,
    format_decimal,
    interior_lattice_count,
    monomial_map,
    rational_from_json,
    rational_to_json,
)
from polydiagram.core import _is_simple
from references import interior_by_column_scan, simple_by_pairwise_test

bases = st.integers(min_value=1, max_value=50)
shifts = st.integers(min_value=0, max_value=10)
degrees = st.integers(min_value=1, max_value=12)


@given(q=bases, n=shifts, k=degrees)
def test_general_formula_matches_shoelace(q, n, k):
    p = build_polynomial(q, n, k)
    assert area_general(p) == area_shoelace(build_diagram(p))


@given(q=bases, n=shifts, k=degrees)
def test_area_denominator_is_one_or_two(q, n, k):
    assert area_general(build_polynomial(q, n, k)).denominator in (1, 2)


@given(q=bases, n=shifts, k=degrees)
def test_shifting_n_scales_area_by_q(q, n, k):
    base = area_general(build_polynomial(q, n, k))
    assert area_general(build_polynomial(q, n + 1, k)) == q * base


@given(q=bases, n=shifts, k=degrees)
def test_monomial_points_step_by_factor_q(q, n, k):
    pts = monomial_map(build_polynomial(q, n, k))
    assert len(pts) == k + 1
    assert all(a.x * q == b.x for a, b in zip(pts, pts[1:]))
    assert [pt.y for pt in pts] == list(range(k, -1, -1))


@given(
    q=st.integers(min_value=2, max_value=10), n=st.integers(min_value=0, max_value=3), k=degrees
)
def test_interior_count_matches_column_scan(q, n, k):
    d = build_diagram(build_polynomial(q, n, k))
    extent = d.vertices[-1].x - d.vertices[0].x
    assume(extent <= 10**4)
    assert interior_lattice_count(d) == interior_by_column_scan(d)


@st.composite
def cycles_near_diagram_shape(draw, shaped=False):
    """Anchor on y = 0 followed by a chain of small lattice points.

    With shaped=True the cycle has the diagram's shape except that inner
    chain y may be any value >= 0: the first chain vertex sits above the
    anchor, chain x strictly increases and the last vertex is on y = 0.
    Otherwise each of those conditions may fail, so both answers of the
    simplicity test occur.
    """
    x0 = draw(st.integers(min_value=0, max_value=5))
    step = st.integers(min_value=1, max_value=4) if shaped else st.integers(min_value=-1, max_value=2)
    steps = draw(st.lists(step, min_size=1, max_size=8))
    inner = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=len(steps) - 1,
                 max_size=len(steps) - 1)
    )
    first_x = x0 if shaped else x0 + draw(st.sampled_from([-1, 0, 0, 0, 1]))
    first_y = draw(st.integers(min_value=1 if shaped else 0, max_value=4))
    last_y = 0 if shaped else draw(st.integers(min_value=0, max_value=2))
    xs = [first_x]
    for step in steps:
        xs.append(xs[-1] + step)
    ys = [first_y, *inner, last_y]
    return (LatticePoint(x0, 0), *(LatticePoint(x, y) for x, y in zip(xs, ys)))


@given(cycle=cycles_near_diagram_shape(shaped=True))
@settings(max_examples=300)
def test_simplicity_matches_pairwise_test_on_diagram_shapes(cycle):
    assert _is_simple(cycle) == simple_by_pairwise_test(cycle)


@given(cycle=cycles_near_diagram_shape())
@settings(max_examples=1000)
def test_simple_cycles_have_no_contact_between_nonadjacent_edges(cycle):
    # _is_simple may refuse a simple cycle of another shape, but it must
    # never accept one whose non-adjacent edges touch
    if _is_simple(cycle):
        assert simple_by_pairwise_test(cycle)


@given(q=st.integers(min_value=2, max_value=50), n=shifts, k=degrees)
def test_value_at_one_is_the_geometric_sum(q, n, k):
    p = build_polynomial(q, n, k)
    total = evaluate_polynomial(p, 1)
    assert total * (q - 1) == q**n * (q ** (k + 1) - 1)


@given(q=st.integers(min_value=2, max_value=30), n=st.integers(min_value=0, max_value=5))
def test_order_n_plus_3_difference_annihilates_quadratic_family(q, n):
    # the area is a degree-(n+2) polynomial in q
    seq = area_sequence(2, n, q, q + n + 3)
    assert finite_difference(seq, n + 3) == [Fraction(0)]


@given(q=st.integers(min_value=2, max_value=200))
def test_quadratic_family_ratio_identity(q):
    area = area_general(build_polynomial(q, 0, 2))
    ratio = area_general(build_polynomial(q + 1, 0, 2)) / area
    assert ratio == Fraction(q * (q + 4), (q + 3) * (q - 1))


rationals = st.fractions(
    min_value=Fraction(-(10**12)), max_value=Fraction(10**12), max_denominator=10**9
)


@given(value=rationals)
def test_json_rational_round_trip(value):
    assert rational_from_json(rational_to_json(value)) == value


@given(value=rationals, digits=st.integers(min_value=0, max_value=8))
@settings(max_examples=200)
def test_decimal_rendering_is_within_half_a_step(value, digits):
    text = format_decimal(value, digits)
    assert abs(Fraction(text) - value) <= Fraction(1, 2 * 10**digits)
