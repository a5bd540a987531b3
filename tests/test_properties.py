"""Property-based invariants over randomly drawn (q, n, k) parameters."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydiagram import (
    ROUTES,
    AreaSequence,
    PolynomialDiagram,
    area_closed_form,
    area_general,
    area_pick,
    area_sequence,
    area_shoelace,
    build_diagram,
    build_polynomial,
    cross_check,
    diagram_svg,
    finite_difference,
    format_decimal,
    lattice_counts,
    rational_from_json,
    ratio_sequence,
    validate_diagram,
)
from polydiagram.areas import _SLAB_LEAF as _LEAF
from polydiagram.areas import _slab_sum, _walk_cycle, route_area, route_refusal
from polydiagram.core import _walk_shape
from polydiagram.render import RenderSpec
from references import (
    LatticePoint,
    area_by_edge_shoelace,
    boundary_by_gcd,
    chain_steps_down_from,
    convex_by_all_turns,
    decimal_by_fraction_round,
    difference_by_fraction_sums,
    interior_by_column_scan,
    interior_by_edge_terms,
    materialized_diagram,
    monomial_points_by_loop,
    rational_to_json,
    simple_by_pairwise_test,
    slab_sum_by_running_power,
    slopes_increasing_by_triples,
)

bases = st.integers(min_value=1, max_value=50)
shifts = st.integers(min_value=0, max_value=10)
degrees = st.integers(min_value=1, max_value=12)


@given(q=bases, n=shifts, k=degrees)
def test_general_formula_matches_shoelace(q, n, k):
    p = build_polynomial(q, n, k)
    assert area_general(p) == area_shoelace(build_diagram(p))


@given(
    q=st.integers(min_value=1, max_value=200),
    n=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=1, max_value=300),
)
def test_closed_form_matches_slab_sum(q, n, k):
    p = build_polynomial(q, n, k)
    assert area_closed_form(p) == area_general(p)


@given(
    q=st.integers(min_value=1, max_value=200),
    n=st.integers(min_value=0, max_value=30),
    k=st.sampled_from([_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1])
    | st.integers(min_value=1, max_value=5 * _LEAF),
)
@example(q=1, n=3, k=2 * _LEAF + 1)
@example(q=2, n=1, k=_LEAF - 1)
@example(q=3, n=2, k=_LEAF)
@example(q=5, n=4, k=_LEAF + 1)
@example(q=7, n=1, k=2 * _LEAF + 1)
def test_slab_sum_matches_running_power_sum(q, n, k):
    # Horner's rule up to the leaf size, binary splitting above it
    p = build_polynomial(q, n, k)
    assert Fraction(_slab_sum(q, n, k), 2) == slab_sum_by_running_power(p) == area_closed_form(p)


@given(q=bases, n=shifts, k=degrees)
@example(q=1, n=0, k=3)
@example(q=1, n=2, k=1)
def test_each_route_entry_returns_twice_the_area_as_an_int(q, n, k):
    # every route but Pick applies at q = 1; route_area and AreaCrossCheck.areas halve
    p = build_polynomial(q, n, k)
    d = build_diagram(p)
    walk = _walk_cycle(d.vertices)
    for name, route in ROUTES.items():
        if route_refusal(name, p) is None:
            twice = route.twice_area(walk) if route.reads_diagram else route.twice_area(q, n, k)
            assert type(twice) is int
            assert twice == 2 * route_area(name, p, d)
        else:
            assert (name, q) == ("pick", 1)
    check = cross_check(p, d)
    assert list(check.twice_areas) == list(check.areas)
    assert check.areas == {name: Fraction(t, 2) for name, t in check.twice_areas.items()}


@given(q=bases, n=shifts, k=degrees)
def test_area_denominator_is_one_or_two(q, n, k):
    assert area_general(build_polynomial(q, n, k)).denominator in (1, 2)


@given(q=bases, n=shifts, k=degrees)
def test_shifting_n_scales_area_by_q(q, n, k):
    base = area_general(build_polynomial(q, n, k))
    assert area_general(build_polynomial(q, n + 1, k)) == q * base


@given(q=bases, n=shifts, k=degrees)
def test_monomial_points_step_by_factor_q(q, n, k):
    pts = list(build_diagram(build_polynomial(q, n, k)).vertices)[1:]
    assert len(pts) == k + 1
    assert all(ax * q == bx for (ax, _), (bx, _) in zip(pts, pts[1:]))
    assert [y for _, y in pts] == list(range(k, -1, -1))


@given(
    q=st.integers(min_value=1, max_value=200),
    n=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=1, max_value=300),
)
def test_monomial_map_matches_point_by_point_loop(q, n, k):
    # the diagram's cycle regenerates the anchor and then the monomial map
    p = build_polynomial(q, n, k)
    cycle = build_diagram(p).vertices
    for _ in range(2):  # every pass yields the same vertices
        pts = list(cycle)
        assert pts == [(q**n, 0), *monomial_points_by_loop(p)]
        assert all(type(pt) is tuple and len(pt) == 2 for pt in pts)


@given(
    q=st.integers(min_value=2, max_value=10), n=st.integers(min_value=0, max_value=3), k=degrees
)
def test_interior_count_matches_column_scan(q, n, k):
    d = build_diagram(build_polynomial(q, n, k))
    extent = q ** (n + k) - q**n  # the last vertex's x less the anchor's
    assume(extent <= 10**4)
    interior, boundary = lattice_counts(d)
    assert interior == interior_by_column_scan(d)
    assert boundary == boundary_by_gcd(d)


@given(q=bases, n=shifts, k=degrees)
def test_streamed_diagram_reads_like_the_materialized_tuple(q, n, k):
    # every reader of the regenerated cycle gives what it gives on the
    # stored vertex tuple the diagram used to be
    p = build_polynomial(q, n, k)
    streamed, stored = build_diagram(p), materialized_diagram(p)
    assert tuple(streamed.vertices) == stored.vertices
    for name in ROUTES:
        if route_refusal(name, p) is None:
            assert route_area(name, p, streamed) == route_area(name, p, stored)
    assert cross_check(p, streamed) == cross_check(p, stored)
    assert validate_diagram(streamed) == validate_diagram(stored)
    assert area_shoelace(streamed) == area_shoelace(stored)
    if q >= 2:
        interior, boundary = lattice_counts(streamed)
        assert lattice_counts(stored) == (interior, boundary)
        assert interior == interior_by_edge_terms(stored)
        assert boundary == boundary_by_gcd(stored)
        assert area_pick(streamed) == area_pick(stored)
    for log_x in (False, True):
        spec = RenderSpec(log_x=log_x)
        assert "".join(diagram_svg(streamed, spec)) == "".join(diagram_svg(stored, spec))


def as_diagram(vertices):
    """A diagram record around an arbitrary cycle, non-degenerate by its q = 2 source."""
    return PolynomialDiagram(tuple(vertices), build_polynomial(2, 0, 1))


wide_coordinates = st.one_of(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-(2**200), max_value=2**200)
)
wide_cycles = st.lists(st.builds(LatticePoint, wide_coordinates, wide_coordinates),
                       min_size=3, max_size=40)

def _cycle(*vertices):
    """The lattice points of (x, y) pairs, as a list like the strategies draw."""
    return [LatticePoint(x, y) for x, y in vertices]


# The edges of the shoelace runs, each the sum of x since the coefficient last
# changed: a first run of coefficient 0 (the second chain vertex back on the
# anchor's row), a coefficient change at every vertex, one run through the chain.
_RUN_EDGE_CYCLES = (
    _cycle((1, 0), (1, 2), (2**200, 0), (2**201 + 3, 1)),
    _cycle((2**200, 0), (-7, 1), (2**199, 3), (-(2**150), 6), (5, 10)),
    _cycle((3, 0), (2**200, 10), (-4, 2), (2**180, 12), (9, 4), (-(2**200), 14)),
)


@given(cycle=wide_cycles)
@example(cycle=_RUN_EDGE_CYCLES[0])
@example(cycle=_RUN_EDGE_CYCLES[1])
@example(cycle=_RUN_EDGE_CYCLES[2])
@settings(max_examples=300)
def test_vertex_form_shoelace_matches_edge_products(cycle):
    forward, backward = as_diagram(cycle), as_diagram(reversed(cycle))
    assert area_shoelace(forward) == area_by_edge_shoelace(forward)
    assert area_shoelace(backward) == area_by_edge_shoelace(backward) == area_shoelace(forward)


@st.composite
def few_height_cycles(draw):
    """Cycles whose y come from two or three values, so shoelace coefficients repeat in runs."""
    heights = draw(st.lists(wide_coordinates, min_size=2, max_size=3, unique=True))
    size = draw(st.integers(min_value=3, max_value=40))
    ys = draw(st.lists(st.sampled_from(heights), min_size=size, max_size=size))
    xs = draw(st.lists(wide_coordinates, min_size=size, max_size=size))
    return [LatticePoint(x, y) for x, y in zip(xs, ys)]


@given(cycle=few_height_cycles())
@example(cycle=_RUN_EDGE_CYCLES[0])
@example(cycle=_RUN_EDGE_CYCLES[1])
@example(cycle=_RUN_EDGE_CYCLES[2])
@settings(max_examples=300)
def test_run_grouped_shoelace_matches_edge_products_on_repeated_heights(cycle):
    forward, backward = as_diagram(cycle), as_diagram(reversed(cycle))
    assert area_shoelace(forward) == area_by_edge_shoelace(forward)
    assert area_shoelace(backward) == area_by_edge_shoelace(backward)


@st.composite
def unit_descent_chains(draw):
    """Anchor, then a chain stepping right by random gaps and down by exactly one.

    The gaps are unrelated to one another, so the chain is not a diagram's
    geometric one, and the start height may leave later vertices below 0.
    """
    x = draw(wide_coordinates)
    y = draw(st.integers(min_value=-3, max_value=60))
    gaps = draw(
        st.lists(st.one_of(st.integers(min_value=1, max_value=9),
                           st.integers(min_value=1, max_value=2**200)),
                 min_size=1, max_size=39)
    )
    chain = [LatticePoint(x, y)]
    for gap in gaps:
        chain.append(LatticePoint(chain[-1].x + gap, chain[-1].y - 1))
    return [LatticePoint(x, 0), *chain]


# The same run edges on unit-descent chains, whose inner vertices all have
# coefficient -2: the first chain vertex one above the anchor's row (a first
# run of coefficient 0), a first coefficient neither 0 nor -2 on a four-vertex
# cycle (a change at every vertex), and the first chain vertex one below the
# anchor's row (coefficient -2 through the chain).
_RUN_EDGE_CHAINS = (
    _cycle((3, 0), (3, 1), (2**200, 0), (2**200 + 7, -1), (2**201, -2)),
    _cycle((-5, 0), (-5, 5), (2**150, 4), (2**200, 3)),
    _cycle((7, 0), (7, -1), (9, -2), (2**200, -3), (2**200 + 1, -4)),
)
_FAR_ANCHOR = LatticePoint(-(2**200), 3)


@given(vertices=unit_descent_chains(), anchor=st.builds(LatticePoint, wide_coordinates,
                                                       wide_coordinates))
@example(vertices=_RUN_EDGE_CHAINS[0], anchor=_FAR_ANCHOR)
@example(vertices=_RUN_EDGE_CHAINS[1], anchor=_FAR_ANCHOR)
@example(vertices=_RUN_EDGE_CHAINS[2], anchor=_FAR_ANCHOR)
@settings(max_examples=300)
def test_unit_edges_skip_nothing_in_boundary_or_shoelace(vertices, anchor):
    # forwards every chain edge has dy = -1, backwards dy = +1; the boundary
    # count reads only forward chains, whose every edge it checks, and takes
    # the anchor and closing edges' gcds wherever the anchor lies
    forward, backward = as_diagram(vertices), as_diagram(reversed(vertices))
    for d in (forward, as_diagram([anchor, *vertices[1:]])):
        assert lattice_counts(d)[1] == boundary_by_gcd(d)
    for d in (forward, backward):
        assert area_shoelace(d) == area_by_edge_shoelace(d)


@given(vertices=unit_descent_chains())
@example(vertices=_RUN_EDGE_CHAINS[0])
@example(vertices=_RUN_EDGE_CHAINS[1])
@example(vertices=_RUN_EDGE_CHAINS[2])
@settings(max_examples=300)
def test_interior_sum_by_parts_matches_edge_terms(vertices):
    d = as_diagram(vertices)
    assert lattice_counts(d)[0] == interior_by_edge_terms(d)


@given(vertices=unit_descent_chains(), data=st.data())
def test_interior_sum_by_parts_checks_every_edge(vertices, data):
    # Lift one chain vertex by a nonzero amount: an edge at or next to it,
    # wherever it sits in the chain, no longer descends by exactly one.
    i = data.draw(st.integers(min_value=1, max_value=len(vertices) - 1))
    lift = data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
    vertices[i] = LatticePoint(vertices[i].x, vertices[i].y + lift)
    with pytest.raises(ValueError, match="down by one"):
        lattice_counts(as_diagram(vertices))


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


def _is_simple(cycle):
    return validate_diagram(as_diagram(cycle)).simple


@given(cycle=cycles_near_diagram_shape(shaped=True))
@settings(max_examples=300)
def test_simplicity_matches_pairwise_test_on_diagram_shapes(cycle):
    assert _is_simple(cycle) == simple_by_pairwise_test(cycle)


@given(cycle=st.one_of(cycles_near_diagram_shape(), st.lists(
    st.builds(LatticePoint, st.integers(min_value=-4, max_value=4),
              st.integers(min_value=-4, max_value=4)), max_size=9)))
@settings(max_examples=500)
def test_shape_walk_counts_and_checks_slopes_like_the_former_passes(cycle):
    # one walk counts the vertices and tests the slopes; the former code
    # took len() and compared every triple of the chain
    diagnostics = validate_diagram(as_diagram(cycle))
    assert diagnostics.vertex_count == len(cycle)
    assert diagnostics.chain_slopes_increasing == slopes_increasing_by_triples(cycle)


@given(cycle=cycles_near_diagram_shape())
@settings(max_examples=1000)
def test_simple_cycles_have_no_contact_between_nonadjacent_edges(cycle):
    # _is_simple may refuse a simple cycle of another shape, but it must
    # never accept one whose non-adjacent edges touch
    if _is_simple(cycle):
        assert simple_by_pairwise_test(cycle)


lattice_cycles = st.lists(
    st.builds(LatticePoint, st.integers(min_value=-4, max_value=4),
              st.integers(min_value=-4, max_value=4)),
    min_size=3,
    max_size=9,
).map(tuple)


@given(cycle=lattice_cycles)
@settings(max_examples=500)
def test_early_exit_convexity_matches_all_turns(cycle):
    # the shape walk's verdict, from its one turn per vertex and the two wrap turns
    assert _walk_shape(cycle)[4] == convex_by_all_turns(cycle)


@st.composite
def equal_y_step_cycles(draw):
    """An anchor, then a chain whose edges all share one y-step in -2..2, 0 included.

    The anchor and the first chain vertex, and every x-step, may be up to
    2**200 wide, and the x-steps come from a pool of at most three, so
    consecutive ones are often equal.
    """
    y_step = draw(st.integers(min_value=-2, max_value=2))
    pool = draw(st.lists(wide_coordinates, min_size=1, max_size=3))
    x_steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    anchor = LatticePoint(draw(wide_coordinates), 0)
    chain = [draw(st.builds(LatticePoint, wide_coordinates, wide_coordinates))]
    for x_step in x_steps:
        chain.append(LatticePoint(chain[-1].x + x_step, chain[-1].y + y_step))
    return (anchor, *chain)


@given(cycle=equal_y_step_cycles())
@settings(max_examples=500)
def test_turns_between_equal_y_steps_match_the_cross_product(cycle):
    # where consecutive edges share a y-step the walk signs the turn by a
    # comparison; both references form the full cross product of every turn
    assert validate_diagram(as_diagram(cycle)).chain_slopes_increasing == (
        slopes_increasing_by_triples(cycle))
    assert _walk_shape(cycle)[4] == convex_by_all_turns(cycle)


@given(cycle=st.one_of(lattice_cycles, cycles_near_diagram_shape(shaped=True),
                       unit_descent_chains().map(tuple)),
       k=st.integers(min_value=0, max_value=8))
@settings(max_examples=500)
def test_chain_structure_from_the_shape_walk_matches_the_former_check(cycle, k):
    # the sweep's chain_structure verdict, read off validate_diagram's one walk
    diagnostics = validate_diagram(as_diagram(cycle))
    verdict = diagnostics.chain_unit_steps and diagnostics.vertex_count == k + 2
    assert verdict == chain_steps_down_from(k, cycle)


@given(q=st.integers(min_value=2, max_value=50), n=shifts, k=degrees)
def test_value_at_one_is_the_geometric_sum(q, n, k):
    # the polynomial at x = 1 is the sum of its coefficients, the chain's x
    total = sum(x for x, _ in list(build_diagram(build_polynomial(q, n, k)).vertices)[1:])
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


digit_counts = st.integers(min_value=0, max_value=8)


@given(value=rationals, digits=digit_counts)
@settings(max_examples=300)
def test_decimal_rendering_matches_fraction_rounding(value, digits):
    assert format_decimal(value, digits) == decimal_by_fraction_round(value, digits)


@given(
    steps=st.integers(min_value=-(10**12), max_value=10**12),
    digits=digit_counts,
    halving=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300)
def test_decimal_rendering_ties_match_fraction_rounding(steps, digits, halving):
    # exactly half-way between two rendered values, at the last place or
    # (halving > 0) at a place beyond it
    value = Fraction(2 * steps + 1, 2 * 10**digits * 2**halving)
    assert format_decimal(value, digits) == decimal_by_fraction_round(value, digits)


@given(
    values=st.lists(
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
        min_size=2,
        max_size=12,
    ),
    data=st.data(),
)
def test_finite_difference_matches_fraction_sums(values, data):
    order = data.draw(st.integers(min_value=1, max_value=len(values) - 1))
    s = AreaSequence(k=1, n=0, q_start=1, values=tuple(values))
    assert finite_difference(s, order) == difference_by_fraction_sums(s, order)


@given(
    values=st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_ratio_sequence_is_fraction_division(values):
    # any sign and zero, so the cross-multiplied form must move a negative sign
    s = AreaSequence(k=1, n=0, q_start=1, values=tuple(values))
    ratios = ratio_sequence(s)
    assert ratios == [b / a if a else None for a, b in zip(values, values[1:])]
    assert all(r is None or r.denominator > 0 for r in ratios)
