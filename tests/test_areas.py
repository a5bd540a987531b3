"""Area routes: closed form, slab decomposition, shoelace, and Pick counting."""

from __future__ import annotations

import re
import tracemalloc
from fractions import Fraction

import pytest

import polydiagram.areas as areas
import polydiagram.core as core
from polydiagram import (
    ROUTES,
    AreaCrossCheck,
    PolynomialDiagram,
    area_closed_form,
    area_general,
    area_pick,
    area_shoelace,
    build_diagram,
    build_polynomial,
    cross_check,
    lattice_counts,
    validate_diagram,
)
from polydiagram.areas import route_area, route_failure, route_refusal
import faults
from references import (
    LatticePoint,
    area_closed_form_k2,
    boundary_by_gcd,
    interior_by_column_scan,
    materialized_diagram,
    trapezoid_area,
    triangle_area,
)

PICK_AT_Q_1 = "route 'pick' needs q >= 2 (a q = 1 diagram has no interior), got q = 1"


class TestClosedForm:
    def test_base_two(self):
        assert area_closed_form(build_polynomial(2, 0, 2)) == Fraction(5, 2)

    def test_base_sixteen(self):
        assert area_closed_form(build_polynomial(16, 0, 2)) == Fraction(285, 2)

    def test_degenerate_is_zero(self):
        assert area_closed_form(build_polynomial(1, 5, 2)) == 0

    def test_shifted_base_two(self):
        # shoelace over (2,0),(2,2),(4,1),(8,0) gives |4-6-8|/2 = 5
        assert area_closed_form(build_polynomial(2, 1, 2)) == 5

    def test_rejects_invalid_parameters(self):
        # the formula is reached only through a validated triple
        with pytest.raises(ValueError):
            area_closed_form(build_polynomial(0, 0, 2))

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_reduces_to_the_degree_two_formula(self, q, n):
        # q^n (q^2 - 3 + 2(q^2 - q)/(q - 1)) / 2 = q^n (q+3)(q-1) / 2
        assert area_closed_form(build_polynomial(q, n, 2)) == area_closed_form_k2(q, n)

    def test_cubic_base_two(self):
        # 2^3 - 5 + 2(2^3 - 2) = 15
        assert area_closed_form(build_polynomial(2, 0, 3)) == Fraction(15, 2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_huge_degree_matches_slab_sum(self, q):
        p = build_polynomial(q, 0, 20000)
        assert area_closed_form(p) == area_general(p)


class TestTrapezoid:
    def test_first_slab_of_quadratic(self):
        assert trapezoid_area(build_polynomial(2, 0, 2), 0) == Fraction(3, 2)

    def test_second_slab_of_cubic(self):
        # parallel sides 2 and 1, width 2
        assert trapezoid_area(build_polynomial(2, 0, 3), 1) == 3

    def test_degenerate_slab_is_zero_width(self):
        assert trapezoid_area(build_polynomial(1, 0, 3), 0) == 0

    @pytest.mark.parametrize("m", [-1, 1, 5])
    def test_rejects_out_of_range_slab(self, m):
        with pytest.raises(ValueError, match="m"):
            trapezoid_area(build_polynomial(2, 0, 2), m)


class TestTriangle:
    def test_quadratic(self):
        assert triangle_area(build_polynomial(2, 0, 2)) == 1

    def test_linear(self):
        assert triangle_area(build_polynomial(3, 0, 1)) == 1

    def test_shifted_cubic(self):
        assert triangle_area(build_polynomial(2, 1, 3)) == 4


class TestGeneral:
    def test_quadratic_base_five(self):
        assert area_general(build_polynomial(5, 0, 2)) == 16

    def test_cubic_base_two(self):
        assert area_general(build_polynomial(2, 0, 3)) == Fraction(15, 2)

    def test_degenerate_is_zero(self):
        assert area_general(build_polynomial(1, 4, 7)) == 0

    def test_linear_is_just_the_triangle(self):
        p = build_polynomial(4, 2, 1)
        assert area_general(p) == triangle_area(p)

    @pytest.mark.parametrize("q", [1, 2, 3, 9, 100])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_quadratic_decomposition_matches_closed_form(self, q, n):
        p = build_polynomial(q, n, 2)
        total = trapezoid_area(p, 0) + triangle_area(p)
        assert total == area_general(p) == area_closed_form(p)


class TestShoelace:
    def test_quadratic(self):
        assert area_shoelace(build_diagram(build_polynomial(2, 0, 2))) == Fraction(5, 2)

    def test_degenerate_collinear_cycle(self):
        assert area_shoelace(build_diagram(build_polynomial(1, 0, 2))) == 0

    def test_cubic(self):
        # cross-product cycle sum is 3 - 4 - 6 - 8 + 0 = -15
        assert area_shoelace(build_diagram(build_polynomial(2, 0, 3))) == Fraction(15, 2)

    def test_a_cycle_pick_refuses_keeps_its_area(self):
        # the walk Pick shares records its flat top edge without forming any
        # text, so an x past the int->str digit cap leaves the sum exact
        wide = 10**5000
        d = PolynomialDiagram([(1, 0), (1, 2), (wide, 2), (wide, 0)], build_polynomial(2, 0, 2))
        assert area_shoelace(d) == 2 * (wide - 1)
        with pytest.raises(ValueError):
            lattice_counts(d)


class TestPick:
    def test_quadratic_decomposition(self):
        d = build_diagram(build_polynomial(2, 0, 2))
        assert lattice_counts(d) == (0, 7)
        assert area_pick(d) == Fraction(5, 2)

    def test_unit_right_triangle(self):
        d = build_diagram(build_polynomial(2, 0, 1))
        assert lattice_counts(d) == (0, 3)
        assert area_pick(d) == Fraction(1, 2)

    def test_base_three_quadratic(self):
        assert area_pick(build_diagram(build_polynomial(3, 0, 2))) == 6

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match=re.escape(PICK_AT_Q_1)):
            area_pick(build_diagram(build_polynomial(1, 0, 2)))

    @pytest.mark.parametrize("vertices", [(), (LatticePoint(1, 0),)],
                             ids=["no-vertex", "anchor-only"])
    def test_rejects_a_cycle_without_a_chain_vertex(self, vertices):
        d = PolynomialDiagram(vertices, build_polynomial(2, 0, 2))
        text = f"need at least 3 vertices, got {len(vertices)}"  # shoelace's text
        with pytest.raises(ValueError, match=f"^{text}$"):
            lattice_counts(d)
        with pytest.raises(areas.RouteRaised, match=f"^route 'pick' raised ValueError: {text}$"):
            area_pick(d)

    def test_rejects_a_two_vertex_cycle(self):
        # the stored prefix of p = (2, 0, 2) once gave (-1, 4) and an area of 0
        d = PolynomialDiagram((LatticePoint(1, 0), LatticePoint(1, 2)), build_polynomial(2, 0, 2))
        text = "need at least 3 vertices, got 2"
        with pytest.raises(ValueError, match=f"^{text}$"):
            lattice_counts(d)
        with pytest.raises(areas.RouteRaised, match=f"^route 'pick' raised ValueError: {text}$"):
            area_pick(d)

    def test_large_extent_is_exact(self):
        # x-extent 10^8 - 1: far past what a column scan can visit
        d = build_diagram(build_polynomial(10, 0, 8))
        assert area_pick(d) == area_shoelace(d) == area_general(build_polynomial(10, 0, 8))

    def test_huge_degree_matches_shoelace(self):
        p = build_polynomial(2, 0, 2000)
        d = build_diagram(p)
        assert area_pick(d) == area_shoelace(d) == area_general(p)

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (2, 3, 6), (3, 1, 5), (7, 0, 4), (50, 0, 2)])
    def test_interior_matches_column_scan(self, q, n, k):
        d = build_diagram(build_polynomial(q, n, k))
        interior, boundary = lattice_counts(d)
        assert interior == interior_by_column_scan(d)
        assert boundary == boundary_by_gcd(d)

    @pytest.mark.parametrize(
        "chain",
        [
            [(1, 3), (2, 1), (4, 0)],  # drops two units
            [(1, 2), (2, 2), (4, 0)],  # flat edge
            [(1, 2), (1, 1), (4, 0)],  # vertical edge
            [(1, 2), (3, 1), (2, 0)],  # steps left
            # 50 vertices; only the 25th edge, (25, 25) -> (26, 25), is flat
            [(x, 50 - x) for x in range(1, 26)] + [(x, 51 - x) for x in range(26, 51)],
        ],
    )
    def test_rejects_chain_edges_not_one_unit_down(self, chain):
        vertices = tuple(LatticePoint(*v) for v in [(1, 0), *chain])
        d = PolynomialDiagram(vertices, build_polynomial(2, 0, 2))
        with pytest.raises(ValueError, match="down by one"):
            lattice_counts(d)

    def test_a_huge_bad_edge_is_named_under_the_lowest_digit_cap(self, digit_cap):
        x = 10**700
        d = PolynomialDiagram(((x, 0), (x, 3), (x + 1, 1), (x + 5, 0)), build_polynomial(2, 0, 2))
        with digit_cap(640):
            failed = cross_check(d.source, d).failed
        x_text = "1" + "0" * 700
        edge = f"chain edge ({x_text}, 3) -> ({x_text[:-1]}1, 1)"
        assert failed == {"pick": f"raised ValueError: {edge} does not step right and down by one"}

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_shoelace(self, q, n, k):
        d = build_diagram(build_polynomial(q, n, k))
        assert area_pick(d) == area_shoelace(d)


class TestShortCycles:
    """Stored cycles of the first 0-3 vertices of p = (2, 0, 2): what each reader makes of them."""

    P = build_polynomial(2, 0, 2)
    CYCLE = ((1, 0), (1, 2), (2, 1), (4, 0))

    def prefix(self, count):
        return PolynomialDiagram(self.CYCLE[:count], self.P)

    @pytest.mark.parametrize("count", [0, 1, 2], ids=["no-vertex", "anchor-only", "two-vertices"])
    def test_shoelace_needs_three_vertices(self, count):
        text = f"^route 'shoelace' raised ValueError: need at least 3 vertices, got {count}$"
        with pytest.raises(areas.RouteRaised, match=text):
            area_shoelace(self.prefix(count))

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_cross_check_fails_the_oracles_with_the_same_texts(self, count):
        text = f"raised ValueError: need at least 3 vertices, got {count}"
        expected = dict.fromkeys(["shoelace", "pick"], text) if count < 3 else {}
        assert cross_check(self.P, self.prefix(count)).failed == expected

    def test_a_one_shot_cycle_fails_both_oracles_from_its_one_walk(self):
        once = PolynomialDiagram(iter(self.CYCLE[:2]), self.P)
        text = "raised ValueError: need at least 3 vertices, got 2"
        assert cross_check(self.P, once).failed == {"shoelace": text, "pick": text}

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_validation_counts_the_vertices_and_finds_no_diagram(self, count):
        diagnostics = validate_diagram(self.prefix(count))
        assert tuple(diagnostics) == (count, False, False, True, False, True)
        assert type(diagnostics.vertex_count) is int


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


class TestRouteGate:
    """route_refusal is the one gate: a refused route raises its text before any work."""

    def test_route_area_refuses_before_building_or_walking(self, monkeypatch):
        p = build_polynomial(1, 0, 3)
        monkeypatch.setattr(areas, "build_diagram", _no_work)
        monkeypatch.setattr(core.VertexCycle, "__iter__", _no_work)
        with pytest.raises(ValueError, match=f"^{re.escape(PICK_AT_Q_1)}$"):
            route_area("pick", p)

    @pytest.mark.parametrize("oracle", [area_pick, lattice_counts])
    def test_diagram_oracles_refuse_before_walking(self, oracle, monkeypatch):
        d = build_diagram(build_polynomial(1, 0, 3))
        monkeypatch.setattr(areas, "build_diagram", _no_work)
        monkeypatch.setattr(core.VertexCycle, "__iter__", _no_work)
        with pytest.raises(ValueError, match=f"^{re.escape(PICK_AT_Q_1)}$"):
            oracle(d)

    @pytest.mark.parametrize("name", [name for name in ROUTES if name != "pick"])
    @pytest.mark.parametrize("n,k", [(0, 1), (0, 3), (2, 5)])
    def test_every_other_route_gives_0_at_q_1(self, name, n, k):
        p = build_polynomial(1, n, k)
        assert route_area(name, p) == route_area(name, p, build_diagram(p)) == 0
        assert cross_check(p).areas[name] == 0


    @pytest.mark.parametrize("name", ["float", "Fraction"])
    def test_a_route_that_returns_a_non_int_is_named_not_halved(self, name):
        # a float would make Fraction(twice, 2) raise, blaming no route
        text = f"^route 'general' returned {name}, not an int$"
        with faults.CATALOG[name].inject():
            with pytest.raises(areas.RouteRaised, match=text):
                area_general(build_polynomial(2, 0, 3))
            # cross_check records the route's failure, and keeps no twice-area for it
            check = cross_check(build_polynomial(2, 0, 3))
        assert check.failed == {"general": f"returned {name}, not an int"}
        assert "general" not in check.twice_areas and not check.agree


@pytest.mark.parametrize(
    "given, raised, text",
    [
        (180, False, None),
        (-(10**700), False, None),
        (180.0, False, "returned float, not an int"),
        (Fraction(180), False, "returned Fraction, not an int"),
        (True, False, "returned bool, not an int"),
        (None, False, "returned NoneType, not an int"),
        (ValueError("no"), False, "returned ValueError, not an int"),
        (ValueError("no"), True, "raised ValueError: no"),
        (ZeroDivisionError("by zero"), True, "raised ZeroDivisionError: by zero"),
    ],
    ids=["int", "huge-int", "float", "Fraction", "bool", "None", "returned-ValueError",
         "raised-ValueError", "raised-ZeroDivisionError"],
)
def test_route_failure_names_any_result_but_an_int(given, raised, text):
    # an exception the route returned is a value like any other; only a raise says "raised"
    assert route_failure(given, raised=raised) == text


class TestCrossCheck:
    def test_quadratic_all_routes_agree(self):
        check = cross_check(build_polynomial(4, 0, 2))
        assert check.agree
        assert check.areas == dict.fromkeys(ROUTES, Fraction(21, 2))

    def test_degenerate_agrees_at_zero(self):
        check = cross_check(build_polynomial(1, 0, 2))
        assert check.agree
        assert check.areas == {"closed": 0, "general": 0, "shoelace": 0}

    def test_large_instance_agrees(self):
        check = cross_check(build_polynomial(7, 2, 5))
        assert check.agree
        assert list(check.areas) == ["closed", "general", "shoelace", "pick"]

    def test_pick_joins_at_large_extent(self):
        check = cross_check(build_polynomial(10, 0, 8))
        assert "pick" in check.areas
        assert check.areas["pick"] == check.areas["general"] == check.areas["shoelace"]
        assert check.agree

    def test_disagreement_is_reported(self):
        check = AreaCrossCheck({"general": 5, "shoelace": 6})
        assert not check.agree

    @pytest.mark.parametrize("error", [faults.CATALOG["raise-ValueError"],
                                       faults.CATALOG["raise-ZeroDivisionError"]])
    def test_a_raising_route_is_recorded_and_does_not_agree(self, error):
        with error.inject(route="pick"):
            check = cross_check(build_polynomial(5, 0, 3))
        assert check.failed == {"pick": error.text}
        assert check.twice_areas == dict.fromkeys(["closed", "general", "shoelace"], 180)
        assert not check.agree

    def test_named_routes_walk_only_for_a_diagram_route(self, monkeypatch):
        p = build_polynomial(3, 1, 4)
        expected = cross_check(p)
        monkeypatch.setattr(areas, "build_diagram", _no_work)
        check = cross_check(p, names=("general", "closed"))
        assert check.twice_areas == {name: expected.twice_areas[name]
                                     for name in ("general", "closed")}
        # a named route that does not apply is refused; by default it is skipped
        with pytest.raises(ValueError, match=f"^{re.escape(PICK_AT_Q_1)}$"):
            cross_check(build_polynomial(1, 0, 3), names=("pick",))

    def test_a_named_route_that_does_not_apply_is_refused_before_any_route_runs(
            self, monkeypatch):
        # cross_check records a route's raise, so the route records its own run
        ran = []
        monkeypatch.setitem(ROUTES, "general", ROUTES["general"]._replace(
            twice_area=lambda *args: ran.append(args) or 0))
        names = iter(("general", "pick"))  # read once, as any iterable may be
        with pytest.raises(ValueError, match=f"^{re.escape(PICK_AT_Q_1)}$"):
            cross_check(build_polynomial(1, 0, 3), names=names)
        assert ran == []

    def test_a_walk_that_raises_fails_each_diagram_route(self):
        p = build_polynomial(2, 0, 2)
        check = cross_check(p, PolynomialDiagram(((1, 0), (1, 2), (3,)), p))
        text = "raised ValueError: not enough values to unpack (expected 2, got 1)"
        assert check.failed == {"shoelace": text, "pick": text}
        assert check.twice_areas == {"closed": 5, "general": 5} and not check.agree

    def test_a_route_applies_from_q_1_unless_it_says_otherwise(self):
        assert areas.Route(False, area_closed_form).least_q == 1
        assert {name: route.least_q for name, route in ROUTES.items()} == {
            "closed": 1, "general": 1, "shoelace": 1, "pick": 2
        }

    def test_skips_a_route_by_its_least_q_without_forming_the_refusal(self, monkeypatch):
        def refusal(name, p):
            raise AssertionError("cross_check formed a refusal text")

        monkeypatch.setattr(areas, "route_refusal", refusal)
        check = cross_check(build_polynomial(1, 2, 3))
        assert check.agree
        assert check.twice_areas == dict.fromkeys(["closed", "general", "shoelace"], 0)
        assert list(cross_check(build_polynomial(2, 0, 3)).twice_areas) == list(ROUTES)

    @pytest.mark.parametrize("name", ROUTES)
    def test_only_pick_is_refused_at_q_1(self, name):
        refusal = route_refusal(name, build_polynomial(1, 0, 2))
        if name == "pick":
            assert refusal == PICK_AT_Q_1
        else:
            assert refusal is None
        assert route_refusal(name, build_polynomial(2, 0, 2)) is None

    def test_reuses_a_built_diagram(self):
        p = build_polynomial(3, 1, 4)
        assert cross_check(p, build_diagram(p)) == cross_check(p)

    def test_memory_stays_flat_in_k(self):
        # Every route and the validation walk a regenerated vertex cycle, so
        # no pass holds the k + 2 vertices: storing them at this size takes
        # about 2.4 MiB, the walks a few KiB.
        p = build_polynomial(2, 0, 5000)
        tracemalloc.start()
        try:
            d = build_diagram(p)
            check = cross_check(p, d)
            diagnostics = validate_diagram(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert check.agree and list(check.areas) == list(ROUTES)
        assert diagnostics.vertex_count == 5002 and diagnostics.simple

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 1, 5), (1, 0, 3), (2, 0, 300)])
    def test_each_diagram_route_walks_the_cycle_once(self, q, n, k):
        # a diagram whose vertices can be walked only once reads the same
        p = build_polynomial(q, n, k)
        d = build_diagram(p)

        def once():
            return PolynomialDiagram(iter(d.vertices), p)

        assert area_shoelace(once()) == area_shoelace(d)
        if q >= 2:
            assert lattice_counts(once()) == lattice_counts(d)
            assert area_pick(once()) == area_shoelace(d)

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 1, 5), (2, 0, 300)])
    def test_cross_check_walks_the_diagram_once(self, q, n, k, monkeypatch):
        # the shoelace sum and Pick's counts come from one walk of the cycle
        p = build_polynomial(q, n, k)
        expected = cross_check(p)
        walks, original = [], core.VertexCycle.__iter__
        monkeypatch.setattr(core.VertexCycle, "__iter__",
                            lambda cycle: walks.append(cycle) or original(cycle))
        assert cross_check(p, build_diagram(p)) == expected
        assert len(walks) == 1
        once = PolynomialDiagram(iter(build_diagram(p).vertices), p)
        assert cross_check(p, once) == expected and list(expected.areas) == list(ROUTES)

    def test_stored_vertices_agree_at_huge_degree(self):
        p = build_polynomial(3, 2, 3000)
        assert cross_check(p, materialized_diagram(p)) == cross_check(p)

    @pytest.mark.parametrize("q,n,k", [(2, 0, 2), (3, 1, 4), (12, 0, 3), (50, 2, 6)])
    def test_denominator_is_one_or_two(self, q, n, k):
        check = cross_check(build_polynomial(q, n, k))
        assert check.areas["general"].denominator in (1, 2)
        assert check.areas["shoelace"].denominator in (1, 2)
