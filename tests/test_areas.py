"""Area routes: closed form, slab decomposition, shoelace, and Pick counting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from polydiagram import (
    ROUTES,
    AreaCrossCheck,
    LatticePoint,
    PolynomialDiagram,
    area_closed_form,
    area_general,
    area_pick,
    area_shoelace,
    boundary_lattice_count,
    build_diagram,
    build_polynomial,
    cross_check,
    interior_lattice_count,
    trapezoid_area,
    triangle_area,
)
from polydiagram.areas import route_refusal
from references import area_closed_form_k2, interior_by_column_scan


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


class TestPick:
    def test_quadratic_decomposition(self):
        d = build_diagram(build_polynomial(2, 0, 2))
        assert interior_lattice_count(d) == 0
        assert boundary_lattice_count(d) == 7
        assert area_pick(d) == Fraction(5, 2)

    def test_unit_right_triangle(self):
        d = build_diagram(build_polynomial(2, 0, 1))
        assert interior_lattice_count(d) == 0
        assert boundary_lattice_count(d) == 3
        assert area_pick(d) == Fraction(1, 2)

    def test_base_three_quadratic(self):
        assert area_pick(build_diagram(build_polynomial(3, 0, 2))) == 6

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            area_pick(build_diagram(build_polynomial(1, 0, 2)))

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
        assert interior_lattice_count(d) == interior_by_column_scan(d)

    @pytest.mark.parametrize(
        "chain",
        [
            [(1, 3), (2, 1), (4, 0)],  # drops two units
            [(1, 2), (2, 2), (4, 0)],  # flat edge
            [(1, 2), (1, 1), (4, 0)],  # vertical edge
            [(1, 2), (3, 1), (2, 0)],  # steps left
        ],
    )
    def test_rejects_chain_edges_not_one_unit_down(self, chain):
        vertices = tuple(LatticePoint(*v) for v in [(1, 0), *chain])
        d = PolynomialDiagram(vertices, build_polynomial(2, 0, 2), degenerate=False)
        with pytest.raises(ValueError, match="down by one"):
            interior_lattice_count(d)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_shoelace(self, q, n, k):
        d = build_diagram(build_polynomial(q, n, k))
        assert area_pick(d) == area_shoelace(d)


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
        check = AreaCrossCheck({"general": Fraction(5, 2), "shoelace": Fraction(3)})
        assert not check.agree

    @pytest.mark.parametrize("name", ROUTES)
    def test_only_pick_is_refused_at_q_1(self, name):
        refusal = route_refusal(name, build_polynomial(1, 0, 2))
        if name == "pick":
            assert refusal == "route 'pick' needs q >= 2 (a q = 1 diagram has no interior), got q = 1"
        else:
            assert refusal is None
        assert route_refusal(name, build_polynomial(2, 0, 2)) is None

    def test_reuses_a_built_diagram(self):
        p = build_polynomial(3, 1, 4)
        assert cross_check(p, build_diagram(p)) == cross_check(p)

    @pytest.mark.parametrize("q,n,k", [(2, 0, 2), (3, 1, 4), (12, 0, 3), (50, 2, 6)])
    def test_denominator_is_one_or_two(self, q, n, k):
        check = cross_check(build_polynomial(q, n, k))
        assert check.areas["general"].denominator in (1, 2)
        assert check.areas["shoelace"].denominator in (1, 2)
