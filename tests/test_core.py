"""Construction, evaluation, monomial mapping, and diagram diagnostics."""

from __future__ import annotations

import pytest

from polydiagram import (
    LatticePoint,
    build_diagram,
    build_polynomial,
    evaluate_polynomial,
    monomial_map,
    validate_diagram,
)
from polydiagram.core import _is_simple
from references import simple_by_pairwise_test


class TestBuildPolynomial:
    def test_accepts_basic_triple(self):
        p = build_polynomial(2, 0, 2)
        assert (p.q, p.n, p.k) == (2, 0, 2)
        assert not p.degenerate

    def test_accepts_q_equal_one_as_degenerate(self):
        assert build_polynomial(1, 0, 2).degenerate

    def test_rejects_q_zero(self):
        with pytest.raises(ValueError, match="q"):
            build_polynomial(0, 0, 2)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k"):
            build_polynomial(2, 0, 0)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n"):
            build_polynomial(2, -1, 2)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            build_polynomial(2.0, 0, 2)


class TestEvaluate:
    def test_quadratic_at_one(self):
        # 1 + 2 + 4, the geometric sum of coefficients
        assert evaluate_polynomial(build_polynomial(2, 0, 2), 1) == 7

    def test_constant_term_only_at_zero(self):
        assert evaluate_polynomial(build_polynomial(3, 1, 1), 0) == 9

    def test_cubic_at_two(self):
        # every term of the (q=2, n=0, k=3) polynomial at x=2 equals 8
        p = build_polynomial(2, 0, 3)
        assert evaluate_polynomial(p, 2) == 8 + 8 + 8 + 8 == 32

    @pytest.mark.parametrize("q,n,k", [(2, 0, 5), (3, 2, 4), (10, 1, 3)])
    def test_geometric_sum_identity_at_one(self, q, n, k):
        p = build_polynomial(q, n, k)
        assert evaluate_polynomial(p, 1) == q**n * (q ** (k + 1) - 1) // (q - 1)


class TestMonomialMap:
    def test_quadratic_points(self):
        assert monomial_map(build_polynomial(2, 0, 2)) == [(1, 2), (2, 1), (4, 0)]

    def test_degenerate_points_share_x(self):
        assert monomial_map(build_polynomial(1, 0, 2)) == [(1, 2), (1, 1), (1, 0)]

    def test_shifted_linear_points(self):
        assert monomial_map(build_polynomial(3, 2, 1)) == [(9, 1), (27, 0)]

    def test_consecutive_x_ratio_is_q(self):
        pts = monomial_map(build_polynomial(7, 3, 6))
        assert all(a.x * 7 == b.x for a, b in zip(pts, pts[1:]))


class TestBuildDiagram:
    def test_quadratic_vertices(self):
        d = build_diagram(build_polynomial(2, 0, 2))
        assert d.vertices == ((1, 0), (1, 2), (2, 1), (4, 0))
        assert not d.degenerate

    def test_degenerate_vertices(self):
        d = build_diagram(build_polynomial(1, 0, 2))
        assert d.vertices == ((1, 0), (1, 2), (1, 1), (1, 0))
        assert d.degenerate

    def test_cubic_vertices(self):
        d = build_diagram(build_polynomial(2, 0, 3))
        assert d.vertices == ((1, 0), (1, 3), (2, 2), (4, 1), (8, 0))

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 4, 7), (50, 10, 12)])
    def test_vertex_count_is_k_plus_2(self, q, n, k):
        assert len(build_diagram(build_polynomial(q, n, k)).vertices) == k + 2


class TestValidateDiagram:
    def test_quadratic_is_simple_but_not_convex(self):
        diag = validate_diagram(build_diagram(build_polynomial(2, 0, 2)))
        assert diag.simple
        assert not diag.convex
        assert diag.chain_slopes_increasing
        assert not diag.degenerate

    def test_triangle_is_convex(self):
        diag = validate_diagram(build_diagram(build_polynomial(2, 0, 1)))
        assert diag.simple
        assert diag.convex

    def test_degenerate_is_flagged(self):
        diag = validate_diagram(build_diagram(build_polynomial(1, 0, 2)))
        assert diag.degenerate
        assert not diag.simple

    @pytest.mark.parametrize("q", [2, 3, 10])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_higher_degree_is_never_convex(self, q, k):
        diag = validate_diagram(build_diagram(build_polynomial(q, 1, k)))
        assert diag.simple
        assert diag.chain_slopes_increasing
        assert not diag.convex


class TestIsSimple:
    def test_collapsed_cycle_is_not_simple(self):
        # every vertex on one line: the pairwise test never compares the
        # overlapping adjacent edges, so it wrongly calls this simple
        cycle = (LatticePoint(3, 0), LatticePoint(3, 0), LatticePoint(28, 0))
        assert simple_by_pairwise_test(cycle)
        assert not _is_simple(cycle)

    @pytest.mark.parametrize(
        "cycle",
        [
            [(1, 0), (2, 2), (4, 0)],  # first chain vertex not above the anchor
            [(1, 0), (1, 2), (3, 1), (2, 0)],  # chain x steps back
            [(1, 0), (1, 2), (1, 1), (3, 0)],  # chain runs back down the anchor's column
            [(1, 0), (1, 2), (2, 0), (4, 0)],  # inner vertex on the anchor's row
            [(1, 0), (1, 2), (2, 1)],  # last vertex above the row
            [(1, 0), (1, 2)],  # too few vertices
        ],
    )
    def test_other_shapes_are_not_simple(self, cycle):
        assert not _is_simple(tuple(LatticePoint(*v) for v in cycle))

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (2, 0, 40), (3, 2, 7), (50, 10, 12)])
    def test_diagrams_agree_with_pairwise_test(self, q, n, k):
        vertices = build_diagram(build_polynomial(q, n, k)).vertices
        assert _is_simple(vertices) == simple_by_pairwise_test(vertices) is True
