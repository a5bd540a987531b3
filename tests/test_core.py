"""Construction, monomial mapping, evaluation through the diagram, and diagnostics."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydiagram import (
    DiagramDiagnostics,
    PolynomialDiagram,
    build_diagram,
    build_polynomial,
    validate_diagram,
)
from polydiagram.areas import _walk_cycle
from polydiagram.core import VertexCycle, _walk_shape
from references import LatticePoint, simple_by_pairwise_test


def _is_simple(cycle):
    """validate_diagram's simplicity verdict on any vertex cycle, read as a q >= 2 diagram."""
    return validate_diagram(PolynomialDiagram(cycle, build_polynomial(2, 0, 1))).simple


def monomial_points(p):
    """The diagram's chain: every vertex of one pass over its cycle after the anchor."""
    return list(build_diagram(p).vertices)[1:]


def value_from_diagram(p, x):
    """The polynomial at x read off its diagram: each chain vertex is (coefficient, exponent)."""
    return sum(c * x**e for c, e in monomial_points(p))


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
        with pytest.raises(TypeError, match="q must be an int, got float"):
            build_polynomial(2.0, 0, 2)

    def test_rejects_bool(self):
        with pytest.raises(TypeError, match="q must be an int, got bool"):
            build_polynomial(True, 0, 2)

    def test_accepts_int_subclass(self):
        class Degree(enum.IntEnum):
            TWO = 2

        p = build_polynomial(3, 0, Degree.TWO)
        assert p.k is Degree.TWO
        assert build_diagram(p) == build_diagram(build_polynomial(3, 0, 2))
        assert tuple(build_diagram(p).vertices) == ((1, 0), (1, 2), (3, 1), (9, 0))

    def test_int_subclass_out_of_range_is_still_refused(self):
        class Base(enum.IntEnum):
            ZERO = 0

        with pytest.raises(ValueError, match="q must be a positive integer, got 0"):
            build_polynomial(Base.ZERO, 0, 2)


class TestEvaluate:
    """The diagram encodes its polynomial: known values come back from its chain."""

    def test_quadratic_at_one(self):
        # 1 + 2 + 4, the geometric sum of coefficients
        assert value_from_diagram(build_polynomial(2, 0, 2), 1) == 7

    def test_constant_term_only_at_zero(self):
        assert value_from_diagram(build_polynomial(3, 1, 1), 0) == 9

    def test_cubic_at_two(self):
        # every term of the (q=2, n=0, k=3) polynomial at x=2 equals 8
        p = build_polynomial(2, 0, 3)
        assert value_from_diagram(p, 2) == 8 + 8 + 8 + 8 == 32

    @pytest.mark.parametrize("q,n,k", [(2, 0, 5), (3, 2, 4), (10, 1, 3)])
    def test_geometric_sum_identity_at_one(self, q, n, k):
        p = build_polynomial(q, n, k)
        assert value_from_diagram(p, 1) == q**n * (q ** (k + 1) - 1) // (q - 1)


class TestMonomialMap:
    def test_quadratic_points(self):
        assert monomial_points(build_polynomial(2, 0, 2)) == [(1, 2), (2, 1), (4, 0)]

    def test_degenerate_points_share_x(self):
        assert monomial_points(build_polynomial(1, 0, 2)) == [(1, 2), (1, 1), (1, 0)]

    def test_shifted_linear_points(self):
        assert monomial_points(build_polynomial(3, 2, 1)) == [(9, 1), (27, 0)]

    def test_consecutive_x_ratio_is_q(self):
        pts = monomial_points(build_polynomial(7, 3, 6))
        assert all(ax * 7 == bx for (ax, _), (bx, _) in zip(pts, pts[1:]))


class TestBuildDiagram:
    def test_quadratic_vertices(self):
        d = build_diagram(build_polynomial(2, 0, 2))
        assert tuple(d.vertices) == ((1, 0), (1, 2), (2, 1), (4, 0))
        assert not d.degenerate

    def test_degenerate_vertices(self):
        d = build_diagram(build_polynomial(1, 0, 2))
        assert tuple(d.vertices) == ((1, 0), (1, 2), (1, 1), (1, 0))
        assert d.degenerate

    def test_cubic_vertices(self):
        d = build_diagram(build_polynomial(2, 0, 3))
        assert tuple(d.vertices) == ((1, 0), (1, 3), (2, 2), (4, 1), (8, 0))

    def test_degenerate_follows_the_source(self):
        # read from the polynomial, so a diagram cannot disagree with its own q
        vertices = build_diagram(build_polynomial(2, 0, 2)).vertices
        assert not PolynomialDiagram(vertices, build_polynomial(2, 0, 2)).degenerate
        assert PolynomialDiagram(vertices, build_polynomial(1, 0, 2)).degenerate
        with pytest.raises(TypeError):
            PolynomialDiagram(vertices, build_polynomial(2, 0, 2), degenerate=True)

    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 4, 7), (50, 10, 12)])
    def test_vertex_count_is_k_plus_2(self, q, n, k):
        vertices = build_diagram(build_polynomial(q, n, k)).vertices
        assert len(vertices) == len(tuple(vertices)) == k + 2


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

    def test_diagnostics_are_an_immutable_named_tuple(self):
        diag = validate_diagram(build_diagram(build_polynomial(2, 0, 2)))
        assert DiagramDiagnostics._fields == (
            "vertex_count", "degenerate", "simple", "chain_slopes_increasing",
            "chain_unit_steps", "convex",
        )
        assert repr(diag) == (
            "DiagramDiagnostics(vertex_count=4, degenerate=False, simple=True, "
            "chain_slopes_increasing=True, chain_unit_steps=True, convex=False)"
        )
        again = validate_diagram(build_diagram(build_polynomial(2, 0, 2)))
        assert again == diag and hash(again) == hash(diag)
        assert tuple(diag) == (4, False, True, True, True, False)
        with pytest.raises(AttributeError):
            diag.simple = False

    @pytest.mark.parametrize("q", [2, 3, 10])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_higher_degree_is_never_convex(self, q, k):
        diag = validate_diagram(build_diagram(build_polynomial(q, 1, k)))
        assert diag.simple
        assert diag.chain_slopes_increasing
        assert not diag.convex


class _Pulls:
    """A one-shot iterator over a cycle that records each vertex it hands out."""

    def __init__(self, vertices):
        self.pulled, self._rest = [], iter(vertices)

    def __iter__(self):
        return self

    def __next__(self):
        vertex = next(self._rest)
        self.pulled.append(vertex)
        return vertex


class _CountedX(int):
    """An x that counts, on its class, each addition it is an operand of."""

    additions = 0

    def __add__(self, other):
        _CountedX.additions += 1
        return int.__add__(self, other)

    def __radd__(self, other):
        _CountedX.additions += 1
        return int.__radd__(self, other)


class _CountedQ(int):
    """A q that counts, on its class, each product it is an operand of."""

    products = 0

    def __mul__(self, other):
        _CountedQ.products += 1
        return int.__mul__(self, other)

    def __rmul__(self, other):
        _CountedQ.products += 1
        return int.__rmul__(self, other)


class TestVertexCycle:
    @given(st.integers(1, 60), st.integers(0, 12), st.integers(1, 40))
    def test_every_pass_yields_the_anchor_then_the_monomial_points(self, q, n, k):
        # each power of q formed on its own, with no product carried from the last
        cycle = VertexCycle(q, k, q**n)
        expected = [(q**n, 0), *((q ** (n + i), k - i) for i in range(k + 1))]
        assert list(cycle) == list(cycle) == expected
        assert len(cycle) == k + 2

    @pytest.mark.parametrize("k", [1, 2, 12, 150])
    def test_a_pass_forms_one_product_by_q_per_chain_edge(self, k):
        # k products per pass: one per chain vertex after the first, none for the anchor
        expected = list(build_diagram(build_polynomial(3, 2, k)).vertices)
        cycle = VertexCycle(_CountedQ(3), k, 3**2)
        for _ in range(2):  # each pass forms its own products
            _CountedQ.products = 0
            assert list(cycle) == expected
            assert _CountedQ.products == k


class TestWalks:
    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 1, 5), (1, 0, 3)])
    def test_each_structural_check_walks_the_cycle_once(self, q, n, k):
        # vertices that can be read only once give the same findings, so
        # validate_diagram walks the cycle once, convexity included
        p = build_polynomial(q, n, k)
        d = build_diagram(p)
        assert _walk_shape(iter(d.vertices)) == _walk_shape(d.vertices)
        assert _walk_cycle(iter(d.vertices)) == _walk_cycle(d.vertices)
        assert validate_diagram(PolynomialDiagram(iter(d.vertices), p)) == validate_diagram(d)

    @pytest.mark.parametrize("walk", [_walk_shape, _walk_cycle])
    @pytest.mark.parametrize("q,n,k", [(2, 0, 1), (3, 1, 5), (1, 0, 3)])
    def test_each_walk_pulls_each_vertex_once(self, walk, q, n, k):
        vertices = build_diagram(build_polynomial(q, n, k)).vertices
        pulls = _Pulls(vertices)
        assert walk(pulls) == walk(vertices)
        assert pulls.pulled == list(vertices) and len(pulls.pulled) == k + 2

    def test_both_oracles_read_one_running_sum_of_chain_x(self):
        # one addition per chain vertex but the last, k in all: the shoelace
        # runs are differences of Pick's running sum, not a second sum of x
        vertices = list(build_diagram(build_polynomial(3, 1, 50)).vertices)
        _CountedX.additions = 0
        sums = _walk_cycle([(_CountedX(x), y) for x, y in vertices])
        assert _CountedX.additions == 50
        assert sums == _walk_cycle(vertices)

    def test_every_pass_regenerates_the_same_cycle(self):
        vertices = build_diagram(build_polynomial(3, 1, 2)).vertices
        assert list(vertices) == list(vertices) == [(3, 0), (3, 2), (9, 1), (27, 0)]


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
