"""SVG rendering: structure, labels, determinism, log-x spacing."""

from __future__ import annotations

import decimal
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydiagram import PolynomialDiagram, RenderSpec, build_diagram, build_polynomial
from polydiagram import diagram_svg as svg_chunks


def diagram_svg(d, spec=None) -> str:
    """The document diagram_svg yields, joined."""
    return "".join(svg_chunks(d, spec))


def _circle_xs(svg: str) -> list[float]:
    return [float(m) for m in re.findall(r'<circle cx="([0-9.]+)"', svg)]


def _labels(svg: str) -> list[tuple[str, str]]:
    return re.findall(r">\((-?\d+), (-?\d+)\)</text>", svg)


def test_document_shell():
    svg = diagram_svg(build_diagram(build_polynomial(2, 0, 2)))
    assert svg.startswith("<svg ")
    assert 'version="1.1"' in svg
    assert 'viewBox="0 0 640 480"' in svg
    assert svg.rstrip().endswith("</svg>")


def test_polygon_is_a_single_closed_path():
    svg = diagram_svg(build_diagram(build_polynomial(3, 0, 4)))
    paths = re.findall(r'<path d="([^"]+)"', svg)
    assert len(paths) == 1
    assert paths[0].startswith("M ")
    assert paths[0].endswith(" Z")


def test_vertex_labels_show_true_coordinates():
    svg = diagram_svg(build_diagram(build_polynomial(2, 0, 2)))
    for label in ["(1, 0)", "(1, 2)", "(2, 1)", "(4, 0)"]:
        assert label in svg


def test_marker_per_vertex():
    svg = diagram_svg(build_diagram(build_polynomial(2, 0, 3)))
    assert svg.count("<circle") == 5


def test_identical_inputs_render_identically():
    d = build_diagram(build_polynomial(5, 1, 3))
    spec = RenderSpec(width_px=400, height_px=300, margin_px=20, log_x=True)
    assert diagram_svg(d, spec) == diagram_svg(d, spec)


def test_log_x_spaces_chain_vertices_evenly():
    d = build_diagram(build_polynomial(3, 0, 4))
    svg = diagram_svg(d, RenderSpec(log_x=True))
    xs = _circle_xs(svg)
    assert len(xs) == 6
    assert xs[0] == xs[1]  # anchor shares the leftmost column
    chain = xs[1:]
    gaps = [round(b - a, 2) for a, b in zip(chain, chain[1:])]
    assert len(set(gaps)) == 1

    # labels keep the true coordinates even in log-x mode
    assert "(81, 0)" in svg


def test_linear_x_leaves_chain_uneven():
    d = build_diagram(build_polynomial(3, 0, 4))
    xs = _circle_xs(diagram_svg(d))
    chain = xs[1:]
    gaps = {round(b - a, 2) for a, b in zip(chain, chain[1:])}
    assert len(gaps) > 1


def test_degenerate_renders_as_one_column():
    svg = diagram_svg(build_diagram(build_polynomial(1, 0, 2)))
    assert len(set(_circle_xs(svg))) == 1


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(width_px=0)
    with pytest.raises(ValueError):
        RenderSpec(margin_px=-1)
    with pytest.raises(ValueError):
        RenderSpec(width_px=100, height_px=100, margin_px=50)


@pytest.mark.parametrize("q, k", [(2, 3), (7, 40)])
def test_positions_beyond_the_float_range_are_correctly_rounded(q, k):
    # x reaches q^(1100 + k) > 2^1100, where float(x) alone would overflow;
    # the plotted positions must equal the exact ratio rounded once.
    d = build_diagram(build_polynomial(q, 1100, k))
    vertices = list(d.vertices)
    xs = [x for x, _ in vertices]
    x_lo, x_hi, y_hi = min(xs), max(xs), max(y for _, y in vertices)
    assert x_hi - x_lo > 2**1100
    expected = [
        (
            f"{48 + float(Fraction(x - x_lo, x_hi - x_lo)) * 544:.2f}",
            f"{432 - float(Fraction(y, y_hi)) * 384:.2f}",
        )
        for x, y in vertices
    ]
    assert re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', diagram_svg(d)) == expected


@given(q=st.integers(min_value=1, max_value=50), n=st.integers(min_value=0, max_value=5),
       k=st.integers(min_value=1, max_value=300), log_x=st.booleans())
@example(q=1, n=5, k=3, log_x=False)  # every x equal: each is q times the one before
@example(q=50, n=5, k=300, log_x=True)
@settings(max_examples=40, deadline=None)
def test_every_label_is_str_of_its_vertex(q, n, k, log_x):
    d = build_diagram(build_polynomial(q, n, k))
    svg = diagram_svg(d, RenderSpec(log_x=log_x))
    assert _labels(svg) == [(str(x), str(y)) for x, y in d.vertices]


@given(
    q=st.integers(min_value=1, max_value=50),
    xs=st.lists(st.one_of(st.none(), st.integers(min_value=-(10**40), max_value=10**40)),
                min_size=2, max_size=40),
    ys=st.lists(st.integers(min_value=1, max_value=9), min_size=40, max_size=40),
)
@example(q=3, xs=[0, None, None, 5, None, -2, None], ys=list(range(1, 41)))
@settings(max_examples=60, deadline=None)
def test_labels_of_a_stored_cycle_whose_x_break_the_chain(q, xs, ys):
    # None continues the chain: that x is q times the one before
    chain = [0 if xs[0] is None else xs[0]]
    for x in xs[1:]:
        chain.append(chain[-1] * q if x is None else x)
    vertices = tuple(zip(chain, ys))
    d = PolynomialDiagram(vertices, build_polynomial(q, 0, 1))
    assert _labels(diagram_svg(d)) == [(str(x), str(y)) for x, y in vertices]


def test_labels_are_exact_under_any_decimal_context():
    # the running product uses its own context, and leaves the caller's as it was
    d = build_diagram(build_polynomial(3, 0, 600))
    with decimal.localcontext() as context:
        context.prec = 3
        chunks = []
        for chunk in svg_chunks(d):
            chunks.append(chunk)
            assert decimal.getcontext().prec == 3
    assert _labels("".join(chunks)) == [(str(x), str(y)) for x, y in d.vertices]


def test_an_anchor_past_the_default_cap_is_labelled_exactly(digit_cap):
    # the anchor 3^10000 has 4772 digits; labels are written under the caller's digit cap
    d = build_diagram(build_polynomial(3, 10000, 3))
    with digit_cap(640):
        svg = diagram_svg(d)
    with digit_cap(0):
        assert _labels(svg) == [(str(x), str(y)) for x, y in d.vertices]
    assert len(_labels(svg)[0][0]) == 4772


def test_a_cycle_with_no_vertex_is_refused_before_the_first_chunk():
    chunks = svg_chunks(PolynomialDiagram((), build_polynomial(2, 0, 2)))
    with pytest.raises(ValueError, match="^cannot render a cycle with no vertices$"):
        next(chunks)


def test_a_cycle_below_the_axis_is_drawn_inside_the_canvas():
    # its y range runs from its lowest y up to the axis y = 0, drawn at the top
    spec = RenderSpec()
    d = PolynomialDiagram(((1, -1), (2, -2), (3, -1)), build_polynomial(2, 0, 2))
    svg = diagram_svg(d, spec)
    markers = re.findall(r'<circle cx="(-?[0-9.]+)" cy="(-?[0-9.]+)"', svg)
    assert len(markers) == 3
    for cx, cy in markers:
        assert spec.margin_px <= float(cx) <= spec.width_px - spec.margin_px
        assert spec.margin_px <= float(cy) <= spec.height_px - spec.margin_px
    axis_y = re.search(r'<line x1="[0-9.]+" y1="(-?[0-9.]+)"', svg)[1]
    assert float(axis_y) == spec.margin_px
    # the lowest y, -2, at the bottom, and y = -1 halfway up to the axis
    assert {cy for _, cy in markers} == {f"{spec.height_px - spec.margin_px:.2f}", "240.00"}


@pytest.mark.parametrize("vertices", [((1, 0),), ((1, 0), (4, 0))])
def test_a_cycle_whose_highest_y_is_0_is_drawn_on_the_axis(vertices):
    svg = diagram_svg(PolynomialDiagram(vertices, build_polynomial(2, 0, 2)))
    axis_y = re.search(r'<line x1="[0-9.]+" y1="([0-9.]+)"', svg)[1]
    assert set(re.findall(r'<circle cx="[0-9.]+" cy="([0-9.]+)"', svg)) == {axis_y}
    assert svg.count("<circle") == len(vertices)
