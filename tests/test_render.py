"""SVG rendering: structure, labels, determinism, log-x spacing."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from polydiagram import RenderSpec, build_diagram, build_polynomial
from polydiagram import diagram_svg as svg_chunks


def diagram_svg(d, spec=None) -> str:
    """The document diagram_svg yields, joined."""
    return "".join(svg_chunks(d, spec))


def _circle_xs(svg: str) -> list[float]:
    return [float(m) for m in re.findall(r'<circle cx="([0-9.]+)"', svg)]


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
