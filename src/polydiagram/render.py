"""Standalone SVG rendering of diagram polygons.

The polygon is a single closed <path>; every vertex gets a circular marker
and a text label with its true coordinates.  With log_x enabled the
horizontal position of each vertex is its base-q exponent, which spaces the
monomial chain evenly no matter how wide the diagram is; labels still show
the original coordinates.  Rendering is a pure function of its inputs, so
identical invocations produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PolynomialDiagram

__all__ = ["RenderSpec", "diagram_svg"]


@dataclass(frozen=True)
class RenderSpec:
    """Pixel geometry and axis mapping for an SVG rendering."""

    width_px: int = 640
    height_px: int = 480
    margin_px: int = 48
    log_x: bool = False

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("width_px and height_px must be positive")
        if self.margin_px < 0:
            raise ValueError("margin_px must be non-negative")
        if 2 * self.margin_px >= min(self.width_px, self.height_px):
            raise ValueError("margins leave no drawing area")


def _horizontal_positions(
    d: PolynomialDiagram, spec: RenderSpec, vertices: list[tuple[int, int]]
) -> list[int]:
    """Plot abscissa per vertex: true x, or the base-q exponent under log_x.

    The anchor and the chain vertex i sit at exponents n and n+i.  A
    degenerate diagram (q = 1) keeps true coordinates, which are all equal,
    so it collapses to one centered column either way.
    """
    p = d.source
    if spec.log_x and p.q >= 2:
        return [p.n] + [p.n + i for i in range(p.k + 1)]
    return [x for x, _ in vertices]


def diagram_svg(d: PolynomialDiagram, spec: RenderSpec | None = None) -> str:
    """Render the diagram as a standalone SVG 1.1 document.

    The vertex cycle is walked once, into a list: the document holds a
    label for every vertex anyway, so the list is smaller than the output.
    """
    spec = spec or RenderSpec()
    vertices = list(d.vertices)
    xs = _horizontal_positions(d, spec, vertices)
    ys = [y for _, y in vertices]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(ys)  # the top vertex sits at y = k >= 1

    left = spec.margin_px
    right = spec.width_px - spec.margin_px
    top = spec.margin_px
    bottom = spec.height_px - spec.margin_px

    def px(x: int) -> float:
        if x_hi == x_lo:
            return (left + right) / 2
        # int / int is correctly rounded even past the float range, so huge
        # coordinates need no exact ratio before the conversion.
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def py(y: int) -> float:
        return bottom - y / y_hi * (bottom - top)

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    path = "M " + " L ".join(f"{fmt(px(x))} {fmt(py(y))}" for x, y in zip(xs, ys)) + " Z"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
        f'  <line x1="{fmt(left)}" y1="{fmt(py(0))}" x2="{fmt(right)}" '
        f'y2="{fmt(py(0))}" stroke="#999999" stroke-width="1"/>',
        f'  <line x1="{fmt(px(x_lo))}" y1="{fmt(bottom)}" x2="{fmt(px(x_lo))}" '
        f'y2="{fmt(top)}" stroke="#999999" stroke-width="1"/>',
        f'  <path d="{path}" fill="#c6dbef" fill-opacity="0.6" '
        f'stroke="#1f77b4" stroke-width="2"/>',
    ]
    for position, (x, y) in zip(xs, vertices):
        cx, cy = px(position), py(y)
        parts.append(f'  <circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="#1f77b4"/>')
        parts.append(
            f'  <text x="{fmt(cx + 6)}" y="{fmt(cy - 6)}" font-family="monospace" '
            f'font-size="12" fill="#333333">({x}, {y})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
