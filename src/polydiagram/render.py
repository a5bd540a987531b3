"""Standalone SVG rendering of diagram polygons.

The polygon is a single closed <path>; every vertex gets a circular marker
and a text label with its true coordinates.  With log_x enabled the
horizontal position of each vertex is its base-q exponent, which spaces the
monomial chain evenly no matter how wide the diagram is; labels still show
the original coordinates.  Rendering is a pure function of its inputs, so
identical invocations produce byte-identical documents.  The document is
yielded in chunks, and the vertex cycle is read in passes that each hold
O(1) vertices, so its memory stays flat in k although the document grows
with it.  Each path point and each vertex marker is one `%` template, whose
`%.2f` gives the text of f"{v:.2f}".

A label's x is exact text, and str() of an int takes time quadratic in its
digits before Python 3.12.  So an x that is q times the x before it is
labelled by a running Decimal product, one exact product by q per vertex,
whose text costs time linear in its digits; any other x, such as the anchor
or an x of a stored cycle that breaks the chain, starts a new product from
int_text, exact under any int digit cap.  `render --q 3 --k 20000`, whose
labels reach 9543 digits, took 10 s with str() of every label and takes
under 1 s this way, as a process on Python 3.11 on a 2-core host.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import starmap
from typing import Iterable, Iterator

from .core import PolynomialDiagram, Record
from .formats import EXACT, batched, int_text

__all__ = ["RenderSpec", "diagram_svg"]


class RenderSpec(Record):
    """Pixel geometry and axis mapping for an SVG rendering."""

    __slots__ = __match_args__ = ("width_px", "height_px", "margin_px", "log_x")
    width_px: int
    height_px: int
    margin_px: int
    log_x: bool

    def __init__(self, width_px: int = 640, height_px: int = 480, margin_px: int = 48,
                 log_x: bool = False) -> None:
        if width_px <= 0 or height_px <= 0:
            raise ValueError("width_px and height_px must be positive")
        if margin_px < 0:
            raise ValueError("margin_px must be non-negative")
        if 2 * margin_px >= min(width_px, height_px):
            raise ValueError("margins leave no drawing area")
        object.__setattr__(self, "width_px", width_px)
        object.__setattr__(self, "height_px", height_px)
        object.__setattr__(self, "margin_px", margin_px)
        object.__setattr__(self, "log_x", log_x)


def _plotted(d: PolynomialDiagram, spec: RenderSpec) -> Iterator[tuple[int, int, int]]:
    """(abscissa, x, y) per vertex, in cycle order, from one new pass over the cycle.

    The abscissa is the true x, or under log_x the base-q exponent: the
    anchor and the chain vertex i sit at exponents n and n+i.  A degenerate
    diagram (q = 1) keeps true coordinates, which are all equal, so it
    collapses to one centered column either way.
    """
    p = d.source
    log_x = spec.log_x and p.q >= 2
    for index, (x, y) in enumerate(d.vertices):
        yield (p.n + max(index - 1, 0) if log_x else x), x, y


def _labeled(
    plotted: Iterable[tuple[int, int, int]], q: int
) -> Iterator[tuple[int, str, int]]:
    """(abscissa, text of x, y) per (abscissa, x, y), as they are read.

    The text is that of an exact Decimal: for an x that is q times the x
    before it, a running product in the EXACT context, and for any other x,
    one read from int_text(x), which starts a new product.
    """
    last = label = None  # the x before, and it as an exact Decimal
    for position, x, y in plotted:
        if label is not None and x == last * q:
            label = EXACT.multiply(label, q)
        else:
            label = Decimal(int_text(x))
        last = x
        yield position, str(label), y


# A vertex's marker and its label; the label's x is already text.
_MARKER = (
    '  <circle cx="%.2f" cy="%.2f" r="3.5" fill="#1f77b4"/>\n'
    '  <text x="%.2f" y="%.2f" font-family="monospace" '
    'font-size="12" fill="#333333">(%s, %s)</text>\n'
)


def diagram_svg(d: PolynomialDiagram, spec: RenderSpec | None = None) -> Iterator[str]:
    """Render the diagram as a standalone SVG 1.1 document, yielded in chunks.

    The vertex cycle is read in passes, each holding O(1) vertices: one for
    the plot ranges, one for the path and one for the labeled markers, which
    come CHUNK_ROWS vertices to a chunk.  ''.join of the chunks is the
    document.
    """
    spec = spec or RenderSpec()
    extent = _plotted(d, spec)
    x_lo, _, y_hi = next(extent)
    x_hi = x_lo
    for position, _, y in extent:  # the top vertex sits at y = k >= 1
        if position < x_lo:
            x_lo = position
        elif position > x_hi:
            x_hi = position
        if y > y_hi:
            y_hi = y

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

    def marker(position: int, label: str, y: int) -> str:
        cx, cy = px(position), py(y)
        return _MARKER % (cx, cy, cx + 6, cy - 6, label, y)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">\n'
        f'  <line x1="{fmt(left)}" y1="{fmt(py(0))}" x2="{fmt(right)}" '
        f'y2="{fmt(py(0))}" stroke="#999999" stroke-width="1"/>\n'
        f'  <line x1="{fmt(px(x_lo))}" y1="{fmt(bottom)}" x2="{fmt(px(x_lo))}" '
        f'y2="{fmt(top)}" stroke="#999999" stroke-width="1"/>\n'
        f'  <path d="M '
    )
    points = ("%.2f %.2f" % (px(position), py(y)) for position, _, y in _plotted(d, spec))
    separator = ""  # before the first point; " L " between points
    for batch in batched(points):
        yield separator + " L ".join(batch)
        separator = " L "
    yield ' Z" fill="#c6dbef" fill-opacity="0.6" stroke="#1f77b4" stroke-width="2"/>\n'
    for batch in batched(starmap(marker, _labeled(_plotted(d, spec), d.source.q))):
        yield "".join(batch)
    yield "</svg>\n"
