"""Exact-arithmetic toolkit for polynomial diagrams.

Builds the lattice-polygon diagram of a geometric-coefficient polynomial
(the (q, n, k) family), computes its area by independent exact routes,
analyzes the area sequences over q (ratios and finite differences), and
renders diagrams as SVG.  No floating point enters any computation; floats
appear only in rendered output.
"""

from .areas import (
    ROUTES,
    AreaCrossCheck,
    area_closed_form,
    area_general,
    area_pick,
    area_shoelace,
    cross_check,
    lattice_counts,
)
from .core import (
    DiagramDiagnostics,
    PolynomialDiagram,
    SpecialPolynomial,
    build_diagram,
    build_polynomial,
    validate_diagram,
)
from .formats import DEFAULT_DIGITS, format_decimal, rational_from_json
from .render import RenderSpec, diagram_svg
from .sequences import (
    AreaSequence,
    SequenceReport,
    area_sequence,
    convergence_report,
    finite_difference,
    ratio_sequence,
)
from .verify import CheckFailure, VerificationReport, run_grid_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_DIGITS",
    "ROUTES",
    "AreaCrossCheck",
    "AreaSequence",
    "CheckFailure",
    "DiagramDiagnostics",
    "PolynomialDiagram",
    "RenderSpec",
    "SequenceReport",
    "SpecialPolynomial",
    "VerificationReport",
    "area_closed_form",
    "area_general",
    "area_pick",
    "area_sequence",
    "area_shoelace",
    "build_diagram",
    "build_polynomial",
    "convergence_report",
    "cross_check",
    "diagram_svg",
    "finite_difference",
    "format_decimal",
    "lattice_counts",
    "ratio_sequence",
    "rational_from_json",
    "run_grid_verification",
    "validate_diagram",
]
