"""Exact-arithmetic toolkit for polynomial diagrams.

Builds the lattice-polygon diagram of a geometric-coefficient polynomial
(the (q, n, k) family), computes its area by independent exact routes,
analyzes the area sequences over q (ratios and finite differences), and
renders diagrams as SVG.  No floating point enters any computation; floats
appear only in rendered output.
"""

from .areas import (
    AreaCrossCheck,
    area_closed_form_k2,
    area_general,
    area_pick,
    area_shoelace,
    boundary_lattice_count,
    cross_check,
    interior_lattice_count,
    trapezoid_area,
    triangle_area,
)
from .core import (
    DiagramDiagnostics,
    LatticePoint,
    PolynomialDiagram,
    SpecialPolynomial,
    build_diagram,
    build_polynomial,
    evaluate_polynomial,
    monomial_map,
    validate_diagram,
)
from .formats import (
    DEFAULT_DIGITS,
    format_decimal,
    format_rational,
    rational_from_json,
    rational_to_json,
)
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
    "AreaCrossCheck",
    "AreaSequence",
    "CheckFailure",
    "DiagramDiagnostics",
    "LatticePoint",
    "PolynomialDiagram",
    "RenderSpec",
    "SequenceReport",
    "SpecialPolynomial",
    "VerificationReport",
    "area_closed_form_k2",
    "area_general",
    "area_pick",
    "area_sequence",
    "area_shoelace",
    "boundary_lattice_count",
    "build_diagram",
    "build_polynomial",
    "convergence_report",
    "cross_check",
    "diagram_svg",
    "evaluate_polynomial",
    "finite_difference",
    "format_decimal",
    "format_rational",
    "interior_lattice_count",
    "monomial_map",
    "ratio_sequence",
    "rational_from_json",
    "rational_to_json",
    "run_grid_verification",
    "trapezoid_area",
    "triangle_area",
    "validate_diagram",
]
