"""Exact-arithmetic toolkit for polynomial diagrams.

Builds the lattice-polygon diagram of a geometric-coefficient polynomial
(the (q, n, k) family), computes its area by independent exact routes,
analyzes the area sequences over q (ratios and finite differences), and
renders diagrams as SVG.  No floating point enters any computation; floats
appear only in rendered output.

`import polydiagram` loads no submodule.  Each name of __all__ is imported
from its module on first use, by the module __getattr__ (PEP 562), and kept
here from then on, so a command or program pays only for the modules it
reads.
"""

__version__ = "0.1.0"

# The module that defines each exported name.
_HOMES = {
    name: module
    for module, names in {
        "areas": ("ROUTES", "AreaCrossCheck", "area_closed_form", "area_general", "area_pick",
                  "area_shoelace", "cross_check", "lattice_counts"),
        "core": ("DiagramDiagnostics", "PolynomialDiagram", "SpecialPolynomial", "build_diagram",
                 "build_polynomial", "validate_diagram"),
        "formats": ("DEFAULT_DIGITS", "format_decimal", "rational_from_json"),
        "render": ("RenderSpec", "diagram_svg"),
        "sequences": ("AreaSequence", "SequenceReport", "area_sequence", "convergence_report",
                      "finite_difference", "ratio_sequence"),
        "verify": ("CheckFailure", "VerificationReport", "run_grid_verification"),
    }.items()
    for name in names
}

# _HOMES's names, in that order, after __version__.
__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
