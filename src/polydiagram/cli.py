"""Command-line front end: areas, tables, difference sequences, verification, SVG.

Data documents go to stdout so they can be piped; warnings and failure
diagnostics go to stderr.  Exit status is 0 for success, 1 for a
verification or cross-check failure, a route that raises (`area` and
`verify` run every route through `cross_check`, which records the raise,
and `area` fails a non-int the same way; `table` and `diff` stop at the
RouteRaised of `twice_area_sequence`, which names the route, its raise or
the type it returned, and q) or an SVG that `render --out` cannot write,
and 2 for a usage error.
Identical invocations produce byte-identical documents.  A JSON document's
`params` block is built from the parsed arguments, so each flag is
declared once, in `build_parser`.

`area`, `table` and `diff` hand the document writer exact ints: each area
is a twice-area from the routes, halved to a (num, den) pair, and `table`
and `diff` take their ratios and differences on the twice-areas.  Every
document writer yields its text in chunks, and `table`, `diff` and
`render` compute their rows as the chunks are taken, so the memory of a
document stays flat in its length.  Each command raises every refusal
before its first chunk, and writes under the caller's int digit cap.

Every call starts with an interpreter that imports this module and builds
the parser, so the module imports only what `area` runs: `areas`, `core`
and `formats`.  `table` and `diff` import `sequences`, `verify` imports
`verify` and `render` imports `render`, each inside its command, and
`main` catches RouteRaised from `areas`, where it is defined.
"""

from __future__ import annotations

import argparse
import sys
from itertools import count, tee
from typing import TYPE_CHECKING, Iterable

from .areas import ROUTES, RouteRaised, cross_check, half_pair, route_refusal
from .core import build_diagram, build_polynomial
from .formats import (
    DEFAULT_DIGITS,
    MAX_DIGITS,
    json_document,
    records_document,
    table_document,
)

if TYPE_CHECKING:
    from .verify import CheckFailure

__all__ = ["main", "build_parser"]


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _emit(chunks: Iterable[str]) -> None:
    """Write a document to stdout chunk by chunk, as the writer yields them."""
    sys.stdout.writelines(chunks)


def _check_digits(digits: int) -> None:
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}, got {digits}")


def _params(args: argparse.Namespace) -> dict[str, str | int]:
    """Every flag but --format, in declaration order: decimal strings, `digits` an int.

    argparse fills the namespace in that order, between the subcommand name
    and the `func` default.
    """
    return {
        name: value if name == "digits" else str(value)
        for name, value in vars(args).items()
        if name not in ("command", "format", "func")
    }


def cmd_area(args: argparse.Namespace) -> int:
    p = build_polynomial(args.q, args.n, args.k)
    if args.method == "all":
        check = cross_check(p)
    else:  # a route that does not apply is refused before any work
        refusal = route_refusal(args.method, p)
        if refusal is not None:
            raise ValueError(refusal)
        check = cross_check(p, names=(args.method,))
    if p.degenerate:
        _warn("q = 1 produces a degenerate diagram; every area is 0")

    # a route that returns anything but an int fails like one that raises
    failed = {name: f"raised {text}" for name, text in check.raised.items()}
    failed.update((name, f"returned {type(twice).__name__}, not an int")
                  for name, twice in check.twice_areas.items() if type(twice) is not int)
    twice_areas = {name: t for name, t in check.twice_areas.items() if name not in failed}
    agree = not failed and len(set(twice_areas.values())) <= 1
    rows = [(name, half_pair(twice)) for name, twice in twice_areas.items()]
    _emit(records_document(args.format, ("method", "area"), rows, _params(args), args.digits,
                           "results", agree=agree))
    for name, text in failed.items():
        print(f"error: route {name!r} {text}", file=sys.stderr)
    if len(set(twice_areas.values())) > 1:
        print("error: area methods disagree", file=sys.stderr)
    return 0 if agree else 1


def cmd_table(args: argparse.Namespace) -> int:
    from .sequences import check_range, ratio_pairs, twice_area_sequence

    check_range(args.k, args.n, args.q_from, args.q_to)
    if args.q_from == 1:
        _warn("q = 1 row is degenerate; its ratio is undefined")
    # One extra value past q_to so the last row still has its ratio; the
    # rows are computed as the document is written.
    twice, ahead = tee(twice_area_sequence(args.k, args.n, args.q_from, args.q_to + 1))
    qs = map(str, range(args.q_from, args.q_to + 1))
    rows = zip(qs, map(half_pair, twice), ratio_pairs(ahead))
    _emit(records_document(args.format, ("q", "area", "ratio"), rows, _params(args), args.digits))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .sequences import check_order, check_range, differences, twice_area_sequence

    check_range(args.k, args.n, args.q_from, args.q_to)  # refused before any route runs
    check_order(args.order, args.q_to - args.q_from + 1)
    twice = twice_area_sequence(args.k, args.n, args.q_from, args.q_to)
    rows = zip(map(str, count(args.q_from)), map(half_pair, differences(list(twice), args.order)))
    _emit(records_document(args.format, ("q", "difference"), rows, _params(args), args.digits))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_grid_verification

    report = run_grid_verification(
        q_max=args.q_max,
        n_max=args.n_max,
        k_max=args.k_max,
    )
    first = report.first_failure
    document = {
        "params": _params(args),
        "points": report.points,
        "checks": report.checks,
        "pick_checks": report.pick_checks,
        "failures": [_failure_record(f) for f in report.failures],
        "first_failure": None if first is None else _failure_record(first),
        "golden_quadratic": {
            "ok": not report.golden_problems,
            "problems": list(report.golden_problems),
        },
        "passed": report.passed,
    }
    if args.format == "json":
        _emit((json_document(document),))
    else:
        _emit(table_document(args.format, ["key", "value"], _verify_rows(document)))
    if document["first_failure"] is not None:
        message = "verification failed at (q={q}, n={n}, k={k}): {check}: {detail}"
        print("error: " + message.format_map(document["first_failure"]), file=sys.stderr)
    for problem in document["golden_quadratic"]["problems"]:
        print(f"error: golden row mismatch: {problem}", file=sys.stderr)
    return 0 if document["passed"] else 1


def _failure_record(failure: CheckFailure) -> dict[str, str]:
    return {name: str(getattr(failure, name)) for name in failure.__slots__}


def _verify_rows(document: dict) -> list[list[str]]:
    """Key/value rows of a verify document: its totals, then each failure and golden problem."""
    golden = document["golden_quadratic"]
    rows = [
        ["points", str(document["points"])],
        ["checks", str(document["checks"])],
        ["pick_checks", str(document["pick_checks"])],
        ["failures", str(len(document["failures"]))],
        ["golden_quadratic_ok", str(golden["ok"]).lower()],
        ["passed", str(document["passed"]).lower()],
    ]
    rows.extend(
        ["failure", "(q={q}, n={n}, k={k}) {check}: {detail}".format_map(f)]
        for f in document["failures"]
    )
    rows.extend(["golden_problem", problem] for problem in golden["problems"])
    return rows


def cmd_render(args: argparse.Namespace) -> int:
    from .render import RenderSpec, diagram_svg

    p = build_polynomial(args.q, args.n, args.k)
    spec = RenderSpec(
        width_px=args.width,
        height_px=args.height,
        margin_px=args.margin,
        log_x=args.log_x,
    )
    d = build_diagram(p)
    if d.degenerate:
        _warn("q = 1 produces a degenerate diagram; rendering a vertical segment")
    if args.out is None:
        _emit(diagram_svg(d, spec))
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(diagram_svg(d, spec))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_format_flags(
    parser: argparse.ArgumentParser, default: str = "csv", digits: bool = True
) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json", "markdown"),
        default=default,
        help=f"output document format (default: {default})",
    )
    if digits:
        parser.add_argument(
            "--digits",
            type=int,
            default=DEFAULT_DIGITS,
            help=f"decimal places in rendered decimals, 0..{MAX_DIGITS} "
            f"(default: {DEFAULT_DIGITS})",
        )


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    """--q, --n, --k of one diagram (area, render)."""
    parser.add_argument("--q", type=int, required=True, help="coefficient base, q >= 1")
    parser.add_argument("--n", type=int, default=0, help="power shift, n >= 0 (default: 0)")
    parser.add_argument("--k", type=int, required=True, help="degree, k >= 1")


def _add_range_flags(parser: argparse.ArgumentParser) -> None:
    """--k, --n, --q-from, --q-to of an area sequence over q (table, diff)."""
    parser.add_argument("--k", type=int, default=2, help="degree (default: 2)")
    parser.add_argument("--n", type=int, default=0, help="power shift (default: 0)")
    parser.add_argument("--q-from", type=int, default=2, help="first q (default: 2)")
    parser.add_argument("--q-to", type=int, default=16, help="last q (default: 16)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydiagram",
        description="Exact areas, sequences, and renderings of polynomial diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    area = sub.add_parser("area", help="compute the diagram area for one (q, n, k)")
    _add_point_flags(area)
    area.add_argument(
        "--method",
        choices=(*ROUTES, "all"),
        default="all",
        help="area route; 'all' cross-checks every applicable one (default: all)",
    )
    _add_format_flags(area)
    area.set_defaults(func=cmd_area)

    table = sub.add_parser("table", help="areas and consecutive ratios over a q range")
    _add_range_flags(table)
    _add_format_flags(table)
    table.set_defaults(func=cmd_table)

    diff = sub.add_parser("diff", help="forward differences of the area sequence")
    _add_range_flags(diff)
    diff.add_argument("--order", type=int, default=2, help="difference order (default: 2)")
    _add_format_flags(diff)
    diff.set_defaults(func=cmd_diff)

    verify = sub.add_parser("verify", help="run the full cross-check grid")
    verify.add_argument("--q-max", type=int, default=50, help="grid bound for q (default: 50)")
    verify.add_argument("--n-max", type=int, default=10, help="grid bound for n (default: 10)")
    verify.add_argument("--k-max", type=int, default=12, help="grid bound for k (default: 12)")
    _add_format_flags(verify, default="json", digits=False)
    verify.set_defaults(func=cmd_verify)

    render = sub.add_parser("render", help="render the diagram polygon as SVG")
    _add_point_flags(render)
    render.add_argument("--width", type=int, default=640, help="width in px (default: 640)")
    render.add_argument("--height", type=int, default=480, help="height in px (default: 480)")
    render.add_argument("--margin", type=int, default=48, help="margin in px (default: 48)")
    render.add_argument(
        "--log-x",
        action="store_true",
        help="place vertices by base-q exponent instead of raw x",
    )
    render.add_argument("--out", default=None, help="output path (default: stdout)")
    render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "digits" in vars(args):  # area, table, diff: refuse before any work
            _check_digits(args.digits)
        return args.func(args)
    except RouteRaised as exc:  # table, diff: a route's fault, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
