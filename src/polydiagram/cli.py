"""Command-line front end: areas, tables, difference sequences, verification, SVG.

Data documents go to stdout so they can be piped; warnings and failure
diagnostics go to stderr.  Exit status is 0 for success, 1 for a
verification or cross-check failure, and 2 for a usage error.  Identical
invocations produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .areas import (
    area_closed_form_k2,
    area_general,
    area_pick,
    area_shoelace,
    cross_check,
)
from .core import build_diagram, build_polynomial
from .formats import (
    DEFAULT_DIGITS,
    csv_document,
    format_decimal,
    format_rational,
    json_document,
    markdown_document,
    rational_to_json,
)
from .render import RenderSpec, diagram_svg
from .sequences import area_sequence, finite_difference, ratio_sequence
from .verify import run_grid_verification

__all__ = ["main", "build_parser"]

UNDEFINED = "undefined"


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _tabular(fmt: str, headers: list[str], rows: list[list[str]], payload: dict) -> str:
    if fmt == "json":
        return json_document(payload)
    if fmt == "markdown":
        return markdown_document(headers, rows)
    return csv_document(headers, rows)


def cmd_area(args: argparse.Namespace) -> int:
    p = build_polynomial(args.q, args.n, args.k)
    if args.method == "closed" and p.k != 2:
        raise ValueError(f"method 'closed' requires k = 2, got k = {p.k}")
    if p.degenerate:
        _warn("q = 1 produces a degenerate diagram; every area is 0")

    results: list[tuple[str, Fraction]] = []
    agree = True
    if args.method == "all":
        check = cross_check(p)
        if check.closed_form is not None:
            results.append(("closed", check.closed_form))
        results.append(("general", check.general_formula))
        results.append(("shoelace", check.shoelace))
        if check.pick is not None:
            results.append(("pick", check.pick))
        agree = check.agree
    elif args.method == "closed":
        results.append(("closed", area_closed_form_k2(p.q, p.n)))
    elif args.method == "general":
        results.append(("general", area_general(p)))
    elif args.method == "shoelace":
        results.append(("shoelace", area_shoelace(build_diagram(p))))
    else:  # pick
        results.append(("pick", area_pick(build_diagram(p))))

    headers = ["method", "area", "area_decimal"]
    rows = [
        [name, format_rational(value), format_decimal(value, args.digits)]
        for name, value in results
    ]
    payload = {
        "params": {
            "q": str(args.q),
            "n": str(args.n),
            "k": str(args.k),
            "method": args.method,
            "digits": args.digits,
        },
        "results": [
            {
                "method": name,
                "area": rational_to_json(value),
                "area_decimal": format_decimal(value, args.digits),
            }
            for name, value in results
        ],
        "agree": agree,
    }
    _emit(_tabular(args.format, headers, rows, payload))
    if not agree:
        print("error: area methods disagree", file=sys.stderr)
        return 1
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.q_from > args.q_to:
        raise ValueError(f"empty range: q_from={args.q_from} > q_to={args.q_to}")
    if args.q_from == 1:
        _warn("q = 1 row is degenerate; its ratio is undefined")
    # One extra value past q_to so the last row still has its ratio.
    seq = area_sequence(args.k, args.n, args.q_from, args.q_to + 1)
    ratios = ratio_sequence(seq)

    headers = ["q", "area", "area_decimal", "ratio", "ratio_decimal"]
    rows: list[list[str]] = []
    json_rows: list[dict] = []
    for j, q in enumerate(range(args.q_from, args.q_to + 1)):
        area = seq.values[j]
        ratio = ratios[j]
        rows.append(
            [
                str(q),
                format_rational(area),
                format_decimal(area, args.digits),
                format_rational(ratio) if ratio is not None else UNDEFINED,
                format_decimal(ratio, args.digits) if ratio is not None else UNDEFINED,
            ]
        )
        json_rows.append(
            {
                "q": str(q),
                "area": rational_to_json(area),
                "area_decimal": format_decimal(area, args.digits),
                "ratio": rational_to_json(ratio) if ratio is not None else None,
                "ratio_decimal": (
                    format_decimal(ratio, args.digits) if ratio is not None else None
                ),
            }
        )
    payload = {
        "params": {
            "k": str(args.k),
            "n": str(args.n),
            "q_from": str(args.q_from),
            "q_to": str(args.q_to),
            "digits": args.digits,
        },
        "rows": json_rows,
    }
    _emit(_tabular(args.format, headers, rows, payload))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    if args.q_from > args.q_to:
        raise ValueError(f"empty range: q_from={args.q_from} > q_to={args.q_to}")
    seq = area_sequence(args.k, args.n, args.q_from, args.q_to)
    values = finite_difference(seq, args.order)  # rejects ranges too short

    headers = ["q", "difference", "difference_decimal"]
    rows = [
        [
            str(args.q_from + j),
            format_rational(value),
            format_decimal(value, args.digits),
        ]
        for j, value in enumerate(values)
    ]
    payload = {
        "params": {
            "k": str(args.k),
            "n": str(args.n),
            "q_from": str(args.q_from),
            "q_to": str(args.q_to),
            "order": str(args.order),
            "digits": args.digits,
        },
        "rows": [
            {
                "q": str(args.q_from + j),
                "difference": rational_to_json(value),
                "difference_decimal": format_decimal(value, args.digits),
            }
            for j, value in enumerate(values)
        ],
    }
    _emit(_tabular(args.format, headers, rows, payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_grid_verification(
        q_max=args.q_max,
        n_max=args.n_max,
        k_max=args.k_max,
    )
    failures = [
        {
            "q": str(f.q),
            "n": str(f.n),
            "k": str(f.k),
            "check": f.check,
            "detail": f.detail,
        }
        for f in report.failures
    ]
    payload = {
        "params": {
            "q_max": str(report.q_max),
            "n_max": str(report.n_max),
            "k_max": str(report.k_max),
        },
        "points": report.points,
        "checks": report.checks,
        "pick_checks": report.pick_checks,
        "failures": failures,
        "first_failure": failures[0] if failures else None,
        "golden_quadratic": {
            "ok": not report.golden_problems,
            "problems": list(report.golden_problems),
        },
        "passed": report.passed,
    }
    headers = ["key", "value"]
    rows = [
        ["points", str(report.points)],
        ["checks", str(report.checks)],
        ["pick_checks", str(report.pick_checks)],
        ["failures", str(len(report.failures))],
        ["golden_quadratic_ok", str(not report.golden_problems).lower()],
        ["passed", str(report.passed).lower()],
    ]
    rows.extend(
        ["failure", f"(q={f.q}, n={f.n}, k={f.k}) {f.check}: {f.detail}"]
        for f in report.failures
    )
    rows.extend(["golden_problem", problem] for problem in report.golden_problems)
    _emit(_tabular(args.format, headers, rows, payload))
    if not report.passed:
        first = report.first_failure
        if first is not None:
            print(
                f"error: verification failed at (q={first.q}, n={first.n}, "
                f"k={first.k}): {first.check}: {first.detail}",
                file=sys.stderr,
            )
        for problem in report.golden_problems:
            print(f"error: golden row mismatch: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args: argparse.Namespace) -> int:
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
    document = diagram_svg(d, spec)
    if args.out is None:
        _emit(document)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_format_flags(parser: argparse.ArgumentParser, default: str = "csv") -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json", "markdown"),
        default=default,
        help=f"output document format (default: {default})",
    )
    parser.add_argument(
        "--digits",
        type=int,
        default=DEFAULT_DIGITS,
        help=f"decimal places in rendered decimals (default: {DEFAULT_DIGITS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydiagram",
        description="Exact areas, sequences, and renderings of polynomial diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    area = sub.add_parser("area", help="compute the diagram area for one (q, n, k)")
    area.add_argument("--q", type=int, required=True, help="coefficient base, q >= 1")
    area.add_argument("--n", type=int, default=0, help="power shift, n >= 0 (default: 0)")
    area.add_argument("--k", type=int, required=True, help="degree, k >= 1")
    area.add_argument(
        "--method",
        choices=("closed", "general", "shoelace", "pick", "all"),
        default="all",
        help="area route; 'all' cross-checks every applicable one (default: all)",
    )
    _add_format_flags(area)
    area.set_defaults(func=cmd_area)

    table = sub.add_parser("table", help="areas and consecutive ratios over a q range")
    table.add_argument("--k", type=int, default=2, help="degree (default: 2)")
    table.add_argument("--n", type=int, default=0, help="power shift (default: 0)")
    table.add_argument("--q-from", type=int, default=2, help="first q (default: 2)")
    table.add_argument("--q-to", type=int, default=16, help="last q (default: 16)")
    _add_format_flags(table)
    table.set_defaults(func=cmd_table)

    diff = sub.add_parser("diff", help="forward differences of the area sequence")
    diff.add_argument("--k", type=int, default=2, help="degree (default: 2)")
    diff.add_argument("--n", type=int, default=0, help="power shift (default: 0)")
    diff.add_argument("--order", type=int, default=2, help="difference order (default: 2)")
    diff.add_argument("--q-from", type=int, default=2, help="first q (default: 2)")
    diff.add_argument("--q-to", type=int, default=16, help="last q (default: 16)")
    _add_format_flags(diff)
    diff.set_defaults(func=cmd_diff)

    verify = sub.add_parser("verify", help="run the full cross-check grid")
    verify.add_argument("--q-max", type=int, default=50, help="grid bound for q (default: 50)")
    verify.add_argument("--n-max", type=int, default=10, help="grid bound for n (default: 10)")
    verify.add_argument("--k-max", type=int, default=12, help="grid bound for k (default: 12)")
    _add_format_flags(verify, default="json")
    verify.set_defaults(func=cmd_verify)

    render = sub.add_parser("render", help="render the diagram polygon as SVG")
    render.add_argument("--q", type=int, required=True, help="coefficient base, q >= 1")
    render.add_argument("--n", type=int, default=0, help="power shift (default: 0)")
    render.add_argument("--k", type=int, required=True, help="degree, k >= 1")
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
