"""The benchmark's workloads: CLI operations and their independent output checks.

Every operation is one argv for `polydiagram.cli.main`.  Its check reads the
document the command printed and compares its meaning (exact rationals,
counts, XML structure) with values computed here, never with the package's
own functions and never with byte digests, so the document layout may change
without breaking the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

# A check returns a description of what is wrong, or None when the output is right.
Check = Callable[[str], "str | None"]

DIGITS = 4  # the CLI's default --digits; no operation overrides it
SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    check: Check
    # Grid points with q >= 2 that a `verify` operation sweeps; the Pick
    # oracle applies at each of them.  0 for every other command.
    pick_points: int = 0


def reference_area(q: int, n: int, k: int) -> Fraction:
    """Telescoped slab sum A = q^n (q^k - (2k-1) + 2(q^k - q)/(q-1)) / 2; 0 when q = 1."""
    if q == 1:
        return Fraction(0)
    qk = q**k
    return Fraction(q**n * (qk - (2 * k - 1) + 2 * ((qk - q) // (q - 1))), 2)


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the int<->str digit cap while parsing outputs, never while the CLI runs."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.11 has no cap
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _json_rational(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _decimal_problem(text: str, exact: Fraction) -> str | None:
    if abs(Fraction(text) - exact) > Fraction(1, 2 * 10**DIGITS):
        return f"decimal {text} is not {exact} rounded to {DIGITS} places"
    return None


def _markdown_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.strip("| ").split(" | ") for line in lines[2:]]


def _checked(check: Check) -> Check:
    """Turn a parse error in a check into a reported problem."""

    def run(out: str) -> str | None:
        try:
            with _unlimited_int_digits():
                return check(out)
        except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    return run


def check_area(q: int, n: int, k: int) -> Check:
    """CSV rows of `area --method all`: every route's area is the reference."""
    expected = reference_area(q, n, k)

    def check(out: str) -> str | None:
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) < 2:
            return f"expected at least two cross-checked routes, got {len(rows)}"
        for row in rows:
            area = _rational(row["area"])
            if area != expected:
                return f"route {row['method']}: area {area} != reference {expected}"
            problem = _decimal_problem(row["area_decimal"], area)
            if problem:
                return f"route {row['method']}: {problem}"
        return None

    return _checked(check)


def check_table(k: int, n: int, q_from: int, q_to: int, fmt: str) -> Check:
    """Every area and consecutive ratio of `table` against the reference formula."""

    def rows_of(out: str) -> list[tuple[str, Fraction, str, Fraction | None, str | None]]:
        if fmt == "json":
            return [
                (r["q"], _json_rational(r["area"]), r["area_decimal"],
                 None if r["ratio"] is None else _json_rational(r["ratio"]), r["ratio_decimal"])
                for r in json.loads(out)["rows"]
            ]
        cells = (
            _markdown_rows(out) if fmt == "markdown" else list(csv.reader(io.StringIO(out)))[1:]
        )
        return [
            (q, _rational(area), area_dec, None if ratio == "undefined" else _rational(ratio),
             None if ratio_dec == "undefined" else ratio_dec)
            for q, area, area_dec, ratio, ratio_dec in cells
        ]

    def check(out: str) -> str | None:
        rows = rows_of(out)
        if len(rows) != q_to - q_from + 1:
            return f"expected {q_to - q_from + 1} rows, got {len(rows)}"
        nxt = reference_area(q_from, n, k)
        for q, (q_text, area, area_dec, ratio, ratio_dec) in zip(range(q_from, q_to + 1), rows):
            expected, nxt = nxt, reference_area(q + 1, n, k)
            if q_text != str(q) or area != expected:
                return f"row q={q_text}: area {area} != reference {expected} at q={q}"
            want_ratio = nxt / expected if expected else None
            if ratio != want_ratio:
                return f"row q={q}: ratio {ratio} != reference {want_ratio}"
            problem = _decimal_problem(area_dec, area) or (
                _decimal_problem(ratio_dec, ratio) if ratio is not None else None
            )
            if problem:
                return f"row q={q}: {problem}"
        return None

    return _checked(check)


def check_diff_k2(q_from: int, q_to: int) -> Check:
    """Second differences of the k = 2, n = 0 areas are exactly 1 everywhere."""
    expected_rows = q_to - q_from + 1 - 2

    def check(out: str) -> str | None:
        rows = _markdown_rows(out)
        if len(rows) != expected_rows:
            return f"expected {expected_rows} rows, got {len(rows)}"
        for q, (q_text, value, _decimal) in zip(range(q_from, q_to + 1), rows):
            if q_text != str(q) or _rational(value) != 1:
                return f"row q={q_text}: difference {value} != 1/1"
        return None

    return _checked(check)


def check_render(k: int) -> Check:
    """The SVG parses as XML and marks all k + 2 vertices."""

    def check(out: str) -> str | None:
        markers = len(ET.fromstring(out).findall(f".//{SVG_CIRCLE}"))
        if markers != k + 2:
            return f"expected {k + 2} vertex markers, got {markers}"
        return None

    return _checked(check)


def check_verify(points: int) -> Check:
    """The sweep passed and visited every grid point."""

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc["passed"] is not True:
            return f"verification did not pass: first failure {doc.get('first_failure')}"
        if doc["points"] != points:
            return f"expected {points} grid points, got {doc['points']}"
        return None

    return _checked(check)


def verify_op(q_max: int, n_max: int, k_max: int) -> Operation:
    argv = ("verify", "--q-max", str(q_max), "--n-max", str(n_max), "--k-max", str(k_max))
    grid = (n_max + 1) * k_max
    return Operation(argv, check_verify(q_max * grid), pick_points=(q_max - 1) * grid)


def area_op(q: int, k: int) -> Operation:
    argv = ("area", "--q", str(q), "--k", str(k), "--method", "all")
    return Operation(argv, check_area(q, 0, k))


def table_op(k: int, n: int, q_to: int, fmt: str) -> Operation:
    argv = ("table", "--k", str(k), "--n", str(n), "--q-to", str(q_to), "--format", fmt)
    return Operation(argv, check_table(k, n, 2, q_to, fmt))


def diff_op(q_to: int) -> Operation:
    argv = ("diff", "--q-to", str(q_to), "--format", "markdown")
    return Operation(argv, check_diff_k2(2, q_to))


def render_op(q: int, k: int, log_x: bool) -> Operation:
    argv = ("render", "--q", str(q), "--k", str(k)) + (("--log-x",) if log_x else ())
    return Operation(argv, check_render(k))


def _near(rng: random.Random, centre: int, share: float = 0.005) -> int:
    """A size within +/-share of centre: the seed moves the input, not its class."""
    spread = max(1, round(centre * share))
    return centre + rng.randint(-spread, spread)


def verify_grid(rng: random.Random) -> list[Operation]:
    # The default conformance sweep exactly as users run it; no seed applies.
    return [verify_op(50, 10, 12)]


def big_k(rng: random.Random) -> list[Operation]:
    # Three size classes of huge diagrams.  q = 2 puts the last class's area
    # at about 6000 digits, above Python's 4300-digit int->str cap at every
    # seed (k > 14284), so that operation's failure shows in the success rate.
    ops = [area_op(2, _near(rng, k)) for k in (2000, 10000, 20000)]
    ops.append(verify_op(2, 0, _near(rng, 150, share=0.01)))
    return ops


def reports(rng: random.Random) -> list[Operation]:
    q_to = _near(rng, 10000)
    return [
        table_op(2, 0, q_to, "csv"),
        table_op(2, 0, q_to, "json"),
        table_op(12, 3, _near(rng, 2000), "markdown"),
        diff_op(_near(rng, 5000)),
        render_op(3, _near(rng, 200, share=0.01), log_x=False),
        render_op(3, _near(rng, 2000), log_x=True),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Operation]]] = {
    "verify_grid": verify_grid,
    "big_k": big_k,
    "reports": reports,
}


def operations(workload: str, seed: int) -> list[Operation]:
    """The workload's operations; the same seed gives the same inputs."""
    return WORKLOADS[workload](random.Random(seed))
