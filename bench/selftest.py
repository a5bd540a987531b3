"""Self-test of the benchmark: it must count errors and catch wrong outputs.

Run from the repository root:

    python3 bench/selftest.py

1. One `big_k` pass on the code as it is: the area operation above 4300
   digits is counted as failed, the operations after it still run, and every
   output stays correct.
2. With `polydiagram.areas.area_general` wrapped from outside to return one
   more than it computes, one pass of every workload must report a
   correctness failure.

Exits 0 when the benchmark behaves as required, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import run
from tracing import rebind
from workloads import WORKLOADS, operations, reference_area


def area_digits(op) -> float:
    """Decimal digits in the numerator of an `area` operation's exact result."""
    q, k = (int(op.argv[op.argv.index(flag) + 1]) for flag in ("--q", "--k"))
    return reference_area(q, 0, k).numerator.bit_length() * math.log10(2)


def one_pass(cli, workload: str) -> run.Tally:
    tally = run.Tally()
    run.run_pass(cli, operations(workload, seed=0), tally)
    return tally


def main() -> int:
    cli = run.load_cli()
    findings: list[str] = []

    ops = operations("big_k", seed=0)
    tally = one_pass(cli, "big_k")
    big = [op for op in ops if op.argv[0] == "area" and area_digits(op) > 4300]
    if tally.attempted != len(ops) or tally.failed != len(big) or not tally.correct:
        findings.append(
            f"big_k: expected {len(ops)} attempted, {len(big)} failed and correct; got "
            f"{tally.attempted} attempted, {tally.failed} failed, problems {list(tally.problems)}"
        )

    areas = sys.modules["polydiagram.areas"]
    original = areas.area_general

    def off_by_one(p):
        return original(p) + 1

    restore = rebind({original: off_by_one})
    try:
        for workload in WORKLOADS:
            if one_pass(cli, workload).correct:
                findings.append(f"{workload}: an area off by one went unnoticed")
    finally:
        restore()
    if areas.area_general is not original:
        findings.append("rebind did not restore areas.area_general")

    for finding in findings:
        print(f"FAIL {finding}")
    print("selftest " + ("failed" if findings else "passed"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
