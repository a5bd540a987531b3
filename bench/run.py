"""Benchmark of the polydiagram CLI, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload {verify_grid,big_k,reports} --seed N \
        --seconds S --trace {0,1}

The workload's operations are calls of `polydiagram.cli.main(argv)` in this
process, with stdout and stderr captured; each output is checked against
values computed in `bench/workloads.py`.  With `--trace 0` the run reports
the end-to-end metrics of BENCHMARK.json, its timings scaled to a reference
machine speed (see `bench/speed.py`); with `--trace 1` it reports the
per-layer metrics from a separate traced run (see `bench/tracing.py`).  The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit status is 0 when every output was correct.  See bench/README.md
for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import ModuleType

from speed import REFERENCE_S, SpeedProbe
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Operation, operations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Cold start: a fresh interpreter imports the CLI and builds its parser.
SETUP_CODE = "import polydiagram.cli as cli; cli.build_parser()"
# Then the same interpreter times the speed kernel, and prints the kernel's
# mean time and the seconds it spent after the cold start.
SPEED_CODE = """
from time import perf_counter
cold_start_end = perf_counter()
from speed import kernel_seconds
samples = kernel_seconds(5)
print(sum(samples) / len(samples), perf_counter() - cold_start_end)
"""
SETUP_PROBES = 25


def load_cli() -> ModuleType:
    """Import the CLI from this checkout's sources, ahead of any installed copy."""
    if not (SRC / "polydiagram" / "cli.py").is_file():
        raise SystemExit(f"error: no polydiagram sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("polydiagram.cli")


def measure_setup(probes: int = SETUP_PROBES) -> float:
    """Median wall seconds of a fresh interpreter running SETUP_CODE, at reference speed.

    Each probe is scaled by the speed kernel timed in its own interpreter
    right after the cold start, and the kernel's time is left out of it.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from a bytecode cache
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(BENCH), env.get("PYTHONPATH")])
    )

    def probe() -> float:
        start = perf_counter()
        # No timeout: waiting with one polls the child and rounds the time up.
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE + SPEED_CODE],
            env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        seconds = perf_counter() - start
        kernel_s, after_s = map(float, done.stdout.split())
        return (seconds - after_s) * REFERENCE_S / kernel_s

    probe()  # writes that cache
    return median(probe() for _ in range(probes))


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no message)"


@dataclass
class Tally:
    """Outcomes of every operation run so far."""

    attempted: int = 0
    failed: int = 0
    pick_checks: int = 0
    pick_points: int = 0
    problems: dict[str, None] = field(default_factory=dict)  # ordered, unique
    errors: dict[str, None] = field(default_factory=dict)

    def record(self, op: Operation, code: int | None, out: str, err: str) -> None:
        self.attempted += 1
        label = " ".join(op.argv)
        if code == 0:
            problem = op.check(out)
            if problem:
                self.problems[f"{label}: {problem}"] = None
            elif op.pick_points:
                self.pick_checks += json.loads(out)["pick_checks"]
                self.pick_points += op.pick_points
        elif code == 1:
            # Exit 1 is the program reporting a wrong result (routes disagree
            # or verification failed): a correctness failure, not an error.
            self.problems[f"{label}: exit 1: {_last_line(err)}"] = None
        else:
            self.failed += 1
            self.errors[f"{label}: exit {code}: {_last_line(err)}"] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def run_op(
    cli: ModuleType, op: Operation, speed: SpeedProbe | None = None
) -> tuple[float, int | None, str, str]:
    """Call the CLI once; returns (seconds, exit code or None on a crash, stdout, stderr).

    The seconds leave out the time an active speed probe took meanwhile.
    """
    out, err = io.StringIO(), io.StringIO()
    probed = speed.spent if speed else 0.0
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing operation counts as failed; the run goes on
            traceback.print_exc()
            code = None
    seconds = perf_counter() - start - ((speed.spent if speed else 0.0) - probed)
    return seconds, code, out.getvalue(), err.getvalue()


def run_pass(
    cli: ModuleType, ops: list[Operation], tally: Tally, speed: SpeedProbe | None = None
) -> float:
    """Run every operation once; returns the seconds spent inside the CLI.

    Each output is checked right after its operation, outside the timing.
    """
    total = 0.0
    for op in ops:
        seconds, code, out, err = run_op(cli, op, speed)
        total += seconds
        tally.record(op, code, out, err)
    return total


def timed_pass(
    cli: ModuleType, ops: list[Operation], tally: Tally,
    tracer: Tracer | None = None, speed: SpeedProbe | None = None,
) -> float:
    """One pass from a collected heap; with a tracer, only its spans are kept."""
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
    gc.collect()
    try:
        return run_pass(cli, ops, tally, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()


def layer_values(stats: dict[str, list]) -> dict[str, float]:
    """Flatten one traced pass into `<layer>.*` and `<layer>.<function>.*` values."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = 0.0
        values[f"{layer}.calls"] = 0
    for name, (self_s, calls, raised) in stats.items():
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] += self_s
        values[f"{layer}.calls"] += calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.calls"] = calls
        values[f"{name}.raised"] = raised
    return values


def per_layer_metric(name: str, passes: list[dict[str, float]]) -> float:
    """Median over traced passes; a function never called reads 0."""
    layer, _, rest = name.partition(".")
    if layer not in LAYERS or rest.rpartition(".")[2] not in ("self_s", "calls", "raised"):
        raise ValueError(f"unknown per-layer metric {name!r}")
    return median(values.get(name, 0) for values in passes)


def end_to_end(
    cli: ModuleType, ops: list[Operation], tally: Tally, seconds: float
) -> dict[str, float]:
    """End-to-end metrics; times are scaled to reference speed (see speed.py)."""
    setup_s = measure_setup()
    speed = SpeedProbe()
    deadline = perf_counter() + seconds
    raw: list[float] = []
    walls: list[float] = []
    with speed:
        run_pass(cli, ops, tally, speed)  # warm-up, inside the measured window
        while not walls or perf_counter() < deadline:
            first = len(speed.samples)
            raw.append(timed_pass(cli, ops, tally, speed=speed))
            walls.append(raw[-1] * speed.scale(first))
    print(f"unscaled median pass: {median(raw):.4f} s over {len(raw)} passes", file=sys.stderr)
    return {
        "wall_s": median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced(
    cli: ModuleType, ops: list[Operation], tally: Tally, seconds: float,
    names: list[str], spans_path: Path,
) -> dict[str, float]:
    """Untraced and traced passes in turn, so drift in machine speed hits both alike."""
    deadline = perf_counter() + seconds
    run_pass(cli, ops, tally)  # warm-up, inside the measured window
    tracer = Tracer()
    plain: list[float] = []
    walls: list[float] = []
    passes: list[dict[str, float]] = []
    while not walls or perf_counter() < deadline:
        plain.append(timed_pass(cli, ops, tally))
        walls.append(timed_pass(cli, ops, tally, tracer))
        passes.append(layer_values(tracer.summary()))
    tracer.write(spans_path)  # the last traced pass
    values: dict[str, float] = {}
    for name in names:
        if name == "trace_overhead_s":
            values[name] = median(walls) - median(plain)
        elif name == "verify.pick_coverage":
            # Share of q >= 2 verify points where the Pick oracle ran; 0
            # when the workload runs no verify.
            values[name] = tally.pick_checks / tally.pick_points if tally.pick_points else 0.0
        else:
            values[name] = per_layer_metric(name, passes)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the warm-up and timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    ops = operations(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        spans_path = BENCH / "out" / f"{args.workload}.spans.csv"
        values = traced(cli, ops, tally, args.seconds, list(units), spans_path)
    else:
        values = end_to_end(cli, ops, tally, args.seconds)

    for line in [*tally.errors, *tally.problems]:
        print(line, file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
