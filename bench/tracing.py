"""Layer tracing from outside the package: wrap public functions, record spans.

The package is never edited.  Each public function a layer module defines is
wrapped, and every `polydiagram.*` module attribute (or module-level dict
value) that holds the original is rebound to the wrapper, so calls between
modules, such as `verify` -> `areas.area_pick` or `areas.area_general` ->
`areas.trapezoid_area`, are recorded too.  Private helpers stay unwrapped, so
their time counts toward the public function that called them.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

LAYERS = ("core", "areas", "verify", "sequences", "formats", "render", "cli")

# One recorded call: (function name, start, end, parent span index or -1, raised).
Span = tuple[str, float, float, int, bool]


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions defined in the module whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def rebind(replacements: dict[Callable, Callable]) -> Callable[[], None]:
    """Point every package reference to an original at its replacement.

    Returns a function that restores the originals.
    """
    undo: list[tuple[object, str, Callable]] = []
    packages = [
        m for name, m in list(sys.modules.items())
        if name == "polydiagram" or name.startswith("polydiagram.")
    ]
    for module in packages:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if callable(value) and value in replacements:
                undo.append((module, name, value))
                setattr(module, name, replacements[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and item in replacements:
                        undo.append((value, key, item))
                        value[key] = replacements[item]

    def restore() -> None:
        for holder, name, original in reversed(undo):
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)

    return restore


class Tracer:
    """Records one span per call of every wrapped layer function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: Callable[[], None] | None = None

    def install(self) -> None:
        replacements: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polydiagram.{layer}")
            for name, fn in public_functions(module).items():
                replacements[fn] = self._wrap(f"{layer}.{name}", fn)
        self._restore = rebind(replacements)

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, raised)

        return traced

    def summary(self) -> dict[str, list]:
        """Per function: [self seconds, calls, calls that raised].

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _name, start, end, parent, _raised in spans:
            if parent >= 0:
                children[parent] += end - start
        stats: dict[str, list] = {}
        for index, (name, start, end, _parent, raised) in enumerate(spans):
            entry = stats.setdefault(name, [0.0, 0, 0])
            entry[0] += end - start - children[index]
            entry[1] += 1
            entry[2] += raised
        return stats

    def write(self, path: Path) -> None:
        """Write the recorded spans as CSV, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "raised"])
            for index, (name, start, end, parent, raised) in enumerate(self.spans):
                out.writerow(
                    [index, name, f"{start - origin:.9f}", f"{end - origin:.9f}",
                     parent, int(raised)]
                )
