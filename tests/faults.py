"""Every fault the tests inject into the package, each defined once, with its outcome.

A Fault is named by its key in CATALOG.  It states its class (one route
everywhere or at some points, two routes alike, every route alike, the
cycle, the oracles' walk, a structural finding, a golden row, a non-int or
a raise), what it does, the routes it is at, how to inject it, and its
outcome at each command of COMMANDS, as data.  A fault is injected at an
`areas.ROUTES` entry, which every command reaches, or at a core function
where its reader imports it: `VertexCycle.__iter__`, `areas._walk_cycle`
(the one walk whose running sum of x both oracles read), `validate_diagram`
in `verify`, or, for a fault of every route alike, `cross_check` in `cli`
and `verify` and `sequences.twice_area_sequence`, which `table` and `diff`
read.
(Patching `ROUTES["general"]` as well would offset that route twice, as
`cross_check` reads the entry.)

An outcome is an exit status and one fact (see `outcome`): on exit 1,
whether stderr blames a route the fault is at; on exit 0, whether stdout is
byte-identical to the clean run.  Exit 2, the usage-error status, is a
fault that escaped every check, and stands alone.  A non-int or a raise is
at `general` from the first q; its `inject` also takes another route, and a
later first q for a formula route, for the tests of where such a failure is
named.
`matrix` renders the catalog as the table the README prints.
"""

from __future__ import annotations

import contextlib
import re
from fractions import Fraction
from itertools import chain, count, islice
from typing import Callable, ContextManager, Iterator, NamedTuple
from unittest import mock

import polydiagram.areas as areas
import polydiagram.cli as cli
import polydiagram.core as core
import polydiagram.sequences as sequences
import polydiagram.verify as verify

# Each command an outcome is stated for: its argv, and its whole stderr when
# `general` fails with route_failure's {text} at every point.
COMMANDS: dict[str, tuple[tuple[str, ...], str]] = {
    "area": (("area", "--q", "7", "--k", "3"), "error: route 'general' {text}\n"),
    "verify": (("verify", "--q-max", "8", "--n-max", "1", "--k-max", "3"),
               "error: verification failed at (q=1, n=0, k=1): general_vs_shoelace: general {text}\n"
               + "".join(f"error: golden row mismatch: q={row[0]}: general {{text}}\n"
                         for row in verify.GOLDEN_QUADRATIC_ROWS)),
    "table": (("table", "--k", "3", "--q-to", "10"), "error: route 'general' {text} at q = 2\n"),
    "diff": (("diff", "--k", "3", "--q-to", "10"), "error: route 'general' {text} at q = 2\n"),
}

# Exit 1, and stderr names a route the fault is at, or names none; exit 0, and
# stdout is the clean run's, or is not.
NAMED, UNNAMED, SAME, WRONG = "1, names it", "1", "0, same", "0, wrong"


class Fault(NamedTuple):
    """One fault: its class, what it does, the routes it is at, its injector and its outcomes.

    `inject()` returns a context manager that holds the fault; `outcomes`
    are its outcomes at the commands of COMMANDS, in order.  `text` is
    route_failure's text for a non-int or a raise, else None.
    """

    kind: str
    what: str
    routes: tuple[str, ...]
    inject: Callable[..., ContextManager[object]]
    outcomes: tuple[str, str, str, str]
    text: str | None = None


def outcome(fault: Fault, code: int, same: bool, err: str) -> str:
    """The outcome observed for `fault`: exit `code`, a stdout the `same` as the clean run's.

    A failure changes stdout: exit 1 with the clean run's stdout is "1, same",
    which no fault expects.  Stderr blames a route as `route '<route>'`, as
    the failed check `<route>_vs_shoelace`, or as `<route> returned` or
    `raised`; a mismatch's `shoelace=<area>` does not blame the oracle.
    """
    if code == 0 or same:
        return f"{code}, same" if same else WRONG
    named = code == 1 and any(
        re.search(rf"route '{name}'|\b{name}(_vs_shoelace:| returned | raised )", err)
        for name in fault.routes)
    return NAMED if named else str(code)  # UNNAMED for exit 1


@contextlib.contextmanager
def _at_routes(names: tuple[str, ...], wrap: Callable) -> Iterator[None]:
    """Each route of `names` with its twice_area function f replaced by wrap(f)."""
    with mock.patch.dict(areas.ROUTES, {
            name: areas.ROUTES[name]._replace(twice_area=wrap(areas.ROUTES[name].twice_area))
            for name in names}):
        yield


def _offset(kind: str, what: str, names: tuple[str, ...], offset: Callable[..., int],
            outcomes: tuple[str, str, str, str]) -> Fault:
    """Routes `names` with offset(*args) added to each twice-area, args (q, n, k) or (walk,)."""
    return Fault(kind, " and ".join(f"`{name}`" for name in names) + " " + what, names,
                 lambda: _at_routes(names, lambda f: lambda *args: f(*args) + offset(*args)),
                 outcomes)


def _failing(kind: str, what: str, text: str, bad: Callable[[int], object]) -> Fault:
    """`general` giving bad(twice) for its twice-area; inject(route, from_q) moves it.

    A formula route, whose args are (q, n, k), gives its own value below from_q;
    a diagram route, whose one arg is a walk, fails wherever it runs.
    """

    def inject(route: str = "general", from_q: int = 1) -> ContextManager:
        return _at_routes((route,), lambda f: lambda *args: f(*args)
                          if len(args) == 3 and args[0] < from_q else bad(f(*args)))

    return Fault(kind, f"`general` {what}", ("general",), inject, (NAMED,) * 4, text)


def _raise(error: Exception) -> Fault:
    def bad(twice: int) -> int:
        raise error

    name = type(error).__name__
    return _failing("a raise", f"raises `{name}`", f"raised {name}: {error}", bad)


def _returning(kind: str, what: str, bad: Callable[[int], object]) -> Fault:
    return _failing("a non-int", f"returns {what}", f"returned {kind}, not an int", bad)


@contextlib.contextmanager
def _every_route(offset: Callable[[int, int, int], int]) -> Iterator[None]:
    """Every route's twice-area plus offset(q, n, k), at cross_check and the area sequence."""
    cross_check, twice_area_sequence = areas.cross_check, sequences.twice_area_sequence

    def checked(p, d=None, names=None):
        check = cross_check(p, d, names)
        return areas.AreaCrossCheck({name: twice + offset(p.q, p.n, p.k) for name, twice
                                     in check.twice_areas.items()}, check.failed)

    def sequence(k, n, q_from, q_to):
        return map(lambda q, twice: twice + offset(q, n, k), count(q_from),
                   twice_area_sequence(k, n, q_from, q_to))

    with (mock.patch.object(cli, "cross_check", checked),
          mock.patch.object(verify, "cross_check", checked),
          mock.patch.object(sequences, "twice_area_sequence", sequence)):
        yield


def _skipping_the_first_chain_vertex(walk: Callable = core.VertexCycle.__iter__) -> ContextManager:
    # the anchor, then every vertex after the next one
    return mock.patch.object(core.VertexCycle, "__iter__", lambda cycle: chain(
        islice(vertices := walk(cycle), 1), islice(vertices, 1, None)))


def _malforming_the_first_chain_vertex(walk: Callable = core.VertexCycle.__iter__
                                       ) -> ContextManager:
    # the anchor, then the first chain vertex as the 1-tuple of its x, then the rest
    return mock.patch.object(core.VertexCycle, "__iter__", lambda cycle: chain(
        islice(vertices := walk(cycle), 1), ((x,) for x, _ in islice(vertices, 1)), vertices))


def _moving_the_height_1_chain_vertex(walk: Callable = core.VertexCycle.__iter__
                                      ) -> ContextManager:
    # every vertex as the cycle yields it, but the chain vertex at height 1 one unit right
    return mock.patch.object(core.VertexCycle, "__iter__", lambda cycle: (
        (x + 1, y) if y == 1 else (x, y) for x, y in walk(cycle)))


def _one_x_off_in_the_shared_sum(walk: Callable = areas._walk_cycle) -> ContextManager:
    # one inner chain vertex's x off by one in the running sum both oracles read: its
    # shoelace coefficient -2 (the sum is negative) and Pick's 2I weigh it alike
    def walked(vertices):
        sums = walk(vertices)
        return sums._replace(shoelace=sums.shoelace - 2, interior=sums.interior + 1)

    return mock.patch.object(areas, "_walk_cycle", walked)


def _falsified(finding: str, falsify: Callable) -> Fault:
    """validate_diagram, where verify reads it, reporting falsify(its `finding`)."""

    def inject() -> ContextManager:
        validate = verify.validate_diagram

        def falsified(d):
            found = validate(d)
            return found._replace(**{finding: falsify(getattr(found, finding))})

        return mock.patch.object(verify, "validate_diagram", falsified)

    return Fault("a structural finding", f"`validate_diagram` reports `{finding}` falsely", (),
                 inject, (SAME, UNNAMED, SAME, SAME))


def _golden_row_16_off() -> ContextManager:
    rows = tuple((q, area + (q == 16), ratio) for q, area, ratio in verify.GOLDEN_QUADRATIC_ROWS)
    return mock.patch.object(verify, "GOLDEN_QUADRATIC_ROWS", rows)


CATALOG: dict[str, Fault] = {
    # every route reaches area and verify; table and diff read `general` alone;
    # verify blames the route checked against shoelace, never the oracle itself
    **{f"{name}-plus-2": _offset("one route everywhere", "+2 everywhere", (name,), lambda *_: 2,
                                 (UNNAMED, UNNAMED if name == "shoelace" else NAMED,
                                  WRONG if name == "general" else SAME, SAME))
       for name in areas.ROUTES},
    "general-plus-1": _offset("one route everywhere", "+1 everywhere (a half-unit area)",
                              ("general",), lambda *_: 1, (UNNAMED, NAMED, WRONG, SAME)),
    "general-plus-10^700": _offset("one route everywhere", "+10^700 everywhere", ("general",),
                                   lambda *_: 10**700, (UNNAMED, NAMED, WRONG, SAME)),
    "general-plus-2-at-q-7": _offset("one route at some points", "+2 at q = 7 only", ("general",),
                                     lambda q, n, k: 2 * (q == 7), (UNNAMED, NAMED, WRONG, WRONG)),
    "general-plus-2-at-n-1": _offset("one route at some points", "+2 at n = 1", ("general",),
                                     lambda q, n, k: 2 * (n == 1), (SAME, NAMED, SAME, SAME)),
    "general-plus-1-at-q-2-n-2200": _offset(
        "one route at some points", "+1 at q = 2, n = 2200 only", ("general",),
        lambda q, n, k: (q, n) == (2, 2200), (SAME, SAME, SAME, SAME)),
    "closed-and-general-plus-2q^n-at-k-3": _offset(
        "two routes alike", "+2·q^n at k = 3", ("closed", "general"),
        lambda q, n, k: 2 * q**n * (k == 3), (UNNAMED, NAMED, WRONG, SAME)),
    "every-route-plus-2q^n-at-k-3": Fault(
        "every route alike", "every route +2·q^n at k = 3", tuple(areas.ROUTES),
        lambda: _every_route(lambda q, n, k: 2 * q**n * (k == 3)), (WRONG, SAME, WRONG, SAME)),
    "cycle-skips-the-first-chain-vertex": Fault(
        "the cycle", "`VertexCycle` skips the first chain vertex", ("shoelace", "pick"),
        _skipping_the_first_chain_vertex, (UNNAMED, NAMED, SAME, SAME)),
    # both oracles fail in cross_check, and verify fails each structural check
    # with the unpack error of validate_diagram's walk
    "cycle-yields-a-malformed-pair": Fault(
        "the cycle", "`VertexCycle` yields `(x,)` for the first chain vertex",
        ("shoelace", "pick"), _malforming_the_first_chain_vertex, (NAMED, NAMED, SAME, SAME)),
    # both oracles read the moved vertex alike and agree with each other; closed and
    # general, which never read the cycle, disagree with them, and the moved vertex
    # breaks the chain's shape
    "cycle-moves-the-height-1-chain-vertex": Fault(
        "the cycle", "`VertexCycle` yields the height-1 chain vertex one unit right",
        ("shoelace", "pick"), _moving_the_height_1_chain_vertex, (UNNAMED, UNNAMED, SAME, SAME)),
    # both oracles +2 alike, so they agree with each other: only closed and
    # general, which never read the walk, disagree with them
    "walk-sum-of-x-one-off": Fault(
        "the oracles' walk", "`_walk_cycle` adds one inner chain x off by one",
        ("shoelace", "pick"), _one_x_off_in_the_shared_sum, (UNNAMED, UNNAMED, SAME, SAME)),
    **{f"false-{finding}": _falsified(finding, falsify)
       for finding, falsify in [("vertex_count", lambda count: count + 1),
                                ("simple", lambda _: False),
                                ("chain_slopes_increasing", lambda _: False),
                                ("convex", lambda convex: not convex),
                                ("chain_unit_steps", lambda _: False)]},
    "golden-row-16-off": Fault("a golden row", "the q = 16 golden row's area +1", (),
                               _golden_row_16_off, (SAME, UNNAMED, SAME, SAME)),
    "float": _returning("float", "its value as a `float`", float),
    "float-unequal": _returning("float", "its value + 0.5 as a `float`", lambda t: float(t) + 0.5),
    "Fraction": _returning("Fraction", "its value as a `Fraction`", Fraction),
    "bool": _returning("bool", "`True`", lambda t: True),
    "None": _returning("NoneType", "`None`", lambda t: None),
    "str": _returning("str", "its value as a `str`", str),
    "returned-ValueError": _returning("ValueError", "a `ValueError` object",
                                      lambda t: ValueError("no")),
    "raise-ValueError": _raise(ValueError("no")),
    "raise-ZeroDivisionError": _raise(ZeroDivisionError("division by zero")),
}

def matrix() -> str:
    """The catalog as the markdown table the README prints: a row per fault, a column per command."""
    lines = ["| fault | class | " + " | ".join(f"`{' '.join(argv)}`" for argv, _ in
                                              COMMANDS.values()) + " |",
             "|---|---|" + "---|" * len(COMMANDS)]
    for fault in CATALOG.values():
        cells = (cell if cell[0] != "0" else f"{cell} {document}"  # what stdout holds
                 for cell, document in zip(fault.outcomes, ("areas", "report", "rows", "rows")))
        lines.append(f"| {fault.what} | {fault.kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
