"""The public surface: every name a module exports resolves, so star-imports work,
and no module reaches into another's private names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polydiagram

MODULES = ["polydiagram"] + [
    f"polydiagram.{info.name}"
    for info in pkgutil.iter_modules(polydiagram.__path__)
    if info.name != "__main__"
]


def test_every_module_is_listed():
    assert MODULES == [
        "polydiagram",
        *(f"polydiagram.{name}" for name in
          ("areas", "cli", "core", "formats", "render", "sequences", "verify")),
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


def test_star_import_of_areas_binds_the_route_failure_exception():
    # every area_* function raises it, so a star import that binds them binds it too
    from polydiagram.areas import RouteRaised

    namespace: dict[str, object] = {}
    exec("from polydiagram.areas import *", namespace)
    assert namespace["RouteRaised"] is RouteRaised


@pytest.mark.parametrize(
    "path", sorted(Path(polydiagram.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_no_module_imports_a_private_name_of_another(path):
    # a private helper imported by name is a second way into it that a patch
    # of the public entry, such as an areas.ROUTES entry, does not reach
    imports = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []


def test_package_names_are_their_modules_objects_and_listed_by_dir():
    # the package imports each name from the module that exports it, on first use
    homes = {name: module for module in MODULES[1:]
             for name in importlib.import_module(module).__all__}
    for name in set(polydiagram.__all__) - {"__version__"}:
        assert getattr(polydiagram, name) is getattr(importlib.import_module(homes[name]), name)
    public = {name for name in dir(polydiagram) if not name.startswith("_")}
    assert set(polydiagram.__all__) - public == {"__version__"}
    assert public - set(polydiagram.__all__) <= {name.rpartition(".")[2] for name in MODULES}
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        polydiagram.missing
