"""The public surface: every name a module exports resolves, so star-imports work."""

from __future__ import annotations

import importlib
import pkgutil

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
