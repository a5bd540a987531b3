"""What each entry point imports, pinned in a fresh interpreter started without `site`.

A command imports only the modules it runs: `import polydiagram` loads no
submodule, the CLI's parser leaves out `verify`, `render` and `sequences` and
the standard library's `dataclasses`, `inspect`, `json` and `csv`, and `area`
runs without the first three.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import polydiagram

PACKAGE_ROOT = Path(polydiagram.__file__).resolve().parents[1]


def loaded_by(code: str) -> set[str]:
    """The modules a fresh `python -S` interpreter adds to sys.modules by running `code`."""
    probe = (
        "import sys\nbefore = set(sys.modules)\n"
        f"{code}\n"
        "print('\\n' + ' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def submodules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.startswith("polydiagram.")}


LATER = {"polydiagram.verify", "polydiagram.render", "polydiagram.sequences"}


def test_the_package_alone_loads_no_submodule():
    loaded = loaded_by("import polydiagram")
    assert "polydiagram" in loaded
    assert submodules(loaded) == set()


def test_a_name_loads_its_module_and_what_that_module_imports():
    loaded = loaded_by("import polydiagram\npolydiagram.RenderSpec")
    assert submodules(loaded) == {"polydiagram.render", "polydiagram.core", "polydiagram.formats"}


def test_the_parser_loads_no_command_module_and_no_record_or_document_library():
    loaded = loaded_by("import polydiagram.cli\npolydiagram.cli.build_parser()")
    assert "polydiagram.cli" in loaded
    assert loaded & (LATER | {"dataclasses", "inspect", "json", "csv"}) == set()


def test_area_runs_without_the_verify_render_and_sequences_modules():
    loaded = loaded_by("from polydiagram.cli import main\nmain(['area', '--q', '3', '--k', '2'])")
    assert "polydiagram.areas" in loaded
    assert loaded & LATER == set()


def test_no_module_of_the_package_imports_dataclasses():
    names = ", ".join(f"polydiagram.{name}" for name in
                      ("areas", "cli", "core", "formats", "render", "sequences", "verify"))
    loaded = loaded_by(f"import {names}")
    assert "dataclasses" not in loaded
