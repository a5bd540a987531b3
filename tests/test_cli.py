"""CLI contract: documents, exit codes, determinism, and streams."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polydiagram
from polydiagram.cli import main
from polydiagram.formats import rational_from_json


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArea:
    def test_all_methods_agree_on_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--q", "2", "--n", "0", "--k", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,area,area_decimal"
        assert "closed,5/2,2.5" in lines
        assert "general,5/2,2.5" in lines
        assert "shoelace,5/2,2.5" in lines
        assert "pick,5/2,2.5" in lines

    def test_degenerate_warns_but_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "area", "--q", "1", "--n", "0", "--k", "2")
        assert code == 0
        assert "degenerate" in err
        assert "0/1,0" in out

    def test_single_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "area", "--q", "2", "--k", "3", "--method", "shoelace"
        )
        assert code == 0
        assert "shoelace,15/2,7.5" in out

    def test_closed_requires_degree_two(self, capsys):
        code, _, err = run_cli(
            capsys, "area", "--q", "2", "--k", "3", "--method", "closed"
        )
        assert code == 2
        assert "closed" in err

    def test_invalid_base_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "area", "--q", "0", "--k", "2")
        assert code == 2
        assert "q" in err

    def test_pick_at_large_extent_is_exact(self, capsys):
        # q^k - (2k-1) + 2(q^k - q)/(q-1) = 10^8 - 15 + 22222220, halved
        code, out, err = run_cli(
            capsys, "area", "--q", "10", "--k", "8", "--method", "pick"
        )
        assert code == 0
        assert out.splitlines()[1:] == ["pick,122222205/2,61111102.5"]
        assert err == ""

    @pytest.mark.parametrize(
        "command", [("area", "--q", "2", "--k", "2"), ("verify",)], ids=["area", "verify"]
    )
    def test_pick_budget_flag_is_usage_error(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--pick-budget", "100"])
        assert exc.value.code == 2

    def test_json_document_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "area", "--q", "16", "--k", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        by_method = {r["method"]: r for r in doc["results"]}
        assert rational_from_json(by_method["closed"]["area"]) == Fraction(285, 2)
        assert by_method["closed"]["area_decimal"] == "142.5"


class TestTable:
    def test_default_table_matches_known_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,area,area_decimal,ratio,ratio_decimal"
        assert len(lines) == 1 + 15  # q = 2..16
        assert lines[1] == "2,5/2,2.5,12/5,2.4"
        assert lines[2] == "3,6/1,6,7/4,1.75"
        assert lines[-1].startswith("16,285/2,142.5,64/57,1.1228")

    def test_byte_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--format", "json")
        _, second, _ = run_cli(capsys, "table", "--format", "json")
        assert first == second

    def test_degenerate_row_has_undefined_ratio(self, capsys):
        code, out, err = run_cli(capsys, "table", "--q-from", "1", "--q-to", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,0/1,0,undefined,undefined"
        assert "degenerate" in err

    def test_empty_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--q-from", "5", "--q-to", "4")
        assert code == 2

    def test_json_rows_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--q-to", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        areas = [rational_from_json(row["area"]) for row in doc["rows"]]
        assert areas == [Fraction(5, 2), Fraction(6), Fraction(21, 2)]

    def test_markdown_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--q-to", "3", "--format", "markdown")
        assert code == 0
        assert out.splitlines()[0] == "| q | area | area_decimal | ratio | ratio_decimal |"


class TestDiff:
    def test_second_difference_of_quadratic_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "diff", "--k", "2", "--n", "0", "--order", "2",
            "--q-from", "1", "--q-to", "10",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 8
        assert all(row.endswith(",1/1,1") for row in rows)

    def test_shifted_family_single_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "diff", "--k", "2", "--n", "1", "--q-from", "2", "--q-to", "4"
        )
        assert code == 0
        assert out.splitlines()[1] == "2,11/1,11"

    def test_range_too_short_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "diff", "--order", "1", "--q-from", "3", "--q-to", "3"
        )
        assert code == 2
        assert "order" in err


class TestVerify:
    def test_small_grid_passes_with_golden_section(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q-max", "16", "--n-max", "0", "--k-max", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert doc["golden_quadratic"]["ok"] is True
        assert doc["points"] == 32

    def test_single_degenerate_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q-max", "1", "--n-max", "0", "--k-max", "1"
        )
        assert code == 0
        assert json.loads(out)["points"] == 1

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--q-max", "3", "--n-max", "1", "--k-max", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "passed,true" in out

    def test_default_grid_runs_pick_at_every_nondegenerate_point(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["points"] == 50 * 11 * 12
        assert doc["pick_checks"] == 49 * 11 * 12 == 6468
        assert doc["checks"] == 59158
        assert "pick_budget" not in doc["params"]

    def test_invalid_bounds_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--q-max", "0")
        assert code == 2


class TestRender:
    def test_writes_svg_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--q", "2", "--k", "2")
        assert code == 0
        assert out.startswith("<svg ")
        assert out.count("<path") == 1

    def test_writes_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "diagram.svg"
        code, out, _ = run_cli(
            capsys, "render", "--q", "3", "--k", "4", "--log-x", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.count("<circle") == 6

    def test_unwritable_path_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "render", "--q", "2", "--k", "2",
            "--out", str(tmp_path / "missing" / "diagram.svg"),
        )
        assert code == 1
        assert "cannot write" in err

    def test_degenerate_warns(self, capsys):
        code, _, err = run_cli(capsys, "render", "--q", "1", "--k", "2")
        assert code == 0
        assert "degenerate" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_module_entry_point():
    # run the package these tests imported, installed or not
    package_root = str(Path(polydiagram.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polydiagram", "area", "--q", "5", "--k", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "general,16/1,16" in proc.stdout
