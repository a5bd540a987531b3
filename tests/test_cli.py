"""CLI contract: documents, exit codes, determinism, and streams."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polydiagram
import polydiagram.cli as cli
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

    def test_closed_applies_at_every_degree(self, capsys):
        code, out, err = run_cli(
            capsys, "area", "--q", "2", "--k", "3", "--method", "closed"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["closed,15/2,7.5"]

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

    def test_pick_at_q_1_is_refused_before_any_work(self, capsys):
        with (
            mock.patch.object(cli, "build_diagram", side_effect=AssertionError),
            mock.patch.object(cli, "cross_check", side_effect=AssertionError),
        ):
            code, out, err = run_cli(capsys, "area", "--q", "1", "--k", "3", "--method", "pick")
        assert (code, out) == (2, "")
        assert err == (
            "error: route 'pick' needs q >= 2 (a q = 1 diagram has no interior), got q = 1\n"
        )

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
        assert doc["checks"] == 64608
        assert "pick_budget" not in doc["params"]

    def test_invalid_bounds_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--q-max", "0")
        assert code == 2

    @pytest.mark.parametrize("digits", ["4", "1001", "-1"])
    def test_digits_flag_is_usage_error(self, digits):
        # verify prints no decimals, so it takes no --digits
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q-max", "2", "--n-max", "1", "--k-max", "2", "--digits", digits])
        assert exc.value.code == 2


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit cap (Python >= 3.11) while comparing huge values."""
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


class TestHugeValues:
    def test_area_beyond_the_int_digit_cap_is_exact(self, capsys):
        q, k = 3, 20000
        code, out, err = run_cli(capsys, "area", "--q", str(q), "--k", str(k), "--method", "all")
        assert code == 0
        assert err == ""
        # A = q^n (q^k - (2k-1) + 2(q^k - q)/(q-1)) / 2 at n = 0
        expected = Fraction(q**k - (2 * k - 1) + 2 * (q**k - q) // (q - 1), 2)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["closed", "general", "shoelace", "pick"]
        with unlimited_int_digits():
            assert len(str(expected.numerator)) > 4300
            for _method, area, decimal in rows:
                assert Fraction(area) == expected
                assert Fraction(decimal) == expected

    def test_render_beyond_the_int_digit_cap(self, capsys):
        # labels print x = 10^4300 .. 10^4302 in full
        code, out, _ = run_cli(capsys, "render", "--q", "10", "--n", "4300", "--k", "2")
        assert code == 0
        assert f'>(1{"0" * 4302}, 0)</text>' in out

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit cap before 3.11"
    )
    @pytest.mark.parametrize(
        "argv", [("area", "--q", "3", "--k", "9000"), ("area", "--q", "0", "--k", "2")],
        ids=["success", "usage-error"],
    )
    def test_main_restores_the_int_digit_cap(self, capsys, argv):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            main(list(argv))
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)


DIGIT_COMMANDS = {
    "area": ("area", "--q", "3", "--k", "2"),
    "table": ("table", "--q-to", "4"),
    "diff": ("diff", "--q-to", "6"),
}


class TestDigitsLimit:
    def test_the_limit_itself_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "table", "--q-to", "4", "--digits", "1000")
        assert (code, err) == (0, "")
        decimals = [line.split(",")[-1] for line in out.splitlines()[1:]]
        assert max(len(text.partition(".")[2]) for text in decimals) == 1000

    @pytest.mark.parametrize("command", sorted(DIGIT_COMMANDS))
    def test_one_past_the_limit_is_a_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, *DIGIT_COMMANDS[command], "--digits", "1001")
        assert (code, out) == (2, "")
        assert err == "error: digits must be at most 1000, got 1001\n"

    @pytest.mark.parametrize("command", sorted(DIGIT_COMMANDS))
    def test_negative_digits_are_a_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, *DIGIT_COMMANDS[command], "--digits", "-1")
        assert (code, out) == (2, "")
        assert err == "error: digits must be non-negative, got -1\n"


@given(command=st.sampled_from(sorted(DIGIT_COMMANDS)), digits=st.integers(min_value=1001))
def test_digits_past_the_limit_are_refused_before_any_work(command, digits):
    out, err = io.StringIO(), io.StringIO()
    work = mock.Mock(side_effect=AssertionError("work started"))
    with contextlib.ExitStack() as stack:
        for name in ("build_polynomial", "area_sequence"):
            stack.enter_context(mock.patch.object(cli, name, work))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main([*DIGIT_COMMANDS[command], "--digits", str(digits)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: digits must be at most 1000, got {digits}\n"
    assert not work.called


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
