"""CLI contract: documents, exit codes, determinism, and streams."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polydiagram
import polydiagram.areas as areas
import polydiagram.cli as cli
from polydiagram.cli import main
from polydiagram.formats import CHUNK_ROWS, rational_from_json


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

    @pytest.mark.parametrize("method", ["closed", "general"])
    def test_polynomial_routes_build_no_diagram(self, capsys, method):
        argv = ("area", "--q", "2", "--k", "5", "--method", method)
        expected = run_cli(capsys, *argv)
        with (
            mock.patch.object(cli, "build_diagram", side_effect=AssertionError),
            mock.patch.object(areas, "build_diagram", side_effect=AssertionError),
        ):
            assert run_cli(capsys, *argv) == expected
        assert expected[:2] == (0, f"method,area,area_decimal\n{method},83/2,41.5\n")

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

    def test_invalid_parameters_are_refused_before_the_q_1_warning(self, capsys):
        assert run_cli(capsys, "table", "--q-from", "1", "--k", "0") == (
            2, "", "error: k must be a positive integer (the degree), got 0\n"
        )

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--order", "0"), "order must be positive, got 0"),
            (("--order", "5", "--q-to", "4"), "order 5 needs more than 5 values, sequence has 3"),
            (("--order", "0", "--q-from", "5", "--q-to", "4"), "empty range: q_from=5 > q_to=4"),
            (("--order", "0", "--q-from", "0"), "q must be a positive integer, got 0"),
        ],
    )
    def test_order_is_refused_before_any_route_runs(self, capsys, monkeypatch, argv, message):
        # the refusals keep their order (empty range, then q, then order), and
        # the order is refused before the area sequence is computed
        def no_work(*args):
            raise AssertionError("a route ran")

        general = areas.ROUTES["general"]
        monkeypatch.setitem(areas.ROUTES, "general", general._replace(twice_area=no_work))
        assert run_cli(capsys, "diff", *argv) == (2, "", f"error: {message}\n")


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


def route_off_by_one(name: str):
    """ROUTES[name]'s area one too large (its twice-area two too large): a
    formula route at q = 3 only, as a constant offset cancels in diff's
    differences; a diagram route, which reads no q, everywhere."""
    route = areas.ROUTES[name]
    if route.reads_diagram:
        broken = route._replace(twice_area=lambda walk: route.twice_area(walk) + 2)
    else:
        broken = route._replace(twice_area=lambda q, n, k: route.twice_area(q, n, k) + 2 * (q == 3))
    return mock.patch.dict(areas.ROUTES, {name: broken})


@pytest.mark.parametrize("name", areas.ROUTES)
def test_a_fault_at_a_route_entry_reaches_every_command(capsys, name):
    # argv, and its exit code with the fault
    commands = [
        (("area", "--q", "3", "--k", "3", "--method", name), 0),
        (("area", "--q", "3", "--k", "3", "--method", "all"), 1),
        (("verify", "--q-max", "3", "--n-max", "0", "--k-max", "2"), 1),
    ]
    if name == "general":
        commands += [(("table", "--q-to", "5"), 0), (("diff", "--q-to", "6"), 0)]
    for argv, faulted_code in commands:
        code, clean, _ = run_cli(capsys, *argv)
        with route_off_by_one(name):
            faulted, out, _ = run_cli(capsys, *argv)
        assert (code, faulted) == (0, faulted_code), argv
        assert out != clean, argv


def route_raising(name: str, error: Exception):
    """ROUTES[name] raising `error` wherever it runs."""

    def raising(*args):
        raise error

    return mock.patch.dict(areas.ROUTES, {name: areas.ROUTES[name]._replace(twice_area=raising)})


def general_raising_at(at_q: int, error: Exception):
    """ROUTES["general"] raising `error` at q = at_q, and exact at every other q."""
    general = areas.ROUTES["general"]

    def raising(q, n, k):
        if q == at_q:
            raise error
        return general.twice_area(q, n, k)

    return mock.patch.dict(areas.ROUTES, general=general._replace(twice_area=raising))


@pytest.mark.parametrize("error", [ValueError("no"), ZeroDivisionError("division by zero")],
                         ids=["ValueError", "ZeroDivisionError"])
class TestRaisingRoute:
    """A route that raises is a failure of that route (exit 1), not a usage error (exit 2)."""

    def test_area_prints_the_routes_that_returned(self, capsys, error):
        with route_raising("pick", error):
            code, out, err = run_cli(capsys, "area", "--q", "5", "--k", "3")
        assert code == 1
        assert out.splitlines() == [
            "method,area,area_decimal", "closed,90/1,90", "general,90/1,90", "shoelace,90/1,90"
        ]
        assert err == f"error: route 'pick' raised {type(error).__name__}: {error}\n"

    def test_area_of_the_raising_route_alone(self, capsys, error):
        with route_raising("general", error):
            code, out, err = run_cli(capsys, "area", "--q", "5", "--k", "3", "--method",
                                     "general", "--format", "json")
        assert code == 1
        document = json.loads(out)
        assert (document["results"], document["agree"]) == ([], False)
        assert err == f"error: route 'general' raised {type(error).__name__}: {error}\n"

    @pytest.mark.parametrize("name", ["pick", "shoelace", "general"])
    def test_verify_fails_each_check_against_the_shoelace_oracle(self, capsys, error, name):
        with route_raising(name, error):
            code, out, err = run_cli(capsys, "verify", "--q-max", "2", "--n-max", "1",
                                     "--k-max", "2")
        assert code == 1
        document = json.loads(out)
        raised = f"{name} raised {type(error).__name__}: {error}"
        # every point runs closed and general, q = 2 adds Pick
        vs = {"pick": ["pick"], "general": ["general"],
              "shoelace": ["closed", "general", "pick"]}[name]
        expected = [
            (q, n, k, f"{route}_vs_shoelace")
            for q in (1, 2) for n in (0, 1) for k in (1, 2)
            for route in vs if q == 2 or route != "pick"
        ]
        failures = document["failures"]
        assert [(int(f["q"]), int(f["n"]), int(f["k"]), f["check"]) for f in failures] == expected
        assert {f["detail"] for f in failures} == {raised}
        assert document["golden_quadratic"]["ok"] is (name != "general")
        assert err.startswith(f"error: verification failed at (q={expected[0][0]}, ")

    @pytest.mark.parametrize("command", ["table", "diff"])
    def test_table_and_diff_exit_1_naming_the_route_and_q(self, capsys, error, command):
        with general_raising_at(5, error):
            code, out, err = run_cli(capsys, command, "--q-to", "8")
        assert code == 1
        assert out == ""  # the route raises before the first chunk is complete
        assert err == f"error: route 'general' raised {type(error).__name__}: {error} at q = 5\n"

    def test_table_keeps_the_chunks_written_before_the_raise(self, capsys, error):
        _, clean, _ = run_cli(capsys, "table", "--q-to", "600")
        with general_raising_at(400, error):
            code, out, err = run_cli(capsys, "table", "--q-to", "600")
        assert code == 1
        assert err == f"error: route 'general' raised {type(error).__name__}: {error} at q = 400\n"
        # stdout holds the complete chunks written before the raise, a prefix of
        # the clean document: the first CHUNK_ROWS lines, the header and q = 2..256
        lines = out.splitlines()
        assert clean.startswith(out)
        assert len(lines) == CHUNK_ROWS
        assert lines[-1].startswith("256,")


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["equal", "unequal"])
def test_area_fails_a_route_that_returns_a_float_like_one_that_raises(capsys, offset):
    general = areas.ROUTES["general"]
    floating = general._replace(
        twice_area=lambda q, n, k: float(general.twice_area(q, n, k)) + offset
    )
    with mock.patch.dict(areas.ROUTES, general=floating):
        code, out, err = run_cli(capsys, "area", "--q", "5", "--k", "3", "--format", "json")
    assert code == 1
    document = json.loads(out)
    assert [row["method"] for row in document["results"]] == ["closed", "shoelace", "pick"]
    assert document["agree"] is False
    # no row for it, and no disagreement: the routes that returned ints agree
    assert err == "error: route 'general' returned float, not an int\n"


def general_returning_float_from(from_q: int):
    """ROUTES["general"] returning its exact value as a float from q = from_q on."""
    general = areas.ROUTES["general"]

    def floating(q, n, k):
        twice = general.twice_area(q, n, k)
        return float(twice) if q >= from_q else twice

    return mock.patch.dict(areas.ROUTES, general=general._replace(twice_area=floating))


@pytest.mark.parametrize("command", ["table", "diff"])
def test_table_and_diff_fail_a_route_that_returns_a_float_naming_it_and_q(capsys, command):
    with general_returning_float_from(5):
        code, out, err = run_cli(capsys, command, "--q-to", "8")
    assert (code, out) == (1, "")  # the float comes before the first chunk is complete
    assert err == "error: route 'general' returned float, not an int at q = 5\n"


def test_table_keeps_the_chunks_written_before_a_float(capsys):
    _, clean, _ = run_cli(capsys, "table", "--q-to", "600")
    with general_returning_float_from(400):
        code, out, err = run_cli(capsys, "table", "--q-to", "600")
    assert code == 1
    assert err == "error: route 'general' returned float, not an int at q = 400\n"
    assert clean.startswith(out)
    assert len(out.splitlines()) == CHUNK_ROWS


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

    def test_json_beyond_the_int_digit_cap_reads_back(self, capsys):
        # a 4534-digit numerator, read back under the default digit cap
        code, out, _ = run_cli(capsys, "area", "--q", "3", "--n", "9500", "--k", "2",
                               "--method", "closed", "--format", "json")
        assert code == 0
        area = json.loads(out)["results"][0]["area"]
        assert len(area["num"]) == 4534
        assert rational_from_json(area) == polydiagram.area_closed_form(
            polydiagram.build_polynomial(3, 9500, 2))

    def test_streamed_rows_beyond_the_int_digit_cap_read_back(self, capsys):
        # rows of 4516 and 7158 digits, streamed chunk by chunk under the
        # interpreter's own digit cap, which main leaves as it is
        capped = hasattr(sys, "get_int_max_str_digits")
        previous = sys.get_int_max_str_digits() if capped else None
        k = 15000
        code, out, err = run_cli(capsys, "table", "--k", str(k), "--q-from", "2", "--q-to", "3",
                                 "--format", "json")
        assert (code, err) == (0, "")
        if capped:
            assert sys.get_int_max_str_digits() == previous
        rows = json.loads(out)["rows"]
        assert len(rows[0]["area"]["num"]) > 4300
        area = {q: polydiagram.area_general(polydiagram.build_polynomial(q, 0, k))
                for q in (2, 3, 4)}
        assert [rational_from_json(row["area"]) for row in rows] == [area[2], area[3]]
        assert [rational_from_json(row["ratio"]) for row in rows] == [
            area[3] / area[2], area[4] / area[3]
        ]

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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit cap before 3.11"
    )
    def test_main_leaves_the_int_digit_cap_alone_while_a_command_runs(self, capsys, digit_cap):
        seen = []
        closed = areas.ROUTES["closed"]

        def recording(q, n, k):
            seen.append(sys.get_int_max_str_digits())
            return closed.twice_area(q, n, k)

        with mock.patch.dict(areas.ROUTES, closed=closed._replace(twice_area=recording)):
            with digit_cap(640):
                code, out, _ = run_cli(capsys, "area", "--q", "3", "--n", "1400", "--k", "2")
        assert code == 0 and seen == [640]
        # a 670-digit area, written under that cap
        assert len(out.splitlines()[1].split(",")[1]) > 670


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
        stack.enter_context(mock.patch.object(cli, "build_polynomial", work))
        # cli imports the sequences module's function inside the command that runs it
        stack.enter_context(mock.patch("polydiagram.sequences.twice_area_sequence", work))
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
        code, out, err = run_cli(
            capsys, "render", "--q", "2", "--k", "2",
            "--out", str(tmp_path / "missing" / "diagram.svg"),
        )
        assert (code, out) == (1, "")
        assert "cannot write" in err

    @pytest.mark.parametrize("argv", [("--q", "3", "--k", "300"), ("--q", "1", "--k", "2"),
                                      ("--q", "2", "--n", "3", "--k", "600", "--log-x")])
    def test_out_file_holds_the_bytes_printed_to_stdout(self, capsys, tmp_path, argv):
        target = tmp_path / "diagram.svg"
        code, printed, _ = run_cli(capsys, "render", *argv)
        assert code == 0
        assert run_cli(capsys, "render", *argv, "--out", str(target))[:2] == (0, "")
        assert target.read_bytes() == printed.encode("utf-8")

    def test_degenerate_warns(self, capsys):
        code, _, err = run_cli(capsys, "render", "--q", "1", "--k", "2")
        assert code == 0
        assert "degenerate" in err


@pytest.mark.parametrize("command", ["table", "diff"])
def test_rows_build_no_fraction(capsys, monkeypatch, command):
    # rows are written from exact ints: the Fractions a run builds, if any, do
    # not grow with the q range
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    counts = []
    for q_to in ("100", "2000"):
        built = 0
        for fmt in ("csv", "json", "markdown"):
            assert main([command, "--q-to", q_to, "--format", fmt]) == 0
        counts.append(built)
    capsys.readouterr()
    assert counts[0] == counts[1]


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_table_memory_is_flat_in_the_row_count(fmt):
    # the document is streamed: ten times the rows may not take much more memory
    peaks = []
    for q_to in ("2000", "20000"):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                assert main(["table", "--q-to", q_to, "--format", fmt]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, as `build_parser` declares it."""
    (commands,) = (
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices


# A non-default value for every flag but --format, given in reverse declaration order.
NON_DEFAULT_FLAGS = {
    "area": {"--digits": "5", "--method": "general", "--k": "4", "--n": "1", "--q": "3"},
    "table": {"--digits": "5", "--q-to": "7", "--q-from": "3", "--n": "1", "--k": "3"},
    "diff": {
        "--digits": "5", "--order": "3", "--q-to": "9", "--q-from": "3", "--n": "1", "--k": "3",
    },
    "verify": {"--k-max": "2", "--n-max": "1", "--q-max": "3"},
}


@pytest.mark.parametrize("command", sorted(NON_DEFAULT_FLAGS))
def test_json_params_are_every_flag_but_format_in_declaration_order(capsys, command):
    options = [a for a in subparsers()[command]._actions if a.dest not in ("help", "format")]
    flags = NON_DEFAULT_FLAGS[command]
    argv = [command, "--format", "json", *(token for item in flags.items() for token in item)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    params = json.loads(out)["params"]
    assert list(params) == [action.dest for action in options]
    for action in options:
        (flag,) = action.option_strings
        assert flags[flag] != str(action.default)
        expected = int(flags[flag]) if action.dest == "digits" else flags[flag]
        assert params[action.dest] == expected


@pytest.mark.parametrize("command", ["", "area", "table", "diff", "verify", "render"])
def test_help_exits_0_and_names_every_flag(capsys, command):
    parser = subparsers()[command] if command else cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for action in parser._actions:
        for flag in action.option_strings:
            assert flag in out
    if not command:
        assert all(name in out for name in subparsers())


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
