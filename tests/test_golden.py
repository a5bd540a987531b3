"""Frozen CLI documents: stdout, stderr and exit codes must stay byte-identical.

Each case's stdout is stored in `golden/<name>.out`, and its stderr, when not
empty, in `golden/<name>.err`.  To refreeze after an intended change of
output, run `python tests/test_golden.py` from the repository root with the
trusted sources on the path and review the diff.  A case listed in FAULTS runs,
and is frozen, with those faults of the catalog in `faults.py` injected.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from polydiagram.cli import main

import faults

GOLDEN = Path(__file__).resolve().parent / "golden"

_SUBJECTS = {
    "area": ("area", "--q", "2", "--n", "0", "--k", "3"),
    "table": ("table", "--k", "3", "--n", "1", "--q-from", "2", "--q-to", "12"),
    "diff": ("diff", "--k", "3", "--n", "0", "--q-from", "2", "--q-to", "12"),
}

# name -> (argv, exit code)
CASES: dict[str, tuple[tuple[str, ...], int]] = {
    f"{command}_{fmt}_d{digits}": ((*argv, "--format", fmt, "--digits", str(digits)), 0)
    for command, argv in _SUBJECTS.items()
    for fmt in ("csv", "json", "markdown")
    for digits in (0, 4, 7)
}
CASES.update(
    {
        "area_degenerate_csv": (("area", "--q", "1", "--k", "3"), 0),
        "area_degenerate_json": (("area", "--q", "1", "--k", "3", "--format", "json"), 0),
        "area_closed_json": (("area", "--q", "2", "--k", "2", "--method", "closed",
                              "--format", "json"), 0),
        "area_closed_k3_csv": (("area", "--q", "2", "--k", "3", "--method", "closed"), 0),
        "area_pick_markdown": (("area", "--q", "4", "--n", "2", "--k", "5", "--method", "pick",
                                "--format", "markdown"), 0),
        "table_default_csv": (("table",), 0),
        "table_q_from_1_csv": (("table", "--q-from", "1", "--q-to", "6"), 0),
        "table_q_from_1_json": (("table", "--q-from", "1", "--q-to", "6", "--format", "json"), 0),
        "table_q_from_1_markdown": (("table", "--q-from", "1", "--q-to", "6",
                                     "--format", "markdown"), 0),
        "diff_order_1_csv": (("diff", "--k", "3", "--order", "1", "--q-from", "1",
                              "--q-to", "9"), 0),
        "diff_order_4_json": (("diff", "--k", "2", "--n", "2", "--order", "4",
                               "--q-to", "12", "--format", "json"), 0),
        "diff_order_4_markdown": (("diff", "--k", "2", "--n", "2", "--order", "4",
                                   "--q-to", "12", "--format", "markdown"), 0),
        "verify_csv": (("verify", "--q-max", "4", "--n-max", "2", "--k-max", "3",
                        "--format", "csv"), 0),
        "verify_json": (("verify", "--q-max", "3", "--n-max", "1", "--k-max", "3"), 0),
        "verify_markdown": (("verify", "--q-max", "3", "--n-max", "1", "--k-max", "3",
                             "--format", "markdown"), 0),
        "area_huge_json": (("area", "--q", "10", "--n", "4300", "--k", "2",
                            "--format", "json"), 0),
        "error_table_empty_range": (("table", "--q-from", "5", "--q-to", "4"), 2),
        "error_diff_order_too_high": (("diff", "--order", "5", "--q-from", "2",
                                       "--q-to", "6"), 2),
        "error_diff_order_zero": (("diff", "--order", "0"), 2),
        "error_area_base_zero": (("area", "--q", "0", "--k", "2", "--format", "json"), 2),
        "error_table_negative_digits": (("table", "--digits", "-1"), 2),
        "error_area_negative_digits_json": (("area", "--q", "2", "--k", "2",
                                             "--format", "json", "--digits", "-1"), 2),
        "error_diff_empty_range": (("diff", "--q-from", "5", "--q-to", "4"), 2),
        "error_area_pick_degenerate": (("area", "--q", "1", "--k", "3", "--method", "pick"), 2),
    }
)
CASES.update(
    {
        f"area_pick_off_by_one_{fmt}": (("area", "--q", "3", "--k", "5", "--method", "all",
                                         "--format", fmt), 1)
        for fmt in ("csv", "json")
    }
)
CASES.update(
    {
        f"area_general_float_{fmt}": (("area", "--q", "3", "--k", "2", "--method", "general",
                                       "--format", fmt), 1)
        for fmt in ("csv", "json", "markdown")
    }
)
CASES.update(
    {
        f"verify_failure_{fmt}": (("verify", "--q-max", "2", "--n-max", "1", "--k-max", "2",
                                   "--format", fmt), 1)
        for fmt in ("csv", "json", "markdown")
    }
)


# name -> the catalog faults injected while the case runs: for verify, the slab
# sum off by one at n = 1 and the q = 16 golden row's area off by one; for area,
# Pick's area one too large, so `area --method all` renders two distinct values,
# and the slab sum returning a float, so `area --method general` renders no rows
# and its document is the header alone
FAULTS = {f"verify_failure_{fmt}": ("general-plus-2-at-n-1", "golden-row-16-off")
          for fmt in ("csv", "json", "markdown")}
FAULTS.update({f"area_pick_off_by_one_{fmt}": ("pick-plus-2",) for fmt in ("csv", "json")})
FAULTS.update({f"area_general_float_{fmt}": ("float",) for fmt in ("csv", "json", "markdown")})


def run(name: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for fault in FAULTS.get(name, ()):
            stack.enter_context(faults.CATALOG[fault].inject())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(CASES[name][0]))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name):
    code, out, err = run(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    err_path = GOLDEN / f"{name}.err"
    assert err == (err_path.read_text(encoding="utf-8") if err_path.exists() else "")


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("error_")))
def test_a_refused_command_prints_nothing(name):
    # every refusal comes before the first byte of a streamed document
    code, out, _ = run(name)
    assert (code, out) == (2, "")
    assert (GOLDEN / f"{name}.out").read_text(encoding="utf-8") == ""


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.iterdir()} == set(CASES)


def freeze() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    for name, (_argv, expected_code) in sorted(CASES.items()):
        code, out, err = run(name)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")


if __name__ == "__main__":
    freeze()
    print(f"froze {len(CASES)} cases in {GOLDEN}", file=sys.stderr)
