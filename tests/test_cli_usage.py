"""The bytes of every help screen, ``--version`` and the usage errors.

The golden files under ``golden/usage`` were recorded from
``python -m symtrap.cli`` when the command line was built on click 8.4.0;
they pin its help layout, program name, error wording and exit codes.
Help wraps to ``max(min(COLUMNS, 80) - 2, 50)``, so each case fixes
``COLUMNS``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import run

GOLDEN = Path(__file__).parent / "golden"
USAGE = GOLDEN / "usage"
SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    "branch", "chartable", "degeneracy-table", "ground-state", "map", "reduce-lambda",
    "reduce-shell", "reduce-snippet", "sector-basis", "spectrum", "spin-decompose",
]

#: ``(command or None for the top level, COLUMNS)`` of each recorded help screen.
HELP_SCREENS = [
    (None, 80),
    *((name, 80) for name in COMMANDS),
    (None, 60),
    (None, 40),
    ("sector-basis", 60),
    ("sector-basis", 40),
    ("degeneracy-table", 40),
    ("map", 52),
]


def help_file(command, columns) -> Path:
    stem = "help" + (f"_{command}" if command else "") + ("" if columns == 80 else f"_c{columns}")
    return USAGE / f"{stem}.txt"


def help_args(command):
    return [command, "--help"] if command else ["--help"]


#: Each case: ``[name, args, COLUMNS]``; errors.json holds exit code, stdout and stderr.
ERROR_CASES = [
    ["no_command", [], 80],
    ["misspelt_command", ["chartabl"], 80],
    ["unknown_option", ["chartable", "--n", "3", "--colour"], 80],
    ["misspelt_option", ["reduce-shell", "--n", "4", "--max-energy", "2", "--verfy"], 80],
    ["unknown_top_level_option", ["--n", "3", "chartable"], 80],
    ["short_option", ["chartable", "-n", "3"], 80],
    ["missing_n", ["chartable"], 80],
    ["missing_n_narrow", ["degeneracy-table"], 40],
    ["missing_lambda_parity", ["sector-basis", "--n", "4", "--irrep", "1^4+"], 80],
    ["n_without_value", ["chartable", "--n"], 80],
    ["n_empty_value", ["chartable", "--n="], 80],
    ["n_not_integer", ["chartable", "--n", "x"], 80],
    ["n_out_of_range", ["chartable", "--n", "9"], 80],
    ["negative_max_lambda", ["reduce-lambda", "--n", "4", "--max-lambda", "-1"], 80],
    ["first_given_error_wins", ["reduce-lambda", "--max-lambda", "-1", "--n", "9"], 80],
    ["bad_group", ["chartable", "--n", "3", "--group", "xx"], 80],
    ["bad_format", ["branch", "--n", "3", "--format", "xml"], 80],
    ["flag_with_value", ["reduce-snippet", "--n", "3", "--verify=yes"], 80],
    ["extra_argument", ["chartable", "--n", "3", "extra"], 80],
    ["extra_arguments", ["chartable", "--n", "3", "a", "b"], 80],
    ["help_before_bad_value", ["chartable", "--n", "x", "--help"], 80],
    ["last_value_wins", ["chartable", "--n", "9", "--n", "3", "--group", "sn"], 80],
    ["max_lambda_not_integer", ["reduce-lambda", "--n", "4", "--max-lambda", "x"], 80],
    ["missing_first_declared", ["sector-basis", "--lambda-parity", "odd"], 80],
    ["top_level_short_option", ["-v"], 80],
    ["help_with_value", ["--help=1"], 80],
    ["missing_command", ["--"], 80],
    ["option_after_double_dash", ["chartable", "--n", "3", "--", "--group"], 80],
    ["help_after_double_dash", ["--", "--help"], 80],
    ["version", ["--version"], 80],
    ["version_before_command", ["--version", "chartable"], 80],
]


def load_errors() -> dict:
    return json.loads((USAGE / "errors.json").read_text(encoding="utf-8"))


def child(*args, columns=80):
    return subprocess.run(
        [sys.executable, *args],
        env={"PYTHONPATH": str(SRC), "COLUMNS": str(columns)},
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "command,columns", HELP_SCREENS, ids=[help_file(c, w).stem for c, w in HELP_SCREENS]
)
def test_help_screen(monkeypatch, command, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    result = run(*help_args(command))
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == help_file(command, columns).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [None, "sector-basis"], ids=["top", "sector-basis"])
def test_help_is_no_wider_than_eighty_columns(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    assert run(*help_args(command)).stdout == help_file(command, 80).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,args,columns", ERROR_CASES, ids=[case[0] for case in ERROR_CASES])
def test_usage_error(monkeypatch, name, args, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    expected = load_errors()[name]
    result = run(*args)
    assert [result.exit_code, result.stdout, result.stderr] == [
        expected["exit_code"], expected["stdout"], expected["stderr"]
    ]


def test_every_case_is_recorded():
    assert sorted(load_errors()) == sorted(case[0] for case in ERROR_CASES)


def test_attached_value_is_accepted():
    result = run("chartable", "--n=4", "--group=snz2")
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "chartable_snz2_n4.txt").read_text(encoding="utf-8")


class TestProgramName:
    """``python -m`` names the module; a script or entry point its file name."""

    def test_module_run_help(self):
        result = child("-m", "symtrap.cli", "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == help_file(None, 80).read_text(encoding="utf-8")

    def test_module_run_usage_error(self):
        expected = load_errors()["misspelt_command"]
        result = child("-m", "symtrap.cli", "chartabl")
        assert [result.returncode, result.stdout, result.stderr] == [
            expected["exit_code"], expected["stdout"], expected["stderr"]
        ]

    def test_script_run_uses_the_file_name(self):
        script = "import sys; sys.argv[0] = '/usr/local/bin/symtrap'; from symtrap.cli import main; main()"
        result = child("-c", script, "--version")
        assert (result.returncode, result.stdout, result.stderr) == (0, "symtrap, version 0.1.0\n", "")
        result = child("-c", script, "map")
        assert result.returncode == 2
        assert result.stderr.startswith("Usage: symtrap map [OPTIONS]\nTry 'symtrap map --help' for help.\n")
