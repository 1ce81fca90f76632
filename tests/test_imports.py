"""Deferred imports: the package and the CLI load a layer only when used."""

import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import symtrap
from symtrap.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def child(*args):
    """Run ``python ARGS`` in a fresh interpreter that sees only ``src``."""
    return subprocess.run(
        [sys.executable, *args],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


def loaded_after(statement: str) -> list[str]:
    probe = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith('symtrap')))"
    result = child("-c", probe)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_package_import_loads_no_submodule():
    assert loaded_after("import symtrap") == ["symtrap"]


def test_cli_import_loads_no_layer():
    assert loaded_after("import symtrap.cli") == ["symtrap", "symtrap.cli", "symtrap.errors"]


class TestPackageExports:
    @pytest.mark.parametrize("name", symtrap.__all__)
    def test_every_export_resolves(self, name):
        assert getattr(symtrap, name) is not None

    def test_dir_lists_every_export(self):
        assert set(symtrap.__all__) <= set(dir(symtrap))
        assert "__version__" in dir(symtrap)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from symtrap import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(symtrap.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
            symtrap.not_an_export  # noqa: B018

    def test_search_error_is_one_object(self):
        from symtrap import errors, mapping

        assert symtrap.SearchExhaustedError is mapping.SearchExhaustedError
        assert mapping.SearchExhaustedError is errors.SearchExhaustedError

    def test_regime_choices_are_the_mapping_regimes(self):
        from symtrap.mapping import G_ZERO, REGIMES

        (regime,) = [p for p in main.commands["ground-state"].params if p.name == "regime"]
        assert tuple(regime.type.choices) == REGIMES
        assert regime.default == G_ZERO


#: One call of every command, reaching each deferred import: the verify
#: cross-checks, every format, and every optional branch that imports.
COMMAND_CALLS = [
    ["chartable", "--n", "3"],
    ["reduce-shell", "--n", "3", "--max-energy", "3", "--verify"],
    ["reduce-lambda", "--n", "3", "--max-lambda", "4", "--verify", "--format", "json"],
    ["reduce-snippet", "--n", "3", "--verify"],
    ["branch", "--n", "3", "--pattern", "2,1", "--format", "csv"],
    ["degeneracy-table", "--n", "3", "--by", "shell", "--max-energy", "3"],
    ["spin-decompose", "--n", "3", "--k", "2"],
    ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "4"],
    ["map", "--n", "3", "--state", "0,0,1,21", "--component", "1^2"],
    ["ground-state", "--n", "3", "--pattern", "2,1", "--regime", "ginf"],
    ["sector-basis", "--n", "3", "--irrep", "21+", "--lambda-parity", "even",
     "--component", "1^2", "--verify"],
]


def test_every_command_is_called():
    assert sorted(call[0] for call in COMMAND_CALLS) == sorted(main.commands)


@pytest.mark.parametrize("args", COMMAND_CALLS, ids=[call[0] for call in COMMAND_CALLS])
def test_fresh_process_matches_runner(args):
    """A fresh interpreter imports each layer itself, so a missing import fails here."""
    expected = CliRunner().invoke(main, args)
    assert expected.exit_code == 0, expected.output
    result = child("-m", "symtrap.cli", *args)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.stdout, expected.stderr)
