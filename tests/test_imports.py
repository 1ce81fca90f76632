"""Deferred imports: the package and the CLI load a layer only when used."""

import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import run

import symtrap
from symtrap.cli import COMMANDS

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
    assert loaded_after("import symtrap.cli") == ["symtrap", "symtrap.cli"]


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
        from symtrap import mapping

        assert mapping.SearchExhaustedError is symtrap.SearchExhaustedError

    def test_regime_choices_are_the_mapping_regimes(self):
        from symtrap.mapping import G_ZERO, REGIMES

        (regime,) = [o for o in COMMANDS["ground-state"].options if o.dest == "regime"]
        assert tuple(regime.convert) == REGIMES
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
    assert sorted(call[0] for call in COMMAND_CALLS) == sorted(COMMANDS)


def traced_child(*args):
    """Run ``python -m symtrap.cli ARGS`` under ``-X importtime``; return the
    result with the import report taken out of its stderr, and the modules
    the run imported."""
    result = child("-X", "importtime", "-m", "symtrap.cli", *args)
    lines = result.stderr.splitlines(keepends=True)
    report = [line for line in lines if line.startswith("import time:")]
    result.stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return result, {line.rsplit("|", 1)[-1].strip() for line in report[1:]}


@pytest.mark.parametrize("args", COMMAND_CALLS, ids=[call[0] for call in COMMAND_CALLS])
def test_fresh_process_matches_runner(args):
    """A fresh interpreter imports each layer itself, so a missing import fails here.

    The records import no class machinery, and no command makes an exact
    ``Fraction`` energy: ``spectrum`` prints its energies from integers,
    and the ``--verify`` cross-checks stay in integers.
    """
    expected = run(*args)
    assert expected.exit_code == 0, expected.output
    result, imported = traced_child(*args)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.stdout, expected.stderr)
    assert "click" not in imported
    assert not {"dataclasses", "inspect", "fractions"} & imported


#: Standard-library modules no call needs: annotations are builtins or
#: strings, labels are scanned by hand, the CLI lays out JSON around
#: ``_json``'s string escape, and ``_csv`` writes CSV.
UNUSED = {"typing", "re", "enum", "json", "csv", "fractions", "decimal", "__future__"}


def clean_imports(*args, code: int = 0) -> set[str]:
    """The modules ``python -S -m symtrap.cli ARGS`` imports after ``runpy``;
    the call must exit with ``code``.

    ``-S`` skips ``site`` and its ``.pth`` files, which may import modules
    such as ``typing`` at start-up, so every module listed is one that
    symtrap's own code asked for.
    """
    result = child("-S", "-X", "importtime", "-m", "symtrap.cli", *args)
    assert result.returncode == code, result.stderr
    report = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    names = [line.rsplit("|", 1)[-1].strip() for line in report[1:]]
    return set(names[names.index("runpy") + 1 :])


def layers(*args) -> set[str]:
    return {name[len("symtrap.") :] for name in clean_imports(*args) if name.startswith("symtrap.")}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("args", COMMAND_CALLS, ids=[call[0] for call in COMMAND_CALLS])
def test_clean_interpreter_imports_nothing_unused(args, fmt):
    """Nor ``_json``, unless the call writes JSON."""
    imported = clean_imports(*args, "--format", fmt)
    assert not imported & UNUSED
    assert ("_json" in imported) == (fmt == "json")


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["chartable", "--help"], 0), (["--version"], 0), (["chartable", "--n", "9"], 2)],
    ids=["help", "command-help", "version", "usage-error"],
)
def test_only_json_calls_load_the_string_escape(args, code):
    assert "_json" not in clean_imports(*args, code=code)


def test_chain_sector_basis_loads_only_its_layers():
    args = ["sector-basis", "--n", "4", "--irrep", "21^2+", "--lambda-parity", "odd"]
    assert layers(*args) == {"partitions", "characters", "linalg", "snippet"}


def test_parity_table_loads_no_free_limit_layer():
    assert not layers("chartable", "--n", "4", "--group", "snz2") & {"oscillator", "branching"}


def test_branch_loads_no_oscillator():
    assert "oscillator" not in layers("branch", "--n", "4")


def test_free_limit_ground_state_loads_no_sector_layer():
    """Only the hard-core side of ``level_content`` reads the sector reduction."""
    loaded = layers("ground-state", "--n", "5", "--pattern", "3,2", "--regime", "g0")
    assert {"mapping", "oscillator", "branching"} <= loaded
    assert not loaded & {"snippet", "linalg", "characters"}
    assert {"snippet", "linalg"} <= layers("ground-state", "--n", "5", "--pattern", "3,2", "--regime", "ginf")


def test_free_limit_reduction_loads_no_character_tables():
    result, imported = traced_child("reduce-lambda", "--n", "4", "--max-lambda", "4")
    assert result.returncode == 0, result.stderr
    assert {"symtrap.oscillator", "symtrap.partitions"} <= imported
    assert "symtrap.characters" not in imported


def test_particle_bound_is_one_object():
    from symtrap import characters, partitions

    assert characters.TABLE_LIMIT is partitions.TABLE_LIMIT
