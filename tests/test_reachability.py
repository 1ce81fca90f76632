"""The package holds what a call runs.

A child process traces, under ``sys.setprofile``, ``import symtrap.cli``,
one lazy export of ``symtrap`` and a fixed list of command lines: every
command in every format, every ``--verify``, both sector-basis paths,
``--output``, the help screens, ``--version`` and invalid input.  Every
function and method defined in ``src/symtrap`` must be entered by that
trace, or have an entry in ``ALLOWED`` with its reason; an export is no
exception.  The tests' slow reference routes live in
``tests/reference_routes.py``, not in the package; so do the level order
listed level by level, and the chain path with every line's filter built
from scratch and every candidate eliminated, since a chain block runs one
root filter, steps each other line's filter from a neighbour's, and runs
one ``_block`` per line.
"""

import inspect
import json
from collections import Counter
import os
import subprocess
import sys
import types
from pathlib import Path

from symtrap import snippet
from symtrap.partitions import Partition

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symtrap"

FORMATS = ("text", "csv", "json")

#: Each command line below runs once per format.
BASES = [
    ["chartable", "--n", "4", "--group", "sn"],
    ["chartable", "--n", "4"],
    ["reduce-shell", "--n", "4", "--max-energy", "6", "--verify"],
    ["reduce-lambda", "--n", "4", "--max-lambda", "6", "--verify"],
    ["reduce-snippet", "--n", "4", "--verify"],
    ["branch", "--n", "4"],
    ["branch", "--n", "4", "--pattern", "2,2", "--stats", "bose"],
    ["degeneracy-table", "--n", "4", "--max-lambda", "6"],
    ["degeneracy-table", "--n", "4", "--by", "shell", "--max-energy", "6"],
    ["spin-decompose", "--n", "4", "--k", "2"],
    ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "8"],
    ["map", "--n", "3", "--state", "0,0,1,21", "--tau", "0", "--component", "1^2"],
    ["ground-state", "--n", "4", "--pattern", "2,2"],
    ["ground-state", "--n", "4", "--pattern", "2,2", "--regime", "ginf"],
    ["sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even", "--verify"],
    [
        "sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even",
        "--component", "1^2x1^2", "--verify",
    ],
]

CALLS = [[*base, "--format", fmt] for base in BASES for fmt in FORMATS] + [
    ["chartable", "--n", "3", "--output", "table.txt"],
    [],
    ["--help"],
    ["--version"],
    ["chartable", "--help"],
    ["chartable", "--n", "3", "--grup", "sn"],
    ["map", "--n", "3", "--state", "0,0,1,31"],
]

#: Functions that no traced call enters, kept on purpose.
ALLOWED = {
    "partitions.partitions_into_max_parts": (
        "perfbench/traced_cli.py wraps it by name; the tests' Kostka shell route reads it"
    ),
    "characters.kostka": "the tests' Kostka number; perfbench reads the cache of _kostka behind it",
    "characters._kostka": "runs behind kostka; perfbench reads its cache",
    "oscillator.HypercylindricalLabel.energy": (
        "a level's exact energy, which spectrum_levels and the README point to; the CLI prints its own text"
    ),
    "partitions.Record.__setattr__": "keeps every record immutable",
    "partitions.Record.__delattr__": "keeps every record immutable",
    "partitions.Record.__reduce__": "pickles a record by its fields; test_records pickles every kind",
    "partitions.Record.__repr__": "shows a record by its fields, in error messages and when debugging",
    "cli.entry": "runs only as the process entry; TestProcessEntry runs it in a child",
    "cli._program_name": "runs only as the process entry; TestProcessEntry runs it in a child",
    "cli._drop": "runs only once stdout or stderr cannot be written; TestExitCodes closes or fills it in a child",
}

#: Run in the child: trace the import, one lazy export and every call in
#: ``sys.argv[2]``; print the ``[file name, first line, name]`` of every
#: function of the package that was entered.
TRACER = """
import contextlib, io, json, os, sys

package, calls = sys.argv[1], json.loads(sys.argv[2])
entered = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


sys.setprofile(profile)
import symtrap.cli

import symtrap
symtrap.Partition
dir(symtrap)
for args in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            symtrap.cli.main(args, prog_name="symtrap")
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return os.path.basename(code.co_filename), code.co_firstlineno, code.co_name


def _definitions():
    """``{key: "module.qualname"}`` of every function defined in the package,
    nested ones included; a comprehension belongs to its function."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name in COMPREHENSIONS:
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:
                out[_key(const)] = f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:  # a class body
                walk(const, module, qualname + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, "")
    return out


def _entered():
    result = subprocess.run(
        [sys.executable, "-c", TRACER, str(PACKAGE), json.dumps(CALLS)],
        env={"PYTHONPATH": str(PACKAGE.parent), "COLUMNS": "80"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return {tuple(key) for key in json.loads(result.stdout)}


def _allowed(qualified: str) -> bool:
    return any(qualified == name or qualified.startswith(name + ".<locals>.") for name in ALLOWED)


def test_every_function_runs_or_is_library_surface(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    definitions = _definitions()
    entered = _entered()
    unreached = sorted(
        name for key, name in definitions.items() if key not in entered and not _allowed(name)
    )
    assert unreached == []
    # Every allowance names a function that exists and that no call enters.
    by_name = {name: key for key, name in definitions.items()}
    for name in ALLOWED:
        assert name in by_name, name
        assert by_name[name] not in entered, name
    assert (tmp_path / "table.txt").read_text(encoding="utf-8").startswith("character table S3")


def test_chain_block_runs_one_root_filter_and_one_block_per_line(monkeypatch):
    """One Jucys-Murphy filter (the root line's), one ``_block`` per line,
    and no candidate built that is not kept: every right reindex builds a
    kept candidate, except one per stepped line column."""
    calls = Counter()
    for name in ("_jm_factors", "_block", "_right_reindex"):
        real = getattr(snippet, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(snippet, name, counted)
    vectors = snippet.snippet_projection_basis(5, "even", Partition((3, 2)), 1)
    assert {v.label.j for v in vectors} == {1, 2, 3, 4, 5}
    assert calls == {"_jm_factors": 1, "_block": 5, "_right_reindex": len(vectors) + 4}
