"""The README's examples run as written and state what they return."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from cli_runner import run
from symtrap.mapping import G_INF, level_content
from symtrap.oscillator import HypercylindricalLabel, antisymmetric_multiplicity

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.startswith("symtrap ")]


def test_the_command_line_block_lists_every_example():
    assert len(COMMANDS) == 12


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_exits_zero(line):
    result = run(*shlex.split(line)[1:])
    assert result.exit_code == 0, result.output
    assert result.stdout


def test_library_example_returns_what_it_states():
    names: dict = {}
    exec(_block("Library", "python"), names)
    assert names["lambda_reduction"](4, 9).counts == (1, 3, 1, 2, 1)
    result = names["result"]
    assert result.target_hyper == HypercylindricalLabel(0, 0, 6)
    assert result.target_dimension == 2
    assert not result.resolved
    assert names["label"] == HypercylindricalLabel(0, 0, 6)
    assert names["content"] == level_content(4, G_INF, 6)
    assert antisymmetric_multiplicity(4, 6) == 1
