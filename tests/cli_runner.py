"""Run the command line in this process and capture what it prints."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from symtrap.cli import main

#: The program name ``python -m symtrap.cli`` gives itself.
PROG_NAME = "python -m symtrap.cli"


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    #: The ``SystemExit`` of a non-zero exit.
    exception: SystemExit | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run(*args: str, prog_name: str = PROG_NAME) -> Result:
    """Call ``main(args)``; return its exit code and what it wrote to stdout and stderr.

    An exception other than ``SystemExit`` propagates, so its traceback shows.
    """
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name=prog_name)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            exception = exc if exit_code else None
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)
