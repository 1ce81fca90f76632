"""Record the expected exit code and output digest of every pool entry.

    python3 perfbench/record.py

Runs each (argv, format) a draw can produce once through stdout and once
through ``--output``, requires both to give the same bytes, exit code 0 and
the invariants in ``checks.py``, and writes ``expected.json``.  Run it on
the commit whose outputs are the reference; the benchmark then holds every
later commit to them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import pools
from run import WORK, child_env


def main() -> int:
    env = child_env()
    expected = {}
    problems = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        output = Path(tmp) / "out"
        for workload in pools.WORKLOADS.values():
            for base, fmt in pools.pool_keys(workload):
                args = pools.pool_argv(base, fmt)
                key = " ".join(args)
                if key in expected:
                    continue
                run = subprocess.run(
                    [sys.executable, "-m", "symtrap.cli", *args],
                    cwd=tmp, env=env, capture_output=True,
                )
                payload = run.stdout
                if run.returncode != 0:
                    problems.append(f"{key}: exit {run.returncode}: {run.stderr[-300:]!r}")
                if fmt is not None:
                    subprocess.run(
                        [sys.executable, "-m", "symtrap.cli", *args, "--output", str(output)],
                        cwd=tmp, env=env, capture_output=True,
                    )
                    if output.read_bytes() != payload:
                        problems.append(f"{key}: --output bytes differ from stdout")
                failure = checks.invariant_failure(base[0], fmt, payload)
                if failure:
                    problems.append(f"{key}: {failure}")
                expected[key] = {"exit": run.returncode, "sha256": checks.digest(payload), "bytes": len(payload)}
                print(f"{workload.name:16} {len(payload):8d} {key}", flush=True)
    for problem in problems:
        print("PROBLEM", problem, file=sys.stderr)
    if problems:
        return 1
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(expected)} entries in {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
