"""Every output the benchmark records is checked on every run.

``perfbench/expected.json`` holds, for each command line its pools can
draw, the exit code and the SHA-256 of what it prints.  Each entry is
replayed here in process, with an 80-column terminal, so a change to any
recorded byte fails tier-1 even when no benchmark pass draws that call.
The file is only read.
"""

import hashlib
import json
from pathlib import Path

from cli_runner import run

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_every_recorded_digest_matches(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert expected
    mismatches = []
    for key, entry in expected.items():
        result = run(*key.split(" "))
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        if (result.exit_code, digest) != (entry["exit"], entry["sha256"]):
            mismatches.append(key)
    assert mismatches == []
