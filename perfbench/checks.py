"""Output checks that do not trust the program under test.

Each invocation's stdout (or ``--output`` file) must match the exit code and
SHA-256 digest recorded in ``expected.json``.  JSON outputs are further held
to invariants recomputed here from first principles: hook-length dimensions,
shell and hyperangular dimension formulas, orthogonality of the sector
vectors and of the character rows.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, factorial, prod
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def hook_dimension(parts: list[int]) -> int:
    """Standard Young tableaux of the shape, by the hook-length formula."""
    conj = [sum(1 for v in parts if v > j) for j in range(parts[0])]
    hooks = prod(parts[i] - j + conj[j] - i - 1 for i in range(len(parts)) for j in range(parts[i]))
    return factorial(sum(parts)) // hooks


def hyperangular_dimension(n: int, lam: int) -> int:
    """Harmonic polynomials of degree ``lam`` on the (n-1)-dimensional relative space."""
    d = n - 1
    return comb(lam + d - 1, d - 1) - (comb(lam + d - 3, d - 1) if lam >= 2 else 0)


def _weighted_total(irreps: list[list[int]], counts: list[int]) -> int:
    return sum(c * hook_dimension(p) for p, c in zip(irreps, counts))


def _check_reduce_lambda(obj: dict) -> str | None:
    n = obj["n"]
    for row in obj["rows"]:
        if _weighted_total(obj["irreps"], row["counts"]) != hyperangular_dimension(n, row["lambda"]):
            return f"lambda={row['lambda']} does not fill the hyperangular space"
    return None


def _check_reduce_shell(obj: dict) -> str | None:
    n = obj["n"]
    for row in obj["rows"]:
        if _weighted_total(obj["irreps"], row["counts"]) != comb(row["x"] + n - 1, n - 1):
            return f"x={row['x']} does not fill the shell"
    return None


def _check_sector_basis(obj: dict) -> str | None:
    vectors = obj["vectors"]
    amps = [v["amplitudes"] for v in vectors]
    for i, (a, v) in enumerate(zip(amps, vectors)):
        if sum(x * x for x in a) != v["norm_sq"]:
            return f"vector {i + 1} does not have its stated norm_sq"
        for j in range(i + 1, len(amps)):
            if sum(x * y for x, y in zip(a, amps[j])):
                return f"vectors {i + 1} and {j + 1} are not orthogonal"
    return None


def _check_chartable(obj: dict) -> str | None:
    sizes = obj["class_sizes"]
    order = sum(sizes)
    rows = [r["values"] for r in obj["rows"] if not r["irrep"].endswith("lambda")]
    if len(rows) != len(sizes):
        return "the table is not square"
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            inner = sum(s * x * y for s, x, y in zip(sizes, a, b))
            if inner != (order if i == j else 0):
                return f"rows {i + 1} and {j + 1} are not orthonormal"
    return None


INVARIANTS = {
    "reduce-lambda": _check_reduce_lambda,
    "reduce-shell": _check_reduce_shell,
    "sector-basis": _check_sector_basis,
    "chartable": _check_chartable,
}


def invariant_failure(command: str, fmt: str | None, payload: bytes) -> str | None:
    """Why a JSON output breaks its command's invariant, or None when it holds."""
    check = INVARIANTS.get(command)
    if check is None or fmt != "json":
        return None
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return check(obj)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"output lacks the expected fields: {exc!r}"


def output_failure(expected: dict, key: str, command: str, fmt: str | None,
                   exit_code: int, payload: bytes) -> str | None:
    """Why one invocation's result is wrong, or None when it is right."""
    entry = expected.get(key)
    if entry is None:
        return "no expected output recorded"
    if exit_code != entry["exit"]:
        return f"exit code {exit_code}, expected {entry['exit']}"
    if digest(payload) != entry["sha256"]:
        return "output digest differs from the recorded one"
    return invariant_failure(command, fmt, payload)
