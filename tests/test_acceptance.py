"""Release gate: every shipped number is re-derived here at zero tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).  All comparisons are exact integer or rational
equality; the frozen expectations live in ``reference_data``.
"""

import time
from itertools import combinations
from math import factorial

import pytest

from symtrap.branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    branch_multiplicity,
    degeneracy_rows,
    spin_decomposition,
)
from symtrap.characters import character_table_sn, character_table_snz2
from symtrap.linalg import dot
from symtrap.mapping import StateLabel, adiabatic_map
from symtrap.oscillator import (
    HypercylindricalLabel,
    antisymmetric_multiplicity,
    hyperangular_dimension,
    lambda_reduction,
    shell_dimension,
    shell_reduction,
)
from symtrap.partitions import Partition, irrep_dimension, partitions_of
from symtrap.snippet import (
    all_sectors,
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)

import reference_data as ref
from reference_routes import explicit_sector_rep, explicit_shell_rep

P = Partition
H = HypercylindricalLabel


@pytest.fixture
def report(capsys):
    """One visible PASS/FAIL line per criterion, even under output capture."""

    def _report(number: int, name: str, failures: list) -> None:
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance] criterion {number} ({name}): {verdict}")
        assert not failures, failures[:10]

    return _report


def timed(failures: list, budget: float, label: str, fn):
    start = time.monotonic()
    result = fn()
    elapsed = time.monotonic() - start
    if elapsed >= budget:
        failures.append(f"{label} took {elapsed:.2f}s, budget {budget}s")
    return result


def test_criterion_1_table_reproduction(report):
    failures = []

    def check_branching(n, table):
        for (parts, stats), row in table.items():
            pattern = ComponentPattern(parts, stats or BOSE)
            got = tuple(branch_multiplicity(p, pattern) for p in partitions_of(n))
            if got != row:
                failures.append(f"branching {pattern.label()}: {got} != {row}")

    def check_lambda(n, rows):
        for lam, row in enumerate(rows):
            got = lambda_reduction(n, lam).counts
            if got != row:
                failures.append(f"lambda reduction n={n} lam={lam}: {got} != {row}")

    def check_degeneracy(n, table, by):
        for (parts, stats), row in table.items():
            pattern = ComponentPattern(parts, stats or BOSE)
            got = tuple(degeneracy_rows(n, by, [col], [pattern])[0][0] for col in range(len(row)))
            if got != row:
                failures.append(f"degeneracy {pattern.label()} n={n}: {got} != {row}")

    def check_sector(n, table):
        even, odd = snippet_reduction(n, "even"), snippet_reduction(n, "odd")
        for (parts, pi), (e, o) in table.items():
            key = (P(parts), pi)
            if (even[key], odd[key]) != (e, o):
                failures.append(f"sector reduction n={n} {parts}/{pi}")

    def check_characters(n, rows, sector_rows):
        table = character_table_snz2(n)
        for (parts, pi), row in rows.items():
            if table.values[table.irreps.index((P(parts), pi))] != row:
                failures.append(f"character row n={n} {parts}/{pi}")
        for parity, row in sector_rows.items():
            if sector_rep_characters(n, parity).values != row:
                failures.append(f"sector characters n={n} {parity}")

    timed(failures, 1.0, "S4 branching", lambda: check_branching(4, ref.S4_BRANCHING))
    timed(failures, 1.0, "N4 lambda table", lambda: check_lambda(4, ref.N4_LAMBDA_REDUCTION))

    def twelve_step():
        for lam in range(15):
            stepped = tuple(
                a + b for a, b in zip(lambda_reduction(4, lam).counts, ref.N4_TWELVE_STEP)
            )
            if lambda_reduction(4, lam + 12).counts != stepped:
                failures.append(f"twelve-step rule fails at lam={lam}")

    timed(failures, 1.0, "N4 twelve-step rule", twelve_step)
    timed(failures, 1.0, "N3 lambda table", lambda: check_lambda(3, ref.N3_LAMBDA_REDUCTION))
    timed(failures, 1.0, "N5 lambda table", lambda: check_lambda(5, ref.N5_LAMBDA_REDUCTION))
    timed(failures, 1.0, "N4 sector table", lambda: check_sector(4, ref.N4_SECTOR_REDUCTION))
    timed(failures, 1.0, "N3 sector table", lambda: check_sector(3, ref.N3_SECTOR_REDUCTION))
    timed(failures, 1.0, "N5 sector table", lambda: check_sector(5, ref.N5_SECTOR_REDUCTION))
    timed(failures, 1.0, "S5 branching", lambda: check_branching(5, ref.S5_BRANCHING))
    timed(failures, 1.0, "S3 branching", lambda: check_branching(3, ref.S3_BRANCHING))
    timed(
        failures,
        1.0,
        "N4 lambda degeneracies",
        lambda: check_degeneracy(4, ref.N4_LAMBDA_DEGENERACY, "lambda"),
    )
    timed(
        failures,
        1.0,
        "N3 lambda degeneracies",
        lambda: check_degeneracy(3, ref.N3_LAMBDA_DEGENERACY, "lambda"),
    )
    timed(
        failures,
        1.0,
        "N3 shell degeneracies",
        lambda: check_degeneracy(3, ref.N3_SHELL_DEGENERACY, "shell"),
    )
    timed(
        failures,
        1.0,
        "N5 lambda degeneracies",
        lambda: check_degeneracy(5, ref.N5_LAMBDA_DEGENERACY, "lambda"),
    )
    timed(
        failures,
        1.0,
        "doubled character tables",
        lambda: (
            check_characters(3, ref.S3Z2_CHARACTERS, ref.S3Z2_SECTOR_ROWS),
            check_characters(4, ref.S4Z2_CHARACTERS, ref.S4Z2_SECTOR_ROWS),
        ),
    )
    def check_spin():
        for key, row in ref.SPIN_DECOMPOSITIONS.items():
            if spin_decomposition(*key).counts != row:
                failures.append(f"spin multiplicities {key}")

    timed(failures, 1.0, "spin multiplicities", check_spin)
    report(1, "table reproduction", failures)


def test_criterion_2_spot_values(report):
    failures = []
    if shell_dimension(4, 3) != 20:
        failures.append("shell dimension (4, 3)")
    for lam in range(14):
        if hyperangular_dimension(4, lam) != 2 * lam + 1:
            failures.append(f"hyperangular n=4 lam={lam}")
        if hyperangular_dimension(5, lam) != (lam + 1) ** 2:
            failures.append(f"hyperangular n=5 lam={lam}")
    if hyperangular_dimension(3, 0) != 1 or any(
        hyperangular_dimension(3, lam) != 2 for lam in range(1, 14)
    ):
        failures.append("hyperangular n=3")
    table = character_table_snz2(4)
    even = sector_rep_characters(4, "even")
    index = table.classes.index((P((2, 2)), 1))
    if even.values[index] != 8:
        failures.append("inverted double-transposition character")
    first = {
        3: [3, 6, 9, 12],
        4: [6, 9, 10, 12, 13],
        5: [10, 13],
    }
    for n, expected in first.items():
        got = [lam for lam in range(14) if antisymmetric_multiplicity(n, lam)]
        if got != expected:
            failures.append(f"antisymmetric seeds n={n}: {got}")
    report(2, "spot values", failures)


def test_criterion_3_mapping_suite(report):
    failures = []

    def expect(result, hyper, pi, dim):
        ok = (
            result.target_hyper == hyper
            and result.target_pi == pi
            and result.target_dimension == dim
        )
        if not ok:
            failures.append(
                f"{result.source} -> {result.target_hyper} pi={result.target_pi} "
                f"dim={result.target_dimension}"
            )

    expect(adiabatic_map(3, StateLabel(H(0, 0, 1), P((2, 1)))), H(0, 0, 3), -1, 1)
    for lam in (0, 3, 6):
        result = adiabatic_map(3, StateLabel(H(0, 0, lam), P((3,))))
        expect(result, H(0, 0, lam + 3), 1 if lam % 2 == 0 else -1, 1)
    expect(adiabatic_map(4, StateLabel(H(0, 0, 2), P((2, 2)))), H(0, 0, 6), 1, 2)
    expect(adiabatic_map(4, StateLabel(H(0, 0, 3), P((2, 1, 1)))), H(0, 0, 6), -1, 2)
    expect(adiabatic_map(5, StateLabel(H(0, 0, 4), P((2, 2, 1)))), H(0, 0, 10), 1, 3)
    expect(adiabatic_map(5, StateLabel(H(0, 0, 6), P((2, 1, 1, 1)))), H(0, 0, 10), 1, 2)
    for n in (3, 4, 5):
        for lam in range(14):
            if not antisymmetric_multiplicity(n, lam):
                continue
            result = adiabatic_map(n, StateLabel(H(0, 0, lam), P((1,) * n)))
            if result.target_hyper != H(0, 0, lam) or result.target_dimension != 1:
                failures.append(f"antisymmetric map n={n} lam={lam} moved")
    report(3, "mapping suite", failures)


def test_criterion_4_property_suites(report):
    failures = []
    start = time.monotonic()
    for n in range(2, 9):
        if sum(irrep_dimension(p) ** 2 for p in partitions_of(n)) != factorial(n):
            failures.append(f"dimension square sum n={n}")
        character_table_sn(n)  # orthogonality is asserted on construction
        character_table_snz2(n)
    for n in range(3, 6):
        for lam in range(14):
            if lambda_reduction(n, lam).total_dimension() != hyperangular_dimension(n, lam):
                failures.append(f"lambda dimension sum n={n} lam={lam}")
    for n in range(3, 7):
        for x in range(11):
            total = sum(
                ((x - lam) // 2 + 1) * hyperangular_dimension(n, lam) for lam in range(x + 1)
            )
            if total != shell_dimension(n, x):
                failures.append(f"shell split n={n} x={x}")
    for n in range(2, 7):
        for shape in partitions_of(n):
            fermi = ComponentPattern(shape.parts, FERMI)
            bose = ComponentPattern(shape.parts, BOSE)
            for p in partitions_of(n):
                if branch_multiplicity(p, fermi) != branch_multiplicity(p.conjugate(), bose):
                    failures.append(f"duality n={n} {p} {shape}")
    for n in range(2, 7):
        even, odd = snippet_reduction(n, "even"), snippet_reduction(n, "odd")
        for parity_mv in (even, odd):
            if parity_mv.total_dimension() != factorial(n):
                failures.append(f"sector dimension n={n}")
        for p in partitions_of(n):
            for pi in (1, -1):
                if even[(p, pi)] != odd[(p, -pi)]:
                    failures.append(f"parity swap n={n} {p}")
            if even[(p, 1)] + odd[(p, 1)] != irrep_dimension(p):
                failures.append(f"doubled regular sum n={n} {p}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"property suites took {elapsed:.1f}s, budget 60s")
    report(4, "property suites", failures)


def test_criterion_5_oracle_equivalence(report):
    failures = []
    start = time.monotonic()
    for n in range(2, 6):
        for x in range(9):
            _, oracle_reduction = explicit_shell_rep(n, x)
            if oracle_reduction.counts != shell_reduction(n, x).counts:
                failures.append(f"shell oracle n={n} x={x}")
    for n in range(2, 7):
        for parity in ("even", "odd"):
            rep, oracle_reduction = explicit_sector_rep(n, parity)
            if rep.traces != sector_rep_characters(n, parity).values:
                failures.append(f"sector traces n={n} {parity}")
            if oracle_reduction.counts != snippet_reduction(n, parity).counts:
                failures.append(f"sector oracle n={n} {parity}")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"oracle equivalence took {elapsed:.1f}s, budget 300s")
    report(5, "oracle equivalence", failures)


def test_criterion_6_sector_basis_exactness(report):
    failures = []
    for n in range(2, 6):
        for parity in ("even", "odd"):
            reduction = snippet_reduction(n, parity)
            for p in partitions_of(n):
                for pi in (1, -1):
                    vectors = snippet_projection_basis(n, parity, p, pi)
                    if len(vectors) != reduction[(p, pi)] * irrep_dimension(p):
                        failures.append(f"basis size n={n} {p} {pi} {parity}")
                    for a, b in combinations(vectors, 2):
                        if dot(a.amps, b.amps) != 0:
                            failures.append(f"orthogonality n={n} {p} {pi} {parity}")

    antisym = snippet_projection_basis(4, "even", P((1, 1, 1, 1)), 1)
    if len(antisym) != 1:
        failures.append("antisymmetric basis size")
    else:
        vec = antisym[0]

        def perm_sign(perm):
            seen, total = [False] * 5, 1
            for s in range(1, 5):
                if seen[s]:
                    continue
                length, x = 0, s
                while not seen[x]:
                    seen[x] = True
                    x = perm[x - 1]
                    length += 1
                if length % 2 == 0:
                    total = -total
            return total

        lead = vec.amps[0]
        if set(vec.amps) != {1, -1} or any(
            amp != perm_sign(sector) * lead for sector, amp in zip(all_sectors(4), vec.amps)
        ):
            failures.append("antisymmetric vector is not the parity-sign vector")

    pair = snippet_projection_basis(
        4, "even", P((2, 2)), 1, component=ComponentPattern((2, 2), FERMI)
    )
    if len(pair) != 2 or dot(pair[0].amps, pair[1].amps) != 0:
        failures.append("two-plus-two pair is not an orthogonal pair")
    else:
        from collections import Counter

        # the doubled, single and empty amplitudes of the two panels
        if Counter(pair[0].amps) != Counter({2: 4, -2: 4, 1: 8, -1: 8}):
            failures.append(f"doubled-amplitude panel pattern: {sorted(pair[0].amps)}")
        if Counter(pair[1].amps) != Counter({1: 8, -1: 8, 0: 8}):
            failures.append(f"vanishing-amplitude panel pattern: {sorted(pair[1].amps)}")
        values = {amp for v in pair for amp in v.amps}
        if values != {-2, -1, 0, 1, 2}:
            failures.append(f"pair amplitude values {sorted(values)}")
    report(6, "sector basis exactness", failures)
