import pytest
from itertools import product

from symtrap.branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    all_patterns,
    branch_multiplicity,
    branch_row,
    component_degeneracy,
    cumulative_shell_degeneracy,
    degeneracy_rows,
    distinguishable_pattern,
    spin_decomposition,
)
from symtrap.characters import ClassFunction, character_table_sn, kostka, reduce_class_function
from symtrap.oracle import branch_multiplicity_by_characters
from symtrap.oscillator import hyperangular_dimension, lambda_reduction, shell_reduction
from symtrap.partitions import Partition, partitions_of

from reference_data import (
    N3_LAMBDA_DEGENERACY,
    N3_SHELL_DEGENERACY,
    N4_LAMBDA_DEGENERACY,
    N5_LAMBDA_DEGENERACY,
    S3_BRANCHING,
    S4_BRANCHING,
    S5_BRANCHING,
    SPIN_DECOMPOSITIONS,
)


def pattern_from(parts, stats):
    return ComponentPattern(parts, stats or BOSE)


class TestComponentPattern:
    def test_canonical_order(self):
        assert ComponentPattern((1, 3), FERMI).counts == (3, 1)

    def test_labels(self):
        assert ComponentPattern((2, 2), FERMI).label() == "(22)_F"
        assert ComponentPattern((2, 1), BOSE).label() == "(21)_B"
        assert distinguishable_pattern(4).label() == "(1111)"

    def test_subgroup_tags(self):
        assert ComponentPattern((2, 2), FERMI).subgroup_tag() == "[1^2]x[1^2]"
        assert ComponentPattern((3, 1), FERMI).subgroup_tag() == "[1^3]x[1]"
        assert ComponentPattern((2, 2), BOSE).subgroup_tag() == "[2]x[2]"
        for n in range(2, 9):
            for pat in all_patterns(n):
                assert ComponentPattern.from_tag(pat.subgroup_tag(), n) == pat

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ComponentPattern((0, 2), FERMI)
        with pytest.raises(ValueError):
            ComponentPattern((2, 1), "anyons")


class TestBranchMultiplicity:
    @pytest.mark.parametrize("table,n", [(S3_BRANCHING, 3), (S4_BRANCHING, 4), (S5_BRANCHING, 5)])
    def test_reference_tables(self, table, n):
        for (parts, stats), row in table.items():
            pattern = pattern_from(parts, stats)
            computed = tuple(branch_multiplicity(p, pattern) for p in partitions_of(n))
            assert computed == row, pattern.label()

    def test_spot_values(self):
        assert branch_multiplicity(Partition((2, 2)), ComponentPattern((2, 2), FERMI)) == 1
        assert branch_multiplicity(Partition((2, 1, 1)), ComponentPattern((3, 1), FERMI)) == 1
        assert branch_multiplicity(Partition((2, 1, 1, 1)), ComponentPattern((2, 1, 1, 1), FERMI)) == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trivial_irrep_hosts_every_bose_pattern(self, n):
        for p in partitions_of(n):
            assert branch_multiplicity(Partition((n,)), ComponentPattern(p.parts, BOSE)) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_conjugation_duality(self, n):
        for pattern_shape in partitions_of(n):
            fermi = ComponentPattern(pattern_shape.parts, FERMI)
            bose = ComponentPattern(pattern_shape.parts, BOSE)
            for p in partitions_of(n):
                assert branch_multiplicity(p, fermi) == branch_multiplicity(p.conjugate(), bose)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_two_routes_agree(self, n):
        for pattern_shape in partitions_of(n):
            for stats in (BOSE, FERMI):
                pattern = ComponentPattern(pattern_shape.parts, stats)
                for p in partitions_of(n):
                    assert branch_multiplicity(p, pattern) == branch_multiplicity_by_characters(
                        p, pattern
                    )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            branch_multiplicity(Partition((2, 1)), ComponentPattern((2, 2), FERMI))


def kostka_row(pattern):
    """The branching row shape by shape, through ``characters.kostka``."""
    shapes = partitions_of(pattern.n)
    if pattern.statistics == FERMI:
        shapes = [p.conjugate() for p in shapes]
    return tuple(kostka(shape, pattern.content()) for shape in shapes)


@pytest.mark.parametrize("n", range(2, 11))
def test_pieri_row_equals_kostka_per_shape(n):
    for counts in partitions_of(n):
        for stats in (BOSE, FERMI):
            pattern = ComponentPattern(counts.parts, stats)
            row = branch_row(pattern)
            assert row == kostka_row(pattern), pattern.label()
            assert row == tuple(branch_multiplicity(p, pattern) for p in partitions_of(n))


@pytest.mark.parametrize("by", ["lambda", "shell"])
@pytest.mark.parametrize("n", range(3, 9))
def test_degeneracy_rows_equal_the_cells(n, by):
    """Each cell of a row is the column's content dotted with the per-shape
    Kostka row, and what the per-cell function returns."""
    reduce, cell = {
        "lambda": (lambda_reduction, component_degeneracy),
        "shell": (shell_reduction, cumulative_shell_degeneracy),
    }[by]
    columns = range(31)
    patterns = all_patterns(n)
    rows = degeneracy_rows(n, by, columns, patterns)
    assert len(rows) == len(patterns)
    for pattern, row in zip(patterns, rows):
        reference = kostka_row(pattern)
        expected = [sum(c * b for c, b in zip(reduce(n, k).counts, reference)) for k in columns]
        assert row == expected, pattern.label()
        assert row == [cell(n, k, pattern) for k in columns]


def test_degeneracy_rows_reject_a_foreign_pattern():
    with pytest.raises(ValueError, match="does not describe 4 particles"):
        degeneracy_rows(4, "lambda", [0, 1], [ComponentPattern((2, 1), FERMI)])
    with pytest.raises(ValueError, match="does not describe 4 particles"):
        component_degeneracy(4, 1, ComponentPattern((2, 1), FERMI))


class TestComponentDegeneracy:
    @pytest.mark.parametrize(
        "table,n",
        [(N3_LAMBDA_DEGENERACY, 3), (N4_LAMBDA_DEGENERACY, 4), (N5_LAMBDA_DEGENERACY, 5)],
    )
    def test_reference_tables(self, table, n):
        for (parts, stats), row in table.items():
            pattern = pattern_from(parts, stats)
            computed = tuple(component_degeneracy(n, lam, pattern) for lam in range(len(row)))
            assert computed == row, pattern.label()

    def test_spot_values(self):
        assert component_degeneracy(4, 6, ComponentPattern((2, 2), FERMI)) == 3
        assert component_degeneracy(3, 1, ComponentPattern((2, 1), FERMI)) == 1
        assert component_degeneracy(5, 5, ComponentPattern((2, 1, 1, 1), FERMI)) == 15

    @pytest.mark.parametrize("n", range(3, 6))
    def test_distinguishable_sees_everything(self, n):
        pattern = distinguishable_pattern(n)
        for lam in range(14):
            assert component_degeneracy(n, lam, pattern) == hyperangular_dimension(n, lam)


class TestCumulativeShellDegeneracy:
    def test_reference_table(self):
        for (parts, stats), row in N3_SHELL_DEGENERACY.items():
            pattern = pattern_from(parts, stats)
            computed = tuple(cumulative_shell_degeneracy(3, x, pattern) for x in range(len(row)))
            assert computed == row, pattern.label()

    def test_spot_values(self):
        assert cumulative_shell_degeneracy(3, 3, ComponentPattern((2, 1), FERMI)) == 4
        assert cumulative_shell_degeneracy(3, 0, ComponentPattern((3,), FERMI)) == 0
        assert cumulative_shell_degeneracy(3, 6, ComponentPattern((3,), BOSE)) == 7


def brute_force_spin_multiplicities(n, k):
    """Decompose the k^n permutation action by explicit character projection."""
    table = character_table_sn(n)
    configs = list(product(range(k), repeat=n))
    values = []
    for cls in table.classes:
        # any permutation of that cycle type; build one from consecutive cycles
        image = list(range(1, n + 1))
        start = 0
        for length in cls.parts:
            for offset in range(length):
                image[start + offset] = start + 1 + (offset + 1) % length
            start += length
        fixed = 0
        for config in configs:
            moved = tuple(config[image[i] - 1] for i in range(n))
            fixed += moved == config
        values.append(fixed)
    reduction = reduce_class_function(
        ClassFunction(table.group, table.classes, tuple(values)), table
    )
    return reduction.counts


def brute_force_ssyt(shape, k):
    """Enumerate semistandard fillings with entries in 1..k directly."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    grid = [[0] * row for row in shape]

    def rec(index):
        if index == len(cells):
            return 1
        i, j = cells[index]
        total = 0
        low = 1
        if j > 0:
            low = max(low, grid[i][j - 1])
        if i > 0:
            low = max(low, grid[i - 1][j] + 1)
        for value in range(low, k + 1):
            grid[i][j] = value
            total += rec(index + 1)
        grid[i][j] = 0
        return total

    return rec(0)


class TestSpinDecomposition:
    def test_reference_values(self):
        for (n, k), row in SPIN_DECOMPOSITIONS.items():
            assert spin_decomposition(n, k).counts == row

    def test_single_component_is_symmetric(self):
        for n in range(2, 7):
            counts = spin_decomposition(n, 1).counts
            assert counts[0] == 1 and not any(counts[1:])

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3), (4, 3), (5, 2)])
    def test_matches_character_projection(self, n, k):
        assert spin_decomposition(n, k).counts == brute_force_spin_multiplicities(n, k)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_matches_tableau_enumeration(self, n, k):
        computed = spin_decomposition(n, k)
        for p, count in computed.items():
            assert count == brute_force_ssyt(p.parts, k)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 2), (4, 3), (3, 4)])
    def test_fills_the_spin_space(self, n, k):
        assert spin_decomposition(n, k).total_dimension() == k**n

    def test_tall_shapes_excluded(self):
        counts = spin_decomposition(4, 2)
        assert counts[Partition((2, 1, 1))] == 0
        assert counts[Partition((1, 1, 1, 1))] == 0
