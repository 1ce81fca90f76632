import pytest
from math import factorial

from symtrap.characters import (
    CharacterTable,
    ClassFunction,
    NotACharacterError,
    _validate_orthogonality,
    character_table_sn,
    character_table_snz2,
    kostka,
    reduce_class_function,
    sn_character,
)
from symtrap.errors import ConsistencyError
from symtrap.partitions import Partition, irrep_dimension, partitions_of

from reference_data import S3Z2_CHARACTERS, S4Z2_CHARACTERS


def altered(table, values=None, class_sizes=None):
    """A new table with ``table``'s fields, except the given values or class sizes."""
    return CharacterTable(
        table.group,
        table.order,
        table.classes,
        table.class_sizes if class_sizes is None else class_sizes,
        table.irreps,
        table.values if values is None else values,
    )


def brute_force_kostka(shape, content):
    """Count admissible fillings cell by cell, rows weakly and columns
    strictly increasing."""
    rows = len(shape)
    grid = [[None] * width for width in shape]
    symbols = sorted(content)

    def rec(remaining, pos):
        if not remaining:
            return 1
        i, j = pos
        total = 0
        tried = set()
        for k, value in enumerate(remaining):
            if value in tried:
                continue
            tried.add(value)
            if j > 0 and grid[i][j - 1] is not None and value < grid[i][j - 1]:
                continue
            if i > 0 and value <= grid[i - 1][j]:
                continue
            grid[i][j] = value
            nxt = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
            total += rec(remaining[:k] + remaining[k + 1 :], nxt)
            grid[i][j] = None
        return total

    return rec(tuple(symbols), (0, 0))


class TestSnCharacters:
    def test_mixed_irrep_of_s3(self):
        p = Partition((2, 1))
        assert sn_character(p, Partition((1, 1, 1))) == 2
        assert sn_character(p, Partition((3,))) == -1

    def test_s4_square_on_double_transposition(self):
        assert sn_character(Partition((2, 2)), Partition((2, 2))) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sign_representation(self, n):
        sign_row = character_table_sn(n).values[-1]
        from symtrap.partitions import class_sign

        expected = tuple(class_sign(c) for c in character_table_sn(n).classes)
        assert sign_row == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orthogonality_is_enforced_on_build(self, n):
        table = character_table_sn(n)
        assert len(table.irreps) == len(table.classes)
        assert table.values[0] == (1,) * len(table.classes)

    @pytest.mark.parametrize("build", [character_table_sn, character_table_snz2], ids=["sn", "snz2"])
    @pytest.mark.parametrize("row,column", [(0, 0), (1, 2), (-1, -1)])
    def test_a_changed_entry_fails_validation(self, build, row, column):
        table = build(5)
        values = [list(r) for r in table.values]
        values[row][column] += 1
        with pytest.raises(ConsistencyError, match=table.group):
            _validate_orthogonality(altered(table, values=tuple(map(tuple, values))))

    @pytest.mark.parametrize("build", [character_table_sn, character_table_snz2], ids=["sn", "snz2"])
    def test_a_repeated_row_fails_validation(self, build):
        """Every row keeps its norm, so only an off-diagonal pair shows the fault."""
        table = build(5)
        values = (table.values[0], *table.values[:-1])
        with pytest.raises(ConsistencyError, match=table.group):
            _validate_orthogonality(altered(table, values=values))

    @pytest.mark.parametrize("build", [character_table_sn, character_table_snz2], ids=["sn", "snz2"])
    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_a_dropped_row_fails_validation(self, build, index):
        """The remaining rows are still orthonormal, so only squareness shows the fault."""
        table = build(5)
        values = list(table.values)
        del values[index]
        with pytest.raises(ConsistencyError, match=table.group):
            _validate_orthogonality(altered(table, values=tuple(values)))

    @pytest.mark.parametrize("build", [character_table_sn, character_table_snz2], ids=["sn", "snz2"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_relation_holds(self, build, n):
        """sum_i chi_i(a) chi_i(b) = |G| / |a| if a == b else 0, which the
        row relation implies for a square table and the build no longer checks."""
        table = build(n)
        columns = list(zip(*table.values))
        for a, column in enumerate(columns):
            for b, other in enumerate(columns):
                expected = table.order // table.class_sizes[a] if a == b else 0
                assert sum(x * y for x, y in zip(column, other)) == expected

    @pytest.mark.parametrize("build", [character_table_sn, character_table_snz2], ids=["sn", "snz2"])
    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_a_changed_class_size_fails_validation(self, build, index):
        table = build(5)
        sizes = list(table.class_sizes)
        sizes[index] += 1
        with pytest.raises(ConsistencyError, match=table.group):
            _validate_orthogonality(altered(table, class_sizes=tuple(sizes)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            character_table_sn(1)
        with pytest.raises(ValueError):
            character_table_sn(9)


class TestDoubledTables:
    def test_s3z2_rows(self):
        table = character_table_snz2(3)
        for (parts, pi), row in S3Z2_CHARACTERS.items():
            assert table.values[table.irrep_index((Partition(parts), pi))] == row

    def test_s4z2_rows(self):
        table = character_table_snz2(4)
        for (parts, pi), row in S4Z2_CHARACTERS.items():
            assert table.values[table.irrep_index((Partition(parts), pi))] == row

    def test_trivial_irrep_everywhere(self):
        for n in range(2, 7):
            table = character_table_snz2(n)
            assert table.values[0] == (1,) * len(table.classes)

    def test_inverted_half_is_parity_times_pure(self):
        table = character_table_snz2(4)
        half = len(table.classes) // 2
        for (p, pi), row in zip(table.irreps, table.values):
            assert row[half:] == tuple(pi * v for v in row[:half])

    def test_doubling_counts(self):
        table = character_table_snz2(5)
        assert len(table.classes) == 2 * len(partitions_of(5))
        assert len(table.irreps) == 2 * len(partitions_of(5))


class TestReduction:
    def test_regular_representation(self):
        table = character_table_sn(3)
        values = tuple(factorial(3) if c.parts == (1, 1, 1) else 0 for c in table.classes)
        reduction = reduce_class_function(ClassFunction(table.group, table.classes, values), table)
        assert reduction.counts == (1, 2, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_regular_representation_general(self, n):
        table = character_table_sn(n)
        values = tuple(factorial(n) if c.parts == (1,) * n else 0 for c in table.classes)
        reduction = reduce_class_function(ClassFunction(table.group, table.classes, values), table)
        assert reduction.counts == tuple(irrep_dimension(p) for p in table.irreps)

    def test_rejects_fractional_multiplicities(self):
        table = character_table_sn(3)
        bogus = ClassFunction(table.group, table.classes, (1, 1, 0))
        with pytest.raises(NotACharacterError):
            reduce_class_function(bogus, table)

    def test_rejects_negative_multiplicities(self):
        table = character_table_sn(3)
        # minus the trivial character is a valid class function, not a character
        bogus = ClassFunction(table.group, table.classes, (-1, -1, -1))
        with pytest.raises(NotACharacterError):
            reduce_class_function(bogus, table)

    def test_rejects_misaligned_classes(self):
        t3 = character_table_sn(3)
        t4 = character_table_sn(4)
        f = ClassFunction(t4.group, t4.classes, (1,) * 5)
        with pytest.raises(ValueError):
            reduce_class_function(f, t3)

    def test_natural_permutation_representation(self):
        # fixed-point counts of the defining action decompose as [n] + [n-1,1]
        for n in range(2, 7):
            table = character_table_sn(n)
            values = []
            for c in table.classes:
                values.append(sum(1 for part in c.parts if part == 1))
            reduction = reduce_class_function(
                ClassFunction(table.group, table.classes, tuple(values)), table
            )
            expected = {Partition((n,)): 1}
            if n >= 2:
                expected[Partition((n - 1, 1))] = 1
            for p, count in reduction.items():
                assert count == expected.get(p, 0)


class TestKostka:
    def test_known_fillings(self):
        assert kostka(Partition((3, 1)), (0, 0, 1, 2)) == 2
        assert kostka(Partition((2, 2)), (0, 0, 1, 2)) == 1

    def test_single_row_always_one(self):
        for content in [(0, 0, 0, 3), (0, 1, 2, 3), (1, 1, 1, 1)]:
            assert kostka(Partition((4,)), content) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka(Partition((2, 1)), (0, 0, 1, 2))

    @pytest.mark.parametrize(
        "shape,content",
        [
            ((3, 1), (0, 0, 1, 2)),
            ((2, 2), (0, 0, 1, 1)),
            ((2, 1, 1), (0, 1, 1, 2)),
            ((3, 2), (0, 0, 1, 1, 2)),
            ((2, 2, 1), (0, 0, 1, 2, 3)),
            ((4, 1), (0, 0, 0, 1, 1)),
        ],
    )
    def test_matches_brute_force(self, shape, content):
        assert kostka(Partition(shape), content) == brute_force_kostka(shape, content)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_distinct_content_gives_dimension(self, n):
        content = tuple(range(n))
        for p in partitions_of(n):
            assert kostka(p, content) == irrep_dimension(p)

    def test_arrangement_space_dimension(self):
        # the 12-dimensional arrangement space of one doubled symbol among four
        content = (0, 0, 1, 2)
        total = sum(kostka(p, content) * irrep_dimension(p) for p in partitions_of(4))
        assert total == factorial(4) // 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_arrangement_space_dimension_general(self, n):
        """Kostka counts weighted by dimensions fill the arrangement space of
        any excitation multiset: n! over the symbol multiplicities."""
        from collections import Counter
        from symtrap.partitions import partitions_into_max_parts

        for x in range(5):
            for quanta in partitions_into_max_parts(x, n):
                content = (0,) * (n - len(quanta)) + tuple(sorted(quanta))
                total = sum(kostka(p, content) * irrep_dimension(p) for p in partitions_of(n))
                arrangements = factorial(n)
                for mult in Counter(content).values():
                    arrangements //= factorial(mult)
                assert total == arrangements
