import pytest
from itertools import permutations
from math import factorial

from symtrap.partitions import (
    MultiplicityVector,
    Partition,
    class_sign,
    class_size,
    irrep_dimension,
    parity_irreps,
    parse_parity_irrep,
    partitions_into_max_parts,
    partitions_of,
)


def brute_force_standard_tableaux(shape):
    """Count standard fillings directly: add cells one at a time, each new
    cell needing its left and upper neighbours already filled."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]

    def rec(filled):
        if len(filled) == len(cells):
            return 1
        total = 0
        for cell in cells:
            if cell in filled:
                continue
            i, j = cell
            if j > 0 and (i, j - 1) not in filled:
                continue
            if i > 0 and (i - 1, j) not in filled:
                continue
            total += rec(filled | {cell})
        return total

    return rec(frozenset())


def cycle_type_of(perm):
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class TestPartitionBasics:
    def test_ordering_for_four(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_single_particle(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_memoized(self):
        assert partitions_of(8) is partitions_of(8)
        assert len(partitions_of(8)) == 22

    def test_seven_partitions_of_five(self):
        assert len(partitions_of(5)) == 7
        assert partitions_of(5)[0].parts == (5,)
        assert partitions_of(5)[-1].parts == (1,) * 5

    @pytest.mark.parametrize("n", range(1, 9))
    def test_antisymmetric_shape_is_last(self, n):
        """``oscillator.antisymmetric_multiplicity`` reads the last slot."""
        assert partitions_of(n)[-1] == Partition((1,) * n)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            partitions_of(bad)

    @pytest.mark.parametrize("parts", [(0, 1), (1, 2), (-1,), ()])
    def test_invalid_parts(self, parts):
        with pytest.raises(ValueError):
            Partition(parts)

    def test_parse_round_trip(self):
        for text, parts in [
            ("21^2", (2, 1, 1)),
            ("[1^4]", (1, 1, 1, 1)),
            ("211", (2, 1, 1)),
            ("2,1,1", (2, 1, 1)),
            ("31", (3, 1)),
        ]:
            assert Partition.parse(text).parts == parts
        assert Partition((2, 1, 1)).label() == "[21^2]"
        assert Partition((2, 2)).label() == "[2^2]"

    def test_single_digit_exponents(self):
        assert Partition((2, 2, 1)).compact() == "2^21"
        assert Partition.parse("2^21").parts == (2, 2, 1)
        assert Partition.parse("2^21^4").parts == (2, 2, 1, 1, 1, 1)
        assert Partition((1,) * 10).compact() == ",".join(["1"] * 10)
        assert Partition((10,)).compact() == "10,"

    def test_compact_round_trip_exhaustive(self):
        for n in range(1, 13):
            for p in partitions_of(n):
                assert Partition.parse(p.compact()) == p
                assert Partition.parse(p.label()) == p
        for n in range(2, 9):
            for p, pi in parity_irreps(n):
                label = p.label(pi)
                assert label == p.label() + ("+" if pi > 0 else "-")
                assert parse_parity_irrep(label) == (p, pi)
                assert parse_parity_irrep(label.strip("[]+-") + label[-1]) == (p, pi)

    def test_parse_matches_the_regular_expression_grammar(self):
        """The hand scan accepts exactly the old ``re`` grammar, with the same
        errors: every label and comma form for n <= 12, and edge cases."""

        def reference(text):
            import re

            body = text.strip().strip("[]")
            if not body:
                raise ValueError(f"cannot parse partition from {text!r}")
            if "," in body:
                tokens = body.split(",")
                if not tokens[-1]:
                    tokens.pop()
                return Partition(tuple(int(tok) for tok in tokens))
            parts = []
            pos = 0
            for match in re.finditer(r"(\d)(?:\^(\d))?", body):
                if match.start() != pos:
                    raise ValueError(f"cannot parse partition from {text!r}")
                pos = match.end()
                value, exp = int(match.group(1)), int(match.group(2) or 1)
                parts.extend([value] * exp)
            if pos != len(body) or not parts:
                raise ValueError(f"cannot parse partition from {text!r}")
            return Partition(tuple(sorted(parts, reverse=True)))

        def outcome(parse, text):
            try:
                return parse(text).parts
            except ValueError as exc:
                return str(exc)

        texts = ["", "2^", "^2", "1^0", "0", "21a", "3^21", "\u0663", "\u0663^\u0662", "\u00b2",
                 "2^\u00b2", "21^0", "2^^1", " [2^2] ", "[[21]]", "2,1,", "2^2,1"]
        for n in range(1, 13):
            for p in partitions_of(n):
                digits = "".join(map(str, p.parts))
                commas = ",".join(map(str, p.parts))
                texts += [p.compact(), p.label(), digits, commas, commas + ",", f"[{commas}]"]
        for text in texts:
            assert outcome(Partition.parse, text) == outcome(reference, text), text

    def test_parse_garbage(self):
        for text in ["", "x", "2^", "[]", ",", "1^0", "2^21^"]:
            with pytest.raises(ValueError):
                Partition.parse(text)
        for text in ["21", "", "+", "21*"]:
            with pytest.raises(ValueError):
                parse_parity_irrep(text)


class TestConjugation:
    def test_row_of_four(self):
        assert Partition((4,)).conjugate().parts == (1, 1, 1, 1)

    def test_hook(self):
        assert Partition((2, 1, 1)).conjugate().parts == (3, 1)

    def test_self_conjugate(self):
        assert Partition((2, 2)).conjugate().parts == (2, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p


class TestDimensions:
    def test_antisymmetric_is_one_dimensional(self):
        assert irrep_dimension(Partition((1, 1, 1, 1))) == 1

    def test_hook_shape_by_enumeration(self):
        assert brute_force_standard_tableaux((3, 1)) == 3
        assert irrep_dimension(Partition((3, 1))) == 3

    def test_two_by_two(self):
        assert irrep_dimension(Partition((2, 2))) == 2

    def test_hook_lengths_row_by_row(self):
        assert Partition((3, 2, 1)).hook_lengths() == (5, 3, 1, 3, 1, 1)
        assert Partition((4,)).hook_lengths() == (4, 3, 2, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_enumeration(self, n):
        for p in partitions_of(n):
            assert irrep_dimension(p) == brute_force_standard_tableaux(p.parts)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sum_of_squares(self, n):
        assert sum(irrep_dimension(p) ** 2 for p in partitions_of(n)) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_has_same_dimension(self, n):
        for p in partitions_of(n):
            assert irrep_dimension(p) == irrep_dimension(p.conjugate())

    def test_memoized(self):
        """``MultiplicityVector.total_dimension`` asks for every key's
        dimension at the end of every reduction row."""
        assert irrep_dimension(Partition((3, 2, 1))) == 16
        hits = irrep_dimension.cache_info().hits
        assert irrep_dimension(Partition((3, 2, 1))) == 16
        assert irrep_dimension.cache_info().hits == hits + 1


class TestClassSizes:
    def test_identity_class(self):
        assert class_size(Partition((1, 1, 1, 1))) == 1

    def test_double_transpositions_in_s4(self):
        assert class_size(Partition((2, 2))) == 3

    def test_three_cycles_in_s4_by_enumeration(self):
        count = sum(
            1 for perm in permutations(range(1, 5)) if cycle_type_of(perm) == (3, 1)
        )
        assert count == 8
        assert class_size(Partition((3, 1))) == 8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sizes_fill_the_group(self, n):
        assert sum(class_size(c) for c in partitions_of(n)) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sizes_match_enumeration(self, n):
        from collections import Counter

        seen = Counter(cycle_type_of(perm) for perm in permutations(range(1, n + 1)))
        for c in partitions_of(n):
            assert class_size(c) == seen[c.parts]

    def test_signs(self):
        assert class_sign(Partition((2, 1, 1))) == -1
        assert class_sign(Partition((2, 2))) == 1
        assert class_sign(Partition((3, 1))) == 1


class TestPartitionsIntoMaxParts:
    def test_zero(self):
        assert partitions_into_max_parts(0, 4) == ((),)

    def test_bounded(self):
        assert partitions_into_max_parts(3, 2) == ((3,), (2, 1))

    def test_matches_unbounded_when_loose(self):
        assert len(partitions_into_max_parts(6, 6)) == len(partitions_of(6))


class TestMultiplicityVector:
    def test_arithmetic(self):
        keys = partitions_of(3)
        a = MultiplicityVector(keys, (1, 2, 0))
        assert a.scaled(3).counts == (3, 6, 0)
        assert a.scaled(3).keys == keys
        assert list(a.scaled(-1).items()) == list(zip(keys, (-1, -2, 0)))
        assert min(a.scaled(-1).counts) == -2

    def test_lookup_and_dimension(self):
        keys = partitions_of(3)
        v = MultiplicityVector(keys, (1, 2, 1))
        assert v[Partition((2, 1))] == 2
        assert v.get(Partition((3,))) == 1
        assert v.total_dimension() == 1 + 2 * 2 + 1

    def test_missing_key(self):
        v = MultiplicityVector(tuple((p, 1) for p in partitions_of(3)), (4, 5, 6))
        assert v[(Partition((2, 1)), 1)] == 5
        assert v.get((Partition((2, 1)), -1)) == 0
        assert v.get(Partition((4,)), 7) == 7
        with pytest.raises(ValueError):
            v[(Partition((2, 1)), -1)]

    def test_lookup_table_is_not_part_of_the_value(self):
        keys = partitions_of(3)
        a = MultiplicityVector(keys, (1, 2, 1))
        b = MultiplicityVector(tuple(keys), [1, 2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != MultiplicityVector(keys, (1, 2, 2))

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            MultiplicityVector(partitions_of(3), (1, 0, 0, 0))
        a = MultiplicityVector(partitions_of(3), (1, 0, 0))
        with pytest.raises(ValueError, match="not a key"):
            a[partitions_of(4)[0]]
        assert a.get(partitions_of(4)[0]) == 0

    def test_parity_keys(self):
        keys = tuple((p, 1) for p in partitions_of(3))
        v = MultiplicityVector(keys, (0, 1, 1))
        assert v.total_dimension() == 3

    def test_duplicate_keys_resolve_to_the_first_occurrence(self):
        p, q = Partition((2, 1)), Partition((3,))
        v = MultiplicityVector((p, q, p, q), (1, 2, 3, 4))
        assert (v[p], v[q], v.get(p), v.get(q, 9)) == (1, 2, 1, 2)

    def test_first_lookup_may_miss(self):
        """A missed ``get`` returns its default, and a missed index raises
        ``ValueError``; neither changes what later lookups read."""
        keys = partitions_of(3)
        v = MultiplicityVector(keys, (1, 2, 1))
        assert v.get(Partition((4,)), -5) == -5
        assert v[Partition((1, 1, 1))] == 1
        w = MultiplicityVector(keys, (1, 2, 1))
        with pytest.raises(ValueError, match="is not a key of this vector"):
            w[Partition((4,))]
        assert w.get(Partition((3,))) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_hash_is_the_record_hash(n):
    """``Partition`` caches the hash ``Record`` would compute, so set and dict
    orders do not change."""
    for p in partitions_of(n):
        assert hash(p) == hash((p.parts,)) == hash(Partition(p.parts))
        assert hash(p.conjugate()) == hash((p.conjugate().parts,))
