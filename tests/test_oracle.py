import random

import pytest
from math import comb, factorial

from symtrap.branching import BOSE, FERMI, ComponentPattern, distinguishable_pattern, patterns_for
from symtrap.characters import sn_character
from symtrap.errors import ConsistencyError
from symtrap.oracle import (
    CHAIN_N_LIMIT,
    SECTOR_N_LIMIT,
    SHELL_N_LIMIT,
    SHELL_X_LIMIT,
    SignedPerm,
    _apply,
    _content_sums,
    _isotypic_columns,
    _sector_action,
    _sector_multiplicity,
    explicit_isotypic_rank,
    explicit_sector_rep,
    explicit_shell_rep,
    subgroup_chain_basis,
    verify_sector_basis,
    verify_sector_homomorphism,
    verify_shell_homomorphism,
)
from symtrap.linalg import dot, primitive
from symtrap.oscillator import shell_reduction
from symtrap.partitions import Partition, irrep_dimension, partitions_of
from symtrap.snippet import (
    SectorVector,
    SnippetIrrepLabel,
    _cycle_type,
    _inversion_sign,
    all_sectors,
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)


class TestSignedPerm:
    def test_compose_and_trace(self):
        a = SignedPerm((1, 0, 2), (1, -1, 1))
        b = SignedPerm((2, 1, 0), (-1, 1, -1))
        ab = a @ b
        # column 0: b sends 0 -> 2 with sign -1, then a keeps 2 with sign +1
        assert ab.images[0] == 2 and ab.signs[0] == -1
        # column 2: b sends 2 -> 0 with sign -1, then a sends 0 -> 1 with sign +1
        assert ab.images[2] == 1 and ab.signs[2] == -1
        # column 1: b keeps 1, then a sends 1 -> 0 picking up a's sign -1
        assert ab.images[1] == 0 and ab.signs[1] == -1
        assert SignedPerm((0, 1, 2), (1, 1, 1)).trace() == 3
        assert SignedPerm((0, 1, 2), (1, -1, 1)).trace() == 1

    def test_dense_rows(self):
        m = SignedPerm((1, 0), (1, -1))
        assert m.dense_rows() == [(0, -1), (1, 0)]

    def test_apply_matches_dense_rows(self):
        m = SignedPerm((2, 0, 1), (1, -1, -1))
        vec = [5, 7, 11]
        expected = [sum(a * b for a, b in zip(row, vec)) for row in m.dense_rows()]
        assert m.apply(vec) == expected == [-7, -11, 5]

    @pytest.mark.parametrize("size", range(1, 8))
    def test_apply_matches_dense_rows_at_random(self, size):
        rng = random.Random(size)
        seen = set()
        for _ in range(20):
            images = tuple(rng.sample(range(size), size))
            signs = tuple(rng.choice((1, -1)) for _ in range(size))
            seen.update(signs)
            m = SignedPerm(images, signs)
            vec = [rng.randint(-9, 9) for _ in range(size)]
            expected = [sum(a * b for a, b in zip(row, vec)) for row in m.dense_rows()]
            assert m.apply(vec) == expected
        assert seen == {1, -1}


class TestShellOracle:
    def test_reference_decomposition(self):
        _, reduction = explicit_shell_rep(4, 3)
        assert reduction.counts == (3, 4, 1, 1, 0)

    def test_ground_shell(self):
        _, reduction = explicit_shell_rep(3, 0)
        assert reduction.counts == (1, 0, 0)

    def test_dimension(self):
        rep, _ = explicit_shell_rep(5, 4)
        assert rep.dimension == comb(4 + 4, 4)

    @pytest.mark.parametrize("n", range(2, SHELL_N_LIMIT + 1))
    def test_agrees_with_production(self, n):
        for x in range(SHELL_X_LIMIT + 1):
            _, reduction = explicit_shell_rep(n, x)
            assert reduction.counts == shell_reduction(n, x).counts

    @pytest.mark.parametrize("n,x", [(3, 4), (4, 5), (5, 3)])
    def test_homomorphism(self, n, x):
        verify_shell_homomorphism(n, x)

    def test_generator_relations(self):
        rep, _ = explicit_shell_rep(4, 3)
        actions = dict(rep.generators)
        for action in actions.values():
            assert (action @ action).is_identity()
        s1, s2, s3 = actions["s1"], actions["s2"], actions["s3"]
        assert s1 @ s2 @ s1 == s2 @ s1 @ s2
        assert s1 @ s3 == s3 @ s1

    def test_guards(self):
        with pytest.raises(ValueError):
            explicit_shell_rep(6, 2)
        with pytest.raises(ValueError):
            explicit_shell_rep(4, 9)


class TestSectorOracle:
    @pytest.mark.parametrize("n", range(2, SECTOR_N_LIMIT + 1))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_traces_and_decomposition(self, n, parity):
        rep, reduction = explicit_sector_rep(n, parity)
        assert rep.dimension == factorial(n)
        assert rep.traces == sector_rep_characters(n, parity).values
        assert reduction.counts == snippet_reduction(n, parity).counts

    def test_two_sector_case(self):
        _, even = explicit_sector_rep(2, "even")
        assert even[(Partition((2,)), -1)] == 1
        assert even[(Partition((1, 1)), 1)] == 1

    def test_entries_are_signed_units(self):
        rep, _ = explicit_sector_rep(3, "odd")
        for _, action in rep.generators:
            for row in action.dense_rows():
                assert set(row) <= {-1, 0, 1}
                assert sum(1 for v in row if v) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_homomorphism(self, n, parity):
        verify_sector_homomorphism(n, parity)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_generator_relations(self, parity):
        rep, _ = explicit_sector_rep(4, parity)
        actions = dict(rep.generators)
        for action in actions.values():
            assert (action @ action).is_identity()
        s1, s2 = actions["s1"], actions["s2"]
        assert s1 @ s2 @ s1 == s2 @ s1 @ s2
        inv = actions["inversion"]
        for name in ("s1", "s2", "s3"):
            assert inv @ actions[name] == actions[name] @ inv

    def test_guard(self):
        with pytest.raises(ValueError):
            explicit_sector_rep(7, "even")


def _scatter(m, vec):
    """``m`` times ``vec``, one column at a time: the definition ``apply`` gathers."""
    out = [0] * len(vec)
    for amp, row, s in zip(vec, m.images, m.signs):
        out[row] += s * amp
    return out


class TestSectorActionDefinitions:
    """The fast sector actions against the definitions they replace."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_actions_relabel_sectors(self, n):
        sectors = all_sectors(n)
        index = {q: i for i, q in enumerate(sectors)}
        for c in sectors:
            for inverted in (0, 1):
                relabelled = tuple(index[_apply(c, q[::-1] if inverted else q)] for q in sectors)
                for sign in (1, -1):
                    action = _sector_action(n, c, inverted, sign)
                    assert action.images == relabelled
                    assert action.signs == (sign if inverted else 1,) * len(sectors)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_isotypic_columns_are_the_explicit_sums(self, n, parity):
        sign = _inversion_sign(n, parity)
        sectors = all_sectors(n)
        inversion = _sector_action(n, tuple(range(1, n + 1)), 1, sign)
        actions = [_sector_action(n, c, 0, sign) for c in sectors]
        for p in partitions_of(n):
            chis = [sn_character(p, _cycle_type(c)) for c in sectors]
            for pi in (1, -1):
                columns = list(_isotypic_columns(n, parity, p, pi))
                assert len(columns) == len(sectors)
                for q, column in enumerate(columns):
                    unit = [int(t == q) for t in range(len(sectors))]
                    start = [a + pi * b for a, b in zip(unit, _scatter(inversion, unit))]
                    expected = [0] * len(sectors)
                    for chi, g in zip(chis, actions):
                        expected = [a + chi * b for a, b in zip(expected, _scatter(g, start))]
                    assert column == expected


class TestProjectorRanks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_systems_full_sweep(self, n):
        for parity in ("even", "odd"):
            reduction = snippet_reduction(n, parity)
            for p in partitions_of(n):
                for pi in (1, -1):
                    rank = explicit_isotypic_rank(n, parity, p, pi)
                    assert rank == reduction[(p, pi)] * irrep_dimension(p)

    def test_five_particle_spot_checks(self):
        reduction = snippet_reduction(5, "even")
        for parts, pi in [((3, 1, 1), -1), ((2, 2, 1), 1), ((5,), 1)]:
            p = Partition(parts)
            rank = explicit_isotypic_rank(5, "even", p, pi)
            assert rank == reduction[(p, pi)] * irrep_dimension(p)


def _forty_two():
    """The n = 6 ``[42]+ even`` chain basis: multiplicity 3, dimension 9."""
    return snippet_projection_basis(6, "even", Partition((4, 2)), 1)


def _relabel(vectors, labels):
    return [SectorVector(v.n, v.amps, v.norm_sq, label) for v, label in zip(vectors, labels)]


def _swapped_j(vectors):
    """Lines j = 1 and j = 2 trade the labels of their first vectors."""
    labels = [v.label for v in vectors]
    labels[0], labels[1] = labels[1], labels[0]
    return _relabel(vectors, labels)


def _swapped_tau(vectors):
    """Copies 0 and 1 of line j = 1 (positions 0 and 9) trade places, labels kept."""
    out = list(vectors)
    out[0], out[9] = _relabel([vectors[9], vectors[0]], [vectors[0].label, vectors[9].label])
    return out


def _rotated_line(vectors):
    """Copies 0 and 1 of line j = 1 replaced by another orthogonal basis of their span."""
    a, b = vectors[0].amps, vectors[9].amps
    na, nb = vectors[0].norm_sq, vectors[9].norm_sq
    first = primitive([nb * x + na * y for x, y in zip(a, b)])
    second = primitive([x - y for x, y in zip(a, b)])
    out = list(vectors)
    for pos, amps in ((0, first), (9, second)):
        out[pos] = SectorVector(6, amps, dot(amps, amps), vectors[pos].label)
    return out


def _negated(vectors):
    v = vectors[3]
    return [*vectors[:3], SectorVector(6, tuple(-a for a in v.amps), v.norm_sq, v.label), *vectors[4:]]


def _other_irrep(vectors):
    """The conjugate block ``[2^21^2]+ even`` (six copies) labelled as copies of ``[42]``."""
    other = snippet_projection_basis(6, "even", Partition((2, 2, 1, 1)), 1)
    p = vectors[0].label.p
    return _relabel(other, [SnippetIrrepLabel(p, 1, v.label.tau, v.label.j) for v in other])


CORRUPTIONS = [_swapped_j, _swapped_tau, _rotated_line, _negated, _other_irrep]


class TestVerifySectorBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_basis_passes_on_both_paths(self, n):
        patterns = [*patterns_for(n, BOSE), *patterns_for(n, FERMI), distinguishable_pattern(n)]
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    for pattern in [None, *patterns]:
                        vectors = snippet_projection_basis(n, parity, p, pi, component=pattern)
                        verify_sector_basis(n, parity, p, pi, vectors, pattern)

    def test_rejects_a_vector_outside_the_block(self):
        vectors = snippet_projection_basis(3, "even", Partition((2, 1)), 1)
        stray = SectorVector(3, (1, 0, 0, 0, 0, 0), 1)
        for bad in ([stray], vectors[:1]):
            with pytest.raises(ConsistencyError, match="invariant"):
                verify_sector_basis(3, "even", Partition((2, 1)), 1, bad)

    def test_rejects_a_wrong_component_sign(self):
        pattern = patterns_for(4, FERMI)[2]
        vectors = snippet_projection_basis(4, "even", Partition((2, 2)), 1, component=pattern)
        assert vectors
        verify_sector_basis(4, "even", Partition((2, 2)), 1, vectors, pattern)
        with pytest.raises(ConsistencyError, match="eigenvector"):
            verify_sector_basis(4, "even", Partition((2, 2)), -1, vectors, pattern)
        with pytest.raises(ConsistencyError, match="eigenvector"):
            verify_sector_basis(4, "even", Partition((2, 2)), 1, vectors, patterns_for(4, BOSE)[2])

    @pytest.mark.parametrize(
        "n,parts,parity",
        [(3, (2, 1), "even"), (4, (3, 1), "odd"), (5, (3, 1, 1), "even"), (6, (4, 2), "even")],
    )
    def test_rejects_a_chain_basis_of_the_wrong_parity(self, n, parts, parity):
        vectors = snippet_projection_basis(n, parity, Partition(parts), 1)
        assert vectors and vectors[0].label is not None
        verify_sector_basis(n, parity, Partition(parts), 1, vectors)
        with pytest.raises(ConsistencyError, match=r"eigenvector of inversion \(-1\)"):
            verify_sector_basis(n, parity, Partition(parts), -1, vectors)

    def test_rejects_a_zero_vector_on_both_paths(self):
        zero = SectorVector(2, (0, 0), 0)
        (bose,) = patterns_for(2, BOSE)
        for component in (None, bose):
            with pytest.raises(ConsistencyError, match="zero vector"):
                verify_sector_basis(2, "even", Partition((2,)), 1, [zero], component)

    def test_integer_bessel_rejects_a_dropped_vector_among_unequal_norms(self):
        vectors = snippet_projection_basis(5, "even", Partition((3, 2)), 1)
        assert len({v.norm_sq for v in vectors}) > 1
        verify_sector_basis(5, "even", Partition((3, 2)), 1, vectors)
        for k in range(len(vectors)):
            with pytest.raises(ConsistencyError, match="invariant"):
                verify_sector_basis(5, "even", Partition((3, 2)), 1, vectors[:k] + vectors[k + 1 :])

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
    def test_rejects_a_corrupted_six_particle_basis(self, corrupt):
        vectors = _forty_two()
        verify_sector_basis(6, "even", Partition((4, 2)), 1, vectors)
        bad = corrupt(vectors)
        assert bad != vectors
        with pytest.raises(ConsistencyError):
            verify_sector_basis(6, "even", Partition((4, 2)), 1, bad)

    def test_rejects_a_component_basis_missing_a_vector(self):
        p, pattern = Partition((4, 2)), ComponentPattern((2, 2, 1, 1), FERMI)
        vectors = snippet_projection_basis(6, "even", p, 1, component=pattern)
        assert len(vectors) == 3
        verify_sector_basis(6, "even", p, 1, vectors, pattern)
        for k in range(3):
            with pytest.raises(ConsistencyError, match="holds 3"):
                verify_sector_basis(6, "even", p, 1, vectors[:k] + vectors[k + 1 :], pattern)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_content_sums_separate_the_partitions(self, n):
        sums = [_content_sums(p) for p in partitions_of(n)]
        assert len(set(sums)) == len(sums)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_own_multiplicity_matches_the_reduction(self, n):
        for parity in ("even", "odd"):
            sign = _inversion_sign(n, parity)
            reduction = snippet_reduction(n, parity)
            for p, pi in reduction.keys:
                assert _sector_multiplicity(n, sign, p, pi) == reduction[(p, pi)]

    def test_rejects_overlap_and_wrong_norm(self):
        a = SectorVector(2, (1, 1), 2)
        with pytest.raises(ConsistencyError, match="orthogonal"):
            verify_sector_basis(2, "even", Partition((2,)), 1, [a, SectorVector(2, (1, 0), 1)])
        with pytest.raises(ConsistencyError, match="norm"):
            verify_sector_basis(2, "even", Partition((2,)), 1, [SectorVector(2, (1, 1), 3)])


def _all_patterns(n):
    return [*patterns_for(n, BOSE), *patterns_for(n, FERMI), distinguishable_pattern(n)]


class TestSubgroupChainBasis:
    """The Jucys-Murphy route against subgroup sums over explicit matrices."""

    @pytest.mark.parametrize("n", range(2, CHAIN_N_LIMIT + 1))
    def test_chain_path_matches(self, n):
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    expected = subgroup_chain_basis(n, parity, p, pi)
                    assert snippet_projection_basis(n, parity, p, pi) == expected
                    verify_sector_basis(n, parity, p, pi, expected)

    @pytest.mark.parametrize(
        "n,pattern",
        [(n, pattern) for n in range(2, CHAIN_N_LIMIT + 1) for pattern in _all_patterns(n)],
        ids=str,
    )
    def test_component_path_matches(self, n, pattern):
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    expected = subgroup_chain_basis(n, parity, p, pi, pattern)
                    assert snippet_projection_basis(n, parity, p, pi, pattern) == expected
                    verify_sector_basis(n, parity, p, pi, expected, pattern)

    def test_guard(self):
        with pytest.raises(ValueError):
            subgroup_chain_basis(CHAIN_N_LIMIT + 1, "even", Partition((6,)), -1)
