import pytest
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

from symtrap import ConsistencyError
from symtrap.branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    all_patterns,
    branch_multiplicity,
    patterns_for,
)
from symtrap.characters import character_table_snz2, reduce_class_function
from symtrap.linalg import dot, primitive
from symtrap.mapping import G_INF
from symtrap.oracle import verify_sector_basis
from symtrap.oscillator import antisymmetric_multiplicity
from symtrap.partitions import (
    MultiplicityVector,
    Partition,
    irrep_dimension,
    parse_parity_irrep,
    partitions_of,
)
from symtrap.snippet import (
    _contents,
    _index_tables,
    _inversion_sign,
    _right_reindex,
    _standard_chains,
    _stepped_column,
    all_sectors,
    reversal_cycle_type,
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)

from cli_runner import run
from reference_routes import (
    _sector_action,
    candidates,
    chain_column,
    eliminated_component_basis,
    enumerate_levels,
    per_line_chain_basis,
)
from reference_data import (
    N3_SECTOR_REDUCTION,
    N4_SECTOR_REDUCTION,
    N5_SECTOR_REDUCTION,
    S3Z2_SECTOR_ROWS,
    S4Z2_SECTOR_ROWS,
)


def perm_sign(perm):
    n = len(perm)
    seen = [False] * (n + 1)
    sign = 1
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestSectorCharacters:
    def test_reversal_cycle_types(self):
        assert reversal_cycle_type(4).parts == (2, 2)
        assert reversal_cycle_type(3).parts == (2, 1)
        assert reversal_cycle_type(5).parts == (2, 2, 1)

    def test_table_rows_for_three(self):
        table = character_table_snz2(3)
        for parity, row in S3Z2_SECTOR_ROWS.items():
            assert sector_rep_characters(3, parity).values == row

    def test_table_rows_for_four(self):
        for parity, row in S4Z2_SECTOR_ROWS.items():
            assert sector_rep_characters(4, parity).values == row

    def test_identity_carries_full_dimension(self):
        for n in range(2, 7):
            assert sector_rep_characters(n, "even").values[0] == factorial(n)

    def test_pure_permutations_traceless(self):
        table = character_table_snz2(5)
        values = sector_rep_characters(5, "odd").values
        for (cycle_type, inverted), value in zip(table.classes, values):
            if not inverted and cycle_type.parts != (1,) * 5:
                assert value == 0

    def test_inverted_support_only_on_reversal(self):
        for n in range(2, 7):
            table = character_table_snz2(n)
            rev = reversal_cycle_type(n)
            for parity in ("even", "odd"):
                values = sector_rep_characters(n, parity).values
                for (cycle_type, inverted), value in zip(table.classes, values):
                    if inverted and cycle_type != rev:
                        assert value == 0

    def test_parity_flip_negates_inverted_half(self):
        for n in range(2, 7):
            even = sector_rep_characters(n, "even").values
            odd = sector_rep_characters(n, "odd").values
            half = len(even) // 2
            assert even[:half] == odd[:half]
            assert even[half:] == tuple(-v for v in odd[half:])

    def test_invalid_parity(self):
        with pytest.raises(ValueError):
            sector_rep_characters(3, "sideways")


class TestSnippetReduction:
    @pytest.mark.parametrize(
        "table,n",
        [(N3_SECTOR_REDUCTION, 3), (N4_SECTOR_REDUCTION, 4), (N5_SECTOR_REDUCTION, 5)],
    )
    def test_reference_tables(self, table, n):
        even = snippet_reduction(n, "even")
        odd = snippet_reduction(n, "odd")
        for (parts, pi), (e, o) in table.items():
            key = (Partition(parts), pi)
            assert (even[key], odd[key]) == (e, o)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_is_the_character_reduction(self, n):
        for parity in ("even", "odd"):
            reduced = reduce_class_function(sector_rep_characters(n, parity), character_table_snz2(n))
            assert snippet_reduction(n, parity) == reduced

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fills_sector_space(self, n):
        for parity in ("even", "odd"):
            assert snippet_reduction(n, parity).total_dimension() == factorial(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_parity_swap_identity(self, n):
        even = snippet_reduction(n, "even")
        odd = snippet_reduction(n, "odd")
        for p in partitions_of(n):
            for pi in (1, -1):
                assert even[(p, pi)] == odd[(p, -pi)]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_parities_sum_to_dimension(self, n):
        even = snippet_reduction(n, "even")
        odd = snippet_reduction(n, "odd")
        for p in partitions_of(n):
            assert even[(p, 1)] + odd[(p, 1)] == irrep_dimension(p)


class TestProjectionBasis:
    def test_alternating_vector_for_four(self):
        vectors = snippet_projection_basis(4, "even", Partition((1, 1, 1, 1)), 1)
        assert len(vectors) == 1
        vec = vectors[0]
        assert vec.norm_sq == 24
        reference = vec.amps[0]
        for sector, amp in zip(all_sectors(4), vec.amps):
            assert amp == perm_sign(sector) * reference

    def test_two_sector_symmetrization(self):
        vectors = snippet_projection_basis(2, "even", Partition((2,)), -1)
        assert len(vectors) == 1
        assert vectors[0].amps == (1, 1)
        assert vectors[0].norm_sq == 2

    def test_zero_multiplicity_gives_empty(self):
        assert snippet_projection_basis(4, "odd", Partition((1, 1, 1, 1)), 1) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_bases_orthogonal_and_complete(self, n):
        for parity in ("even", "odd"):
            reduction = snippet_reduction(n, parity)
            for p in partitions_of(n):
                for pi in (1, -1):
                    vectors = snippet_projection_basis(n, parity, p, pi)
                    assert len(vectors) == reduction[(p, pi)] * irrep_dimension(p)
                    for a, b in combinations(vectors, 2):
                        assert dot(a.amps, b.amps) == 0
                    for v in vectors:
                        assert dot(v.amps, v.amps) == v.norm_sq

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_invariance_every_element(self, n):
        """Applying any group element keeps each isotypic block inside itself."""
        sign = {"even": _inversion_sign(n, "even"), "odd": _inversion_sign(n, "odd")}
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    vectors = snippet_projection_basis(n, parity, p, pi)
                    if not vectors:
                        continue
                    basis = [v.amps for v in vectors]
                    for c in all_sectors(n):
                        for inverted in (0, 1):
                            for v in basis:
                                moved = _sector_action(n, c, inverted, sign[parity]).apply(list(v))
                                _assert_in_span(moved, basis)

    def test_group_invariance_generators_for_five(self):
        sign = _inversion_sign(5, "even")
        generators = [(2, 1, 3, 4, 5), (1, 3, 2, 4, 5), (1, 2, 4, 3, 5), (1, 2, 3, 5, 4)]
        vectors = snippet_projection_basis(5, "even", Partition((3, 1, 1)), -1)
        basis = [v.amps for v in vectors]
        for c in generators:
            for v in basis[:6]:
                _assert_in_span(_sector_action(5, c, 0, sign).apply(list(v)), basis)
        _assert_in_span(_sector_action(5, (1, 2, 3, 4, 5), 1, sign).apply(list(basis[0])), basis)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inversion_acts_with_irrep_parity(self, n):
        for parity in ("even", "odd"):
            sign = _inversion_sign(n, parity)
            identity = tuple(range(1, n + 1))
            for p in partitions_of(n):
                for pi in (1, -1):
                    for v in snippet_projection_basis(n, parity, p, pi):
                        moved = _sector_action(n, identity, 1, sign).apply(list(v.amps))
                        assert moved == [pi * a for a in v.amps]

    def test_component_pair_for_two_plus_two(self):
        pattern = ComponentPattern((2, 2), FERMI)
        vectors = snippet_projection_basis(4, "even", Partition((2, 2)), 1, component=pattern)
        assert len(vectors) == 2
        assert dot(vectors[0].amps, vectors[1].amps) == 0
        multisets = [Counter(v.amps) for v in vectors]
        assert multisets[0] == Counter({2: 4, -2: 4, 1: 8, -1: 8})
        assert multisets[1] == Counter({1: 8, -1: 8, 0: 8})
        # the in-component exchanges act as -1 on both vectors
        for swap in [(2, 1, 3, 4), (1, 2, 4, 3)]:
            for v in vectors:
                moved = _sector_action(4, swap, 0, 1).apply(list(v.amps))
                assert moved == [-a for a in v.amps]

    def test_component_pair_for_three_plus_one(self):
        pattern = ComponentPattern((3, 1), FERMI)
        vectors = snippet_projection_basis(4, "even", Partition((2, 1, 1)), -1, component=pattern)
        assert len(vectors) == 2
        assert dot(vectors[0].amps, vectors[1].amps) == 0
        for v in vectors:
            assert Counter(v.amps) == Counter({1: 6, -1: 6, 0: 12})

    def test_component_zero_branching_gives_empty(self):
        pattern = ComponentPattern((4,), FERMI)
        assert (
            snippet_projection_basis(4, "even", Partition((2, 2)), 1, component=pattern) == []
        )

    def test_labels_count_copies_and_components(self):
        vectors = snippet_projection_basis(4, "even", Partition((2, 2)), 1)
        labels = [(v.label.tau, v.label.j) for v in vectors]
        assert labels == [(0, 1), (0, 2), (1, 1), (1, 2)]

    @pytest.mark.parametrize("pi", [1, -1])
    def test_largest_six_particle_block(self, pi):
        """[321]: 8 copies of 16 components, each a Jucys-Murphy eigenvector."""
        p = Partition((3, 2, 1))
        vectors = snippet_projection_basis(6, "even", p, pi)
        assert len(vectors) == 128
        labels = [(v.label.p, v.label.pi, v.label.tau, v.label.j) for v in vectors]
        assert labels == [(p, pi, tau, j) for tau in range(8) for j in range(1, 17)]
        amps = [v.amps for v in vectors]
        for i, a in enumerate(amps):
            assert dot(a, a) == vectors[i].norm_sq
            for b in amps[i + 1 :]:
                assert dot(a, b) == 0
        sign = _inversion_sign(6, "even")
        tableaux = _standard_chains(p.parts)
        for v in vectors[:16]:
            chain = tableaux[v.label.j - 1]
            for k in range(2, 7):
                larger, smaller = chain[6 - k], (*chain[7 - k], 0)
                row = next(i for i, part in enumerate(larger) if part != smaller[i])
                image = [0] * 720
                for i in range(1, k):
                    swap = list(range(1, 7))
                    swap[i - 1], swap[k - 1] = k, i
                    moved = _sector_action(6, tuple(swap), 0, sign).apply(v.amps)
                    image = [a + b for a, b in zip(image, moved)]
                assert image == [(smaller[row] - row) * a for a in v.amps]


    @pytest.mark.parametrize(
        "parts,pi,parity,pattern",
        [
            ((3, 2, 1), 1, "even", ComponentPattern((2, 2, 2), FERMI)),
            ((4, 2), 1, "even", ComponentPattern((2, 2, 1, 1), BOSE)),
            ((3, 3), 1, "even", ComponentPattern((3, 3), BOSE)),
            ((5, 1), -1, "odd", ComponentPattern((2, 1, 1, 1, 1), FERMI)),
        ],
        ids=["321+ even 1^2x1^2x1^2", "42+ even 2x2", "3^2+ even 3x3", "51- odd 1^2"],
    )
    def test_six_particle_component_bases(self, parts, pi, parity, pattern):
        p = Partition(parts)
        expected = snippet_reduction(6, parity)[(p, pi)] * branch_multiplicity(p, pattern)
        assert expected > 0
        vectors = snippet_projection_basis(6, parity, p, pi, component=pattern)
        assert len(vectors) == expected
        verify_sector_basis(6, parity, p, pi, vectors, pattern)

    def test_component_rank_guard(self, monkeypatch):
        """One copy more than the sector space holds cannot be found."""
        from symtrap import snippet

        real = snippet.snippet_reduction

        def one_extra(n, lambda_parity):
            counts = real(n, lambda_parity)
            return MultiplicityVector(counts.keys, tuple(c + 1 for c in counts.counts))

        monkeypatch.setattr(snippet, "snippet_reduction", one_extra)
        pattern = ComponentPattern((2, 2), FERMI)
        with pytest.raises(ConsistencyError, match="component projection of .* unexpected rank"):
            snippet_projection_basis(4, "even", Partition((2, 2)), 1, component=pattern)


def _first_nonzero(v):
    return next(i for i, a in enumerate(v) if a)


def _enlarging(candidates, basis):
    """Index of each candidate outside the span of the ones before it, read
    off the orthogonal ``basis`` of that span by the Bessel equality."""
    kept = []
    for i, c in enumerate(candidates):
        if len(kept) == len(basis):
            break
        earlier = basis[: len(kept)]
        if sum(Fraction(dot(b, c) ** 2, dot(b, b)) for b in earlier) != dot(c, c):
            kept.append(i)
    return kept


class TestBlockOrder:
    """A block comes out of its selection already in sector order: each
    kept vector's first nonzero entry is at the sector whose candidate
    produced it, on the root line, on every stepped line and on every
    component block."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """``(producing sectors, first nonzero sectors)`` of every block
        that ``_block`` builds; the producers are read off the explicit
        candidates by the Bessel equality."""
        from symtrap import snippet

        real = snippet._block
        seen = []

        def recording(n, w, sign, limit, what):
            basis = real(n, w, sign, limit, what)
            producers = _enlarging(candidates(n, w, sign), basis)
            seen.append((producers, [_first_nonzero(v) for v in basis]))
            return basis

        monkeypatch.setattr(snippet, "_block", recording)
        return seen

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_small_block(self, blocks, n):
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    for pattern in [None, *all_patterns(n)]:
                        snippet_projection_basis(n, parity, p, pi, component=pattern)
        assert blocks
        for producers, firsts in blocks:
            assert firsts == producers

    def test_largest_six_particle_block(self, blocks):
        """[321]+ even: the root line and 15 stepped lines of 8 vectors,
        and the component blocks of up to 32 (the 64- and 128-vector ones
        would add several seconds)."""
        p = Partition((3, 2, 1))
        patterns = [*patterns_for(6, BOSE), *patterns_for(6, FERMI)]
        for pattern in [None, *(c for c in patterns if branch_multiplicity(p, c) <= 4)]:
            snippet_projection_basis(6, "even", p, 1, component=pattern)
        assert len(blocks) == 16 + 8
        for producers, firsts in blocks:
            assert firsts == producers


class TestSeminormalLines:
    """Chain lines after the first take their filter column from a
    neighbouring line's by one seminormal step, and are the bytes of the
    line built and eliminated on its own: every n = 6 block, one case each."""

    @pytest.mark.parametrize(
        "irrep, parity",
        [
            (f"{p.compact()}{s}", parity)
            for p in partitions_of(6)
            for s in "+-"
            for parity in ("even", "odd")
        ],
    )
    def test_six_particle_block_matches_the_per_line_route(self, irrep, parity):
        p, pi = parse_parity_irrep(irrep)
        got = snippet_projection_basis(6, parity, p, pi)
        assert len(got) == snippet_reduction(6, parity)[(p, pi)] * irrep_dimension(p)
        assert got == per_line_chain_basis(6, parity, p, pi)

    @pytest.fixture
    def skewed(self, monkeypatch):
        """Every stepped line column shifted by the all-ones vector, so that
        it is no longer the column of an element that squares to a multiple
        of itself and its Gram lookups are wrong."""
        from symtrap import snippet

        real = snippet._stepped_column
        monkeypatch.setattr(snippet, "_stepped_column", lambda *a: [b + 1 for b in real(*a)])

    def test_corrupted_line_column_raises(self, skewed):
        message = "the chain component of \\[42\\] is not orthogonal"
        with pytest.raises(ConsistencyError, match=message):
            snippet_projection_basis(6, "even", Partition((4, 2)), 1)

    def test_corrupted_line_column_exits_three(self, skewed):
        result = run("sector-basis", "--n", "5", "--irrep", "32+", "--lambda-parity", "even")
        assert result.exit_code == 3
        assert "not orthogonal" in result.stderr
        assert not result.stdout


def _columns_of_every_block(n, monkeypatch):
    """``(w, sign)`` of every distinct column ``_block`` is given while every
    chain and component block of ``n`` particles is built."""
    from symtrap import snippet

    real = snippet._block
    seen = {}

    def recording(n, w, sign, limit, what):
        seen[(tuple(w), sign)] = None
        return real(n, w, sign, limit, what)

    monkeypatch.setattr(snippet, "_block", recording)
    for parity in ("even", "odd"):
        for p in partitions_of(n):
            for pi in (1, -1):
                for pattern in [None, *all_patterns(n)]:
                    snippet_projection_basis(n, parity, p, pi, component=pattern)
    monkeypatch.undo()
    return list(seen)


def _compose(a, b):
    """The sector ``a . b``: ``b`` relabelled by ``a``."""
    return tuple(a[x - 1] for x in b)


def _inverse(a):
    return tuple(sorted(range(1, len(a) + 1), key=lambda x: a[x - 1]))


class TestGramEntries:
    """``<c_q, c_r> = 2 kappa (w[q r^-1] + s w[q w0 r^-1])`` with
    ``kappa = |w|^2 / w[id]``, against explicit dot products of the built
    candidates, for every column the package builds a block from."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_root_line_and_component_column(self, n, monkeypatch):
        sectors = all_sectors(n)
        rank = {q: i for i, q in enumerate(sectors)}
        w0 = sectors[-1]
        # Index pairs (q r^-1, q w0 r^-1) for r <= q; the Gram matrix is symmetric.
        lookups = [
            [
                (rank[_compose(q, _inverse(r))], rank[_compose(_compose(q, w0), _inverse(r))])
                for r in sectors[: i + 1]
            ]
            for i, q in enumerate(sectors)
        ]
        columns = _columns_of_every_block(n, monkeypatch)
        assert columns
        for w, sign in columns:
            # Many candidates repeat; each distinct pair is dotted once.
            built = list(map(tuple, candidates(n, w, sign)))
            distinct = {c: i for i, c in enumerate(dict.fromkeys(built))}
            dots = [[dot(a, b) * w[0] for b in distinct] for a in distinct]
            index = [distinct[c] for c in built]
            scale = 2 * dot(w, w)
            for i, pairs in enumerate(lookups):
                row = dots[index[i]]
                gram = [row[j] for j in index[: i + 1]]
                assert gram == [scale * (w[a] + sign * w[b]) for a, b in pairs]


class TestSteppedColumns:
    """The column of ``s T`` stepped from that of ``T`` is proportional to
    the filter of ``s T``'s own Jucys-Murphy factors applied at the identity
    sector, on every admissible step."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_admissible_step(self, n):
        steps = 0
        for p in partitions_of(n):
            chains = _standard_chains(p.parts)
            columns = [primitive(chain_column(n, chain)) for chain in chains]
            position = {_contents(chain): j for j, chain in enumerate(chains)}
            for chain, w in zip(chains, columns):
                c = _contents(chain)
                for k in range(1, n):
                    r = c[k] - c[k - 1]
                    if abs(r) < 2:
                        continue
                    t = position[(*c[: k - 1], c[k], c[k - 1], *c[k + 1 :])]
                    assert _stepped_column(n, w, r, k) == columns[t]
                    steps += 1
        assert steps == {2: 0, 3: 2, 4: 10, 5: 44, 6: 176}[n]


class TestExplicitElimination:
    """Every block is the bytes of building every candidate and eliminating
    them, each chain line from its own filter (n = 6 in ``TestSeminormalLines``)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_chain_block(self, n):
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    expected = per_line_chain_basis(n, parity, p, pi)
                    assert snippet_projection_basis(n, parity, p, pi) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_component_block(self, n):
        for parity in ("even", "odd"):
            for p in partitions_of(n):
                for pi in (1, -1):
                    for pattern in all_patterns(n):
                        expected = eliminated_component_basis(n, parity, p, pi, pattern)
                        got = snippet_projection_basis(n, parity, p, pi, component=pattern)
                        assert got == expected


class TestRightReindex:
    """R_q: e_h -> e_{h q} is fixed by R_q e_id = e_q and by commuting with S_n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_moves_identity_and_commutes_with_left_action(self, n):
        size = factorial(n)
        unit = [1] + [0] * (size - 1)
        v = [(7 * j * j + 3 * j) % 11 - 5 for j in range(size)]
        moves = [move for row in _index_tables(n)[0].values() for move in row]
        for q, sector in enumerate(all_sectors(n)):
            assert list(_right_reindex(n, sector, unit)) == [int(j == q) for j in range(size)]
            moved = _right_reindex(n, sector, v)
            for move in moves:
                assert list(_right_reindex(n, sector, move(v))) == list(move(moved))


def _assert_in_span(vector, basis):
    residual = [Fraction(a) for a in vector]
    for b in basis:
        coeff = Fraction(dot(b, residual), dot(b, b))
        if coeff:
            residual = [r - coeff * x for r, x in zip(residual, b)]
    assert not any(residual)


class TestEnumerateLevelsGinf:
    def test_three_particles_lowest(self):
        levels = list(enumerate_levels(3, G_INF, 3))
        assert len(levels) == 1
        label, content = levels[0]
        assert (label.nu_r, label.nu_rho, label.lam) == (0, 0, 3)
        assert antisymmetric_multiplicity(3, label.lam) == 1
        odd = snippet_reduction(3, "odd")
        assert content.counts == odd.counts

    def test_lowest_levels_by_particle_number(self):
        assert [(l.nu_r, l.nu_rho, l.lam) for l, _ in enumerate_levels(4, G_INF, 6)] == [
            (0, 0, 6)
        ]
        assert [(l.nu_r, l.nu_rho, l.lam) for l, _ in enumerate_levels(5, G_INF, 10)] == [
            (0, 0, 10)
        ]

    def test_dimension_bookkeeping(self):
        for label, content in enumerate_levels(4, G_INF, 10):
            seeds = antisymmetric_multiplicity(4, label.lam)
            assert seeds
            assert content.total_dimension() == seeds * factorial(4)
            parity = "even" if label.lam % 2 == 0 else "odd"
            assert content == snippet_reduction(4, parity).scaled(seeds)
