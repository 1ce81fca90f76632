"""Property tests: multiplicity arithmetic, reduction identities, level
bookkeeping, and the theorems that tie the free and hard-core limits."""

from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from symtrap import mapping
from symtrap.mapping import G_INF, G_ZERO, StateLabel, adiabatic_map, level_content
from symtrap.oscillator import (
    HypercylindricalLabel,
    antisymmetric_multiplicity,
    hyperangular_dimension,
    lambda_reduction,
    shell_dimension,
)
from symtrap.partitions import MultiplicityVector, irrep_dimension, parity_irreps, partitions_of
from symtrap.snippet import snippet_reduction

from reference_routes import enumerate_levels

#: Deterministic draws and no example database, so every run checks the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None)

particles = st.integers(min_value=3, max_value=8)
counts = st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=5)
KEYS = partitions_of(4)


def _vector(values) -> MultiplicityVector:
    return MultiplicityVector(KEYS, tuple(values))


class TestMultiplicityArithmetic:
    @PROPERTY
    @given(counts, st.integers(min_value=-9, max_value=9))
    def test_scaled_is_repeated_addition(self, a, factor):
        u = _vector(a)
        total = (0,) * len(KEYS)
        for _ in range(abs(factor)):
            total = tuple(t + (x if factor > 0 else -x) for t, x in zip(total, a))
        assert u.scaled(factor) == _vector(total)
        assert u.scaled(factor).keys == KEYS
        assert u.scaled(factor).total_dimension() == factor * u.total_dimension()

    @PROPERTY
    @given(counts, st.integers(min_value=-9, max_value=9))
    def test_mismatched_keys_raise(self, a, default):
        u = _vector(a)
        assert [u[key] for key in KEYS] == list(a)
        for key in partitions_of(5):
            with pytest.raises(ValueError):
                u[key]
            assert u.get(key, default) == default


class TestReductionIdentities:
    @PROPERTY
    @given(particles, st.integers(min_value=0, max_value=40))
    def test_lambda_dimension_sum(self, n, lam):
        assert lambda_reduction(n, lam).total_dimension() == hyperangular_dimension(n, lam)

    @PROPERTY
    @given(st.integers(min_value=2, max_value=8))
    def test_parity_swap(self, n):
        even, odd = snippet_reduction(n, "even"), snippet_reduction(n, "odd")
        for p, pi in even.keys:
            assert even[(p, pi)] == odd[(p, -pi)]

    @PROPERTY
    @given(particles, st.integers(min_value=0, max_value=40))
    def test_free_content_sits_at_the_parity_of_lambda(self, n, lam):
        content = level_content(n, G_ZERO, lam)
        pi = 1 if lam % 2 == 0 else -1
        shapes = partitions_of(n)
        assert tuple(content[(p, pi)] for p in shapes) == lambda_reduction(n, lam).counts
        assert not any(content[(p, -pi)] for p in shapes)

    @PROPERTY
    @given(particles, st.integers(min_value=0, max_value=40))
    def test_both_limits_share_keys(self, n, lam):
        free, hard = level_content(n, G_ZERO, lam), level_content(n, G_INF, lam)
        assert free.keys == hard.keys == snippet_reduction(n, "even").keys


class TestLevelBookkeeping:
    @settings(PROPERTY, max_examples=25)
    @given(particles, st.integers(min_value=0, max_value=14))
    def test_free_shells_fill_the_shell(self, n, e_max):
        by_shell = dict.fromkeys(range(e_max + 1), 0)
        for label, content in enumerate_levels(n, G_ZERO, e_max):
            by_shell[label.excitation] += content.total_dimension()
        assert by_shell == {x: shell_dimension(n, x) for x in by_shell}

    @settings(PROPERTY, max_examples=25)
    @given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=24))
    def test_hard_core_levels_hold_seeds_times_sectors(self, n, e_max):
        listed = set()
        for label, content in enumerate_levels(n, G_INF, e_max):
            seeds = antisymmetric_multiplicity(n, label.lam)
            assert seeds > 0
            assert content.total_dimension() == seeds * factorial(n)
            listed.add(label)
        seeded = {
            (x - lam - 2 * nu_rho, nu_rho, lam)
            for x in range(e_max + 1)
            for lam in range(x + 1)
            for nu_rho in range((x - lam) // 2 + 1)
            if antisymmetric_multiplicity(n, lam)
        }
        assert {(l.nu_r, l.nu_rho, l.lam) for l in listed} == seeded


def _reach(n: int) -> int:
    """Excitation up to which the two limits are compared."""
    return 80 if n <= 6 else 40


#: Excitation up to which every free level is mapped, at n <= 6.
MAP_REACH = 10


def _cumulative_copies(n: int, regime: str, e_max: int):
    """Per excitation ``x = 0..e_max``, the copies of each S_n x Z2 irrep
    (``parity_irreps`` order) in the relative levels (``nu_R = 0``) up to
    ``x``; the level at ``lam`` recurs at ``x = lam + 2 nu_rho``."""
    by_parity = [[0] * len(parity_irreps(n)) for _ in range(2)]
    total = [0] * len(parity_irreps(n))
    for x in range(e_max + 1):
        at_x = by_parity[x % 2]
        for i, count in enumerate(mapping.level_content(n, regime, x).counts):
            at_x[i] += count
        total = [t + c for t, c in zip(total, at_x)]
        yield total


def dominance_violations(n: int, e_max: int) -> list:
    """``(x, irrep)`` wherever the hard-core copies up to excitation ``x``
    outnumber the free ones.  Hellmann-Feynman, dE/dg = <sum delta(x_i - x_j)>
    >= 0: no level of an irrep falls as the repulsion grows, so the k-th
    hard-core copy lies no lower than the k-th free one."""
    pairs = zip(_cumulative_copies(n, G_ZERO, e_max), _cumulative_copies(n, G_INF, e_max))
    return [
        (x, key)
        for x, (free, hard) in enumerate(pairs)
        for key, f, h in zip(parity_irreps(n), free, hard)
        if h > f
    ]


def girardeau_violations(n: int, lam_max: int) -> list:
    """``lam`` wherever the hard-core level is not n! copies of the free
    fermion level: Girardeau's mapping, one antisymmetric seed per ordering
    sector, so the irrep dimensions times the hard-core copies add up to
    n! times the free ``[1^n]`` copies at the parity of ``lam``."""
    dims = [irrep_dimension(p) for p, _ in parity_irreps(n)]
    fermions = partitions_of(n)[-1]
    return [
        lam
        for lam in range(lam_max + 1)
        if sum(map(mul, dims, mapping.level_content(n, G_INF, lam).counts))
        != factorial(n) * mapping.level_content(n, G_ZERO, lam)[(fermions, 1 if lam % 2 == 0 else -1)]
    ]


def map_violations(n: int, e_max: int) -> list:
    """Every free level up to excitation ``e_max`` whose hard-core image
    lies below it: the map follows levels up as the repulsion grows."""
    out = []
    for lam in range(e_max + 1):
        for (p, _), mult in mapping.level_content(n, G_ZERO, lam).items():
            for tau in range(mult):
                for nu_rho in range((e_max - lam) // 2 + 1):
                    for nu_r in range(e_max - lam - 2 * nu_rho + 1):
                        source = StateLabel(HypercylindricalLabel(nu_r, nu_rho, lam), p, tau)
                        image = adiabatic_map(n, source).target_hyper
                        if image.energy(n) < source.hyper.energy(n):
                            out.append(source)
    return out


class TestTheTwoLimits:
    """The free (g = 0) and hard-core (g = inf) contents obey the two facts
    the map's rule rests on; each check fails once a single hard-core copy
    is moved down a shell."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hard_core_copies_never_outnumber_free_ones(self, n):
        assert dominance_violations(n, _reach(n)) == []

    @pytest.mark.parametrize("n", range(2, 9))
    def test_girardeau_count(self, n):
        assert girardeau_violations(n, _reach(n)) == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_image_lies_at_or_above_its_source(self, n):
        assert map_violations(n, MAP_REACH) == []

    @pytest.mark.parametrize("n", range(2, 6))
    def test_each_check_sees_a_copy_moved_down_a_shell(self, monkeypatch, n):
        """The fermion copy of the lowest hard-core level, at ``lam =
        n(n-1)/2``, reported one ``lam`` lower."""
        lowest = n * (n - 1) // 2
        key = (partitions_of(n)[-1], 1 if lowest % 2 == 0 else -1)
        real = mapping.level_content
        assert real(n, G_INF, lowest)[key] == 1

        def moved(m, regime, lam):
            content = real(m, regime, lam)
            if regime != G_INF or lam not in (lowest - 1, lowest):
                return content
            step = 1 if lam < lowest else -1
            counts = tuple(c + step * (k == key) for k, c in content.items())
            return MultiplicityVector(content.keys, counts)

        monkeypatch.setattr(mapping, "level_content", moved)
        assert dominance_violations(n, _reach(n))[0] == (lowest - 1, key)
        assert girardeau_violations(n, _reach(n)) == [lowest - 1, lowest]
        assert map_violations(n, MAP_REACH)
