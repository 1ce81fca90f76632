"""Property tests: multiplicity arithmetic, reduction identities, level bookkeeping."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from symtrap.mapping import G_INF, G_ZERO, enumerate_levels, level_content
from symtrap.oscillator import (
    antisymmetric_multiplicity,
    hyperangular_dimension,
    lambda_reduction,
    shell_dimension,
)
from symtrap.partitions import MultiplicityVector, partitions_of
from symtrap.snippet import snippet_reduction

#: Deterministic draws and no example database, so every run checks the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None)

particles = st.integers(min_value=3, max_value=8)
counts = st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=5)
KEYS = partitions_of(4)


def _vector(values) -> MultiplicityVector:
    return MultiplicityVector(KEYS, tuple(values))


class TestMultiplicityArithmetic:
    @PROPERTY
    @given(counts, counts)
    def test_add_and_subtract_are_pointwise(self, a, b):
        u, v = _vector(a), _vector(b)
        assert (u + v).counts == tuple(x + y for x, y in zip(a, b))
        assert (u - v).counts == tuple(x - y for x, y in zip(a, b))
        assert (u + v) - v == u
        assert (u + v).keys == KEYS

    @PROPERTY
    @given(counts, st.integers(min_value=-9, max_value=9))
    def test_scaled_is_repeated_addition(self, a, factor):
        u = _vector(a)
        total = u.scaled(0)
        for _ in range(abs(factor)):
            total = total + u if factor > 0 else total - u
        assert u.scaled(factor) == total
        assert u.scaled(factor).total_dimension() == factor * u.total_dimension()

    @PROPERTY
    @given(counts)
    def test_mismatched_keys_raise(self, a):
        u = _vector(a)
        other = MultiplicityVector(partitions_of(5)[:5], tuple(a))
        reordered = MultiplicityVector(tuple(reversed(KEYS)), tuple(a))
        for w in (other, reordered):
            with pytest.raises(ValueError):
                u + w
            with pytest.raises(ValueError):
                u - w


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
