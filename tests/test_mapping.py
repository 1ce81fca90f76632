import sys

import pytest
from fractions import Fraction

from symtrap.branching import BOSE, FERMI, ComponentPattern
from symtrap import mapping
from symtrap.mapping import (
    G_INF,
    G_ZERO,
    REGIMES,
    GNLabel,
    MapResult,
    SearchExhaustedError,
    StateLabel,
    adiabatic_map,
    enumerate_levels,
    ground_state,
    spectrum_levels,
)
from symtrap.oscillator import HypercylindricalLabel, antisymmetric_multiplicity
from symtrap.partitions import Partition, parity_irreps


H = HypercylindricalLabel
P = Partition


class TestGNLabel:
    def test_total_parity(self):
        assert GNLabel(0, -1, P((2, 1))).total_parity == -1
        assert GNLabel(1, -1, P((2, 1))).total_parity == 1
        assert GNLabel(2, 1, P((3,))).total_parity == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GNLabel(-1, 1, P((2, 1)))
        with pytest.raises(ValueError):
            GNLabel(0, 0, P((2, 1)))


class TestStateLabel:
    def test_energy_and_parity(self):
        state = StateLabel(H(0, 0, 1), P((2, 1)))
        assert state.hyper.energy(state.n) == Fraction(5, 2)
        assert state.gn_label == GNLabel(0, -1, P((2, 1)))

    def test_hard_core_labels_need_parity(self):
        with pytest.raises(ValueError):
            StateLabel(H(0, 0, 3), P((2, 1)), regime=G_INF)
        ok = StateLabel(H(0, 0, 3), P((2, 1)), pi=-1, regime=G_INF)
        assert ok.relative_parity == -1


class TestSpectrumByIrrep:
    def test_mixed_irrep_lowest_level(self):
        hyper, multiplicity = spectrum_levels(3, G_ZERO, GNLabel(0, -1, P((2, 1))), 8)[0]
        assert hyper.energy(3) == Fraction(5, 2)
        assert (hyper.nu_r, hyper.nu_rho, hyper.lam) == (0, 0, 1)
        assert multiplicity == 1

    def test_hard_core_double_degeneracy(self):
        hyper, multiplicity = spectrum_levels(4, G_INF, GNLabel(0, 1, P((2, 2))), 10)[0]
        assert (hyper.nu_r, hyper.nu_rho, hyper.lam) == (0, 0, 6)
        assert multiplicity == 2

    def test_symmetric_ground_level(self):
        for n in (3, 4, 5):
            hyper, multiplicity = spectrum_levels(n, G_ZERO, GNLabel(0, 1, P((n,))), 4)[0]
            assert (hyper.nu_r, hyper.nu_rho, hyper.lam) == (0, 0, 0)
            assert multiplicity == 1

    def test_sorted_with_tie_break(self):
        entries = spectrum_levels(3, G_ZERO, GNLabel(0, 1, P((3,))), 8)
        energies = [hyper.energy(3) for hyper, _ in entries]
        assert energies == sorted(energies)
        same_energy = [hyper for hyper, _ in entries if hyper.energy(3) == Fraction(15, 2)]
        lams = [hyper.lam for hyper in same_energy]
        assert lams == sorted(lams)

    def test_parity_selects_lambda_parity_at_g0(self):
        entries = spectrum_levels(4, G_ZERO, GNLabel(0, 1, P((3, 1))), 9)
        assert all(hyper.lam % 2 == 0 for hyper, _ in entries)


class TestOneLevelOrder:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_spectrum_is_the_filtered_level_walk(self, n, regime):
        # past n(n-1)/2, the first hard-core level, so both sides list levels
        e_max = n * (n - 1) // 2 + 4
        levels = list(enumerate_levels(n, regime, e_max))
        listed = 0
        for nu_r in (0, 1, 2):
            for p, pi in parity_irreps(n):
                entries = spectrum_levels(n, regime, GNLabel(nu_r, pi, p), e_max)
                expected = [
                    (hyper, content[(p, pi)])
                    for hyper, content in levels
                    if hyper.nu_r == nu_r and content[(p, pi)]
                ]
                assert entries == expected
                keys = [(hyper.energy(n), hyper.lam, hyper.nu_rho) for hyper, _ in entries]
                assert keys == sorted(keys)
                listed += len(entries)
        assert listed


def record_requests(monkeypatch) -> list:
    """Wrap ``mapping.level_content``; the returned list fills with each
    ``(regime, lam)`` requested."""
    requested = []
    content = mapping.level_content

    def recorder(n, regime, lam):
        requested.append((regime, lam))
        return content(n, regime, lam)

    monkeypatch.setattr(mapping, "level_content", recorder)
    return requested


def package_memos() -> list:
    """Every ``lru_cache`` defined in the package, each module imported."""
    import importlib
    import pkgutil

    import symtrap

    names = [f"symtrap.{info.name}" for info in pkgutil.iter_modules(symtrap.__path__)]
    return [
        memo
        for name in names
        for memo in vars(importlib.import_module(name)).values()
        if hasattr(memo, "cache_info") and memo.__module__ == name
    ]


class TestEachWalkReadsALamOnce:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_enumerate_levels(self, monkeypatch, n, regime):
        e_max = n * (n - 1) // 2 + 6
        requested = record_requests(monkeypatch)
        assert list(enumerate_levels(n, regime, e_max))
        assert requested == [(regime, lam) for lam in range(e_max + 1)]

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n,counts", [(3, (2, 1)), (5, (3, 2)), (8, (4, 4))])
    def test_ground_state(self, monkeypatch, n, counts, regime):
        requested = record_requests(monkeypatch)
        assert ground_state(n, ComponentPattern(counts, FERMI), regime)
        assert requested == [(regime, lam) for lam in range(len(requested))]

    def test_a_deep_map_holds_one_memo_entry_per_lam(self):
        """Both walks reach every ``lam`` up to the image; afterwards the
        package's memos hold one entry per such ``lam``, and a few more."""
        memos = package_memos()
        for memo in memos:
            memo.cache_clear()
        result = adiabatic_map(8, StateLabel(H(0, 0, 2000), P((7, 1))))
        walked = result.target_hyper.excitation + 1
        held = sum(memo.cache_info().currsize for memo in memos)
        assert held <= walked + 200, (held, walked)


class TestAdiabaticMap:
    def test_hard_core_search_stops_at_the_image(self, monkeypatch):
        source = StateLabel(H(0, 0, 1), P((2, 1)))
        expected = adiabatic_map(3, source)
        requested = record_requests(monkeypatch)
        assert adiabatic_map(3, source, extra_energy=200) == expected
        assert expected.target_hyper.excitation == 3
        assert max(lam for regime, lam in requested if regime == G_INF) <= 3

    def test_three_particle_mixed_ground(self):
        result = adiabatic_map(3, StateLabel(H(0, 0, 1), P((2, 1)), component="[1^2]"))
        assert (result.target_hyper.nu_r, result.target_hyper.nu_rho, result.target_hyper.lam) == (0, 0, 3)
        assert result.target_pi == -1
        assert result.target_dimension == 1
        assert result.resolved

    @pytest.mark.parametrize("lam", [0, 3, 6])
    @pytest.mark.parametrize("nu_r,nu_rho", [(0, 0), (1, 0), (0, 2)])
    def test_three_particle_symmetric_shift(self, lam, nu_r, nu_rho):
        source = StateLabel(H(nu_r, nu_rho, lam), P((3,)))
        result = adiabatic_map(3, source)
        assert result.target_hyper == H(nu_r, nu_rho, lam + 3)
        assert result.target_pi == (1 if lam % 2 == 0 else -1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_single_component_fermions_fixed(self, n):
        lams = [lam for lam in range(14) if antisymmetric_multiplicity(n, lam)]
        for lam in lams:
            source = StateLabel(H(0, 0, lam), P((1,) * n))
            result = adiabatic_map(n, source)
            assert result.target_hyper == H(0, 0, lam)
            assert result.target_dimension == 1
            assert result.resolved

    def test_four_particle_two_plus_two(self):
        source = StateLabel(H(0, 0, 2), P((2, 2)), component="[1^2]x[1^2]")
        result = adiabatic_map(4, source)
        assert result.target_hyper == H(0, 0, 6)
        assert result.target_pi == 1
        assert result.target_dimension == 2
        assert not result.resolved

    def test_four_particle_three_plus_one(self):
        source = StateLabel(H(0, 0, 3), P((2, 1, 1)), component="[1^3]")
        result = adiabatic_map(4, source)
        assert result.target_hyper == H(0, 0, 6)
        assert result.target_pi == -1
        assert result.target_dimension == 2
        assert not result.resolved

    def test_five_particle_maps(self):
        result = adiabatic_map(5, StateLabel(H(0, 0, 4), P((2, 2, 1))))
        assert result.target_hyper == H(0, 0, 10)
        assert result.target_dimension == 3
        assert not result.resolved
        result = adiabatic_map(5, StateLabel(H(0, 0, 6), P((2, 1, 1, 1))))
        assert result.target_hyper == H(0, 0, 10)
        assert result.target_dimension == 2
        assert not result.resolved

    @pytest.mark.parametrize("n", [3, 4])
    def test_triple_is_preserved(self, n):
        for lam in range(6):
            from symtrap.oscillator import lambda_reduction

            for p, mult in lambda_reduction(n, lam).items():
                for tau in range(mult):
                    source = StateLabel(H(0, 0, lam), p, tau=tau)
                    result = adiabatic_map(n, source)
                    assert result.target_p == p
                    assert result.target_pi == source.gn_label.pi
                    assert result.target_hyper.nu_r == 0
                    assert result.target_hyper.energy(n) >= source.hyper.energy(n)

    def test_rank_monotone_within_triple(self):
        mu = GNLabel(0, 1, P((3, 1)))
        sources = []
        from symtrap.oscillator import lambda_reduction

        for hyper, multiplicity in spectrum_levels(4, G_ZERO, mu, 8):
            for tau in range(multiplicity):
                sources.append(StateLabel(hyper, P((3, 1)), tau=tau))
        targets = [adiabatic_map(4, s) for s in sources]
        energies = [t.target_hyper.energy(4) for t in targets]
        assert energies == sorted(energies)

    def test_validation(self):
        with pytest.raises(ValueError):
            adiabatic_map(3, StateLabel(H(0, 0, 3), P((2, 1)), pi=-1, regime=G_INF))
        with pytest.raises(ValueError):
            adiabatic_map(3, StateLabel(H(0, 0, 0), P((2, 1))))
        with pytest.raises(ValueError):
            adiabatic_map(3, StateLabel(H(0, 0, 1), P((2, 1)), tau=5))

    def test_search_ceiling(self):
        with pytest.raises(SearchExhaustedError):
            adiabatic_map(4, StateLabel(H(0, 0, 2), P((2, 2))), extra_energy=1)

    def test_equal_energy_ties_are_flagged(self):
        # (0,0,9) and (0,3,3) tie at 21/2; both stay fixed and carry the flag
        for hyper in (H(0, 0, 9), H(0, 3, 3)):
            result = adiabatic_map(3, StateLabel(hyper, P((1, 1, 1))))
            assert result.target_hyper == hyper
            assert result.convention_ordered

    def test_untied_map_is_not_flagged(self):
        result = adiabatic_map(3, StateLabel(H(0, 0, 1), P((2, 1))))
        assert not result.convention_ordered


class TestMapAgainstTheSpectra:
    """The map ranks copies in one pass over the walk's running totals; here
    the image is read off the two ``spectrum_levels`` lists copy by copy."""

    @pytest.mark.parametrize("extra", [None, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_image_is_read_off_both_spectra(self, n, extra):
        e_max = 10
        reach = 4 * n if extra is None else extra
        for nu_r in (0, 1):
            for p, pi in parity_irreps(n):
                mu = GNLabel(nu_r, pi, p)
                free = spectrum_levels(n, G_ZERO, mu, e_max)
                hard = spectrum_levels(n, G_INF, mu, e_max + reach)
                hard_copies = [(hyper, mult) for hyper, mult in hard for _ in range(mult)]
                rank = 0
                for hyper, mult in free:
                    ties = sum(other.excitation == hyper.excitation for other, _ in free)
                    within = [c for c in hard_copies if c[0].excitation <= hyper.excitation + reach]
                    for tau in range(mult):
                        source = StateLabel(hyper, p, tau=tau)
                        if rank >= len(within):
                            with pytest.raises(SearchExhaustedError):
                                adiabatic_map(n, source, extra)
                        else:
                            target, dim = within[rank]
                            target_ties = sum(other.excitation == target.excitation for other, _ in hard)
                            expected = MapResult(
                                source, target, p, pi, dim, dim == 1, ties > 1 or target_ties > 1
                            )
                            assert adiabatic_map(n, source, extra) == expected
                        rank += 1

    def test_cost_is_linear_in_the_excitation(self):
        """With every reduction cached, a map twice as deep costs about
        twice as many calls, not four times as many."""

        def state(e):
            return StateLabel(H(0, 0, e), P((7, 1)))

        for e in (1000, 2000):
            adiabatic_map(8, state(e))
        counts = []
        for e in (1000, 2000):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(profile)
            try:
                adiabatic_map(8, state(e))
            finally:
                sys.setprofile(None)
            counts.append(calls)
        assert counts[1] <= 2.5 * counts[0], counts


class TestGroundState:
    def test_four_particle_patterns(self):
        states = ground_state(4, ComponentPattern((2, 2), FERMI))
        assert [str(s) for s in states] == ["|0,0,2; [2^2], tau=0; [1^2]x[1^2]>"]
        states = ground_state(4, ComponentPattern((3, 1), FERMI))
        assert [str(s) for s in states] == ["|0,0,3; [21^2], tau=0; [1^3]x[1]>"]
        states = ground_state(4, ComponentPattern((4,), FERMI))
        assert [str(s) for s in states] == ["|0,0,6; [1^4], tau=0; [1^4]>"]

    def test_five_particle_patterns(self):
        states = ground_state(5, ComponentPattern((3, 2), FERMI))
        assert [str(s) for s in states] == ["|0,0,4; [2^21], tau=0; [1^3]x[1^2]>"]
        states = ground_state(5, ComponentPattern((4, 1), FERMI))
        assert [str(s) for s in states] == ["|0,0,6; [21^3], tau=0; [1^4]x[1]>"]

    def test_bosonic_ground(self):
        states = ground_state(3, ComponentPattern((3,), BOSE))
        assert len(states) == 1
        assert states[0].hyper == H(0, 0, 0)
        assert states[0].p == P((3,))

    def test_hard_core_regime(self):
        states = ground_state(4, ComponentPattern((4,), FERMI), regime=G_INF)
        assert len(states) == 1
        assert states[0].hyper == H(0, 0, 6)
        assert states[0].pi == 1
        states = ground_state(4, ComponentPattern((2, 2), FERMI), regime=G_INF)
        # everything in the lowest hard-core manifold that admits the pattern
        assert {s.hyper for s in states} == {H(0, 0, 6)}
        square = [s for s in states if s.p == P((2, 2))]
        assert len(square) == 2 and all(s.pi == 1 for s in square)

    def test_search_ceiling(self):
        with pytest.raises(SearchExhaustedError):
            ground_state(5, ComponentPattern((5,), FERMI), e_ceiling=5)
