import pytest
from fractions import Fraction

from symtrap.branching import BOSE, FERMI, ComponentPattern
from symtrap import mapping
from symtrap.mapping import (
    G_INF,
    G_ZERO,
    REGIMES,
    GNLabel,
    SearchExhaustedError,
    StateLabel,
    adiabatic_map,
    enumerate_levels,
    ground_state,
    spectrum_by_irrep,
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
        assert state.energy == Fraction(5, 2)
        assert state.gn_label == GNLabel(0, -1, P((2, 1)))

    def test_hard_core_labels_need_parity(self):
        with pytest.raises(ValueError):
            StateLabel(H(0, 0, 3), P((2, 1)), regime=G_INF)
        ok = StateLabel(H(0, 0, 3), P((2, 1)), pi=-1, regime=G_INF)
        assert ok.relative_parity == -1


class TestSpectrumByIrrep:
    def test_mixed_irrep_lowest_level(self):
        entries = spectrum_by_irrep(3, G_ZERO, GNLabel(0, -1, P((2, 1))), 8)
        assert entries[0].energy == Fraction(5, 2)
        assert (entries[0].hyper.nu_r, entries[0].hyper.nu_rho, entries[0].hyper.lam) == (0, 0, 1)
        assert entries[0].multiplicity == 1

    def test_hard_core_double_degeneracy(self):
        entries = spectrum_by_irrep(4, G_INF, GNLabel(0, 1, P((2, 2))), 10)
        assert (entries[0].hyper.nu_r, entries[0].hyper.nu_rho, entries[0].hyper.lam) == (0, 0, 6)
        assert entries[0].multiplicity == 2

    def test_symmetric_ground_level(self):
        for n in (3, 4, 5):
            entries = spectrum_by_irrep(n, G_ZERO, GNLabel(0, 1, P((n,))), 4)
            assert (entries[0].hyper.nu_r, entries[0].hyper.nu_rho, entries[0].hyper.lam) == (0, 0, 0)
            assert entries[0].multiplicity == 1

    def test_sorted_with_tie_break(self):
        entries = spectrum_by_irrep(3, G_ZERO, GNLabel(0, 1, P((3,))), 8)
        energies = [e.energy for e in entries]
        assert energies == sorted(energies)
        same_energy = [e for e in entries if e.energy == Fraction(15, 2)]
        lams = [e.hyper.lam for e in same_energy]
        assert lams == sorted(lams)

    def test_parity_selects_lambda_parity_at_g0(self):
        entries = spectrum_by_irrep(4, G_ZERO, GNLabel(0, 1, P((3, 1))), 9)
        assert all(e.hyper.lam % 2 == 0 for e in entries)


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
                entries = spectrum_by_irrep(n, regime, GNLabel(nu_r, pi, p), e_max)
                expected = [
                    (hyper, content[(p, pi)])
                    for hyper, content in levels
                    if hyper.nu_r == nu_r and content[(p, pi)]
                ]
                assert [(e.hyper, e.multiplicity) for e in entries] == expected
                keys = [(e.energy, e.hyper.lam, e.hyper.nu_rho) for e in entries]
                assert keys == sorted(keys)
                listed += len(entries)
        assert listed


class TestAdiabaticMap:
    def test_hard_core_search_stops_at_the_image(self, monkeypatch):
        source = StateLabel(H(0, 0, 1), P((2, 1)))
        expected = adiabatic_map(3, source)
        requested = []
        content = mapping.level_content

        def recorder(n, regime, lam):
            requested.append((regime, lam))
            return content(n, regime, lam)

        monkeypatch.setattr(mapping, "level_content", recorder)
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
                    assert result.target_energy >= source.energy

    def test_rank_monotone_within_triple(self):
        mu = GNLabel(0, 1, P((3, 1)))
        sources = []
        from symtrap.oscillator import lambda_reduction

        for entry in spectrum_by_irrep(4, G_ZERO, mu, 8):
            for tau in range(entry.multiplicity):
                sources.append(StateLabel(entry.hyper, P((3, 1)), tau=tau))
        targets = [adiabatic_map(4, s) for s in sources]
        energies = [t.target_energy for t in targets]
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
