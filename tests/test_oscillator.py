import pytest
from fractions import Fraction
from math import factorial

from symtrap.mapping import G_ZERO, enumerate_levels
from symtrap.oscillator import (
    HypercylindricalLabel,
    antisymmetric_multiplicity,
    hyperangular_dimension,
    lambda_reduction,
    shell_dimension,
    shell_reduction,
)
from symtrap.partitions import Partition, partitions_of

from reference_data import (
    N3_LAMBDA_REDUCTION,
    N4_LAMBDA_REDUCTION,
    N4_TWELVE_STEP,
    N5_LAMBDA_REDUCTION,
)


class TestLabels:
    def test_energy_and_parity(self):
        label = HypercylindricalLabel(1, 2, 3)
        assert label.excitation == 8
        assert label.energy(4) == Fraction(2 * 8 + 4, 2) == 10
        assert label.parity == -1
        assert HypercylindricalLabel(0, 0, 2).parity == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            HypercylindricalLabel(0, -1, 0)


class TestShellDimension:
    def test_twenty_states_for_four_particles(self):
        assert shell_dimension(4, 3) == 20

    def test_ground_shell(self):
        for n in range(2, 9):
            assert shell_dimension(n, 0) == 1

    def test_three_particle_sequence(self):
        assert [shell_dimension(3, x) for x in range(7)] == [1, 3, 6, 10, 15, 21, 28]

    def test_invalid(self):
        with pytest.raises(ValueError):
            shell_dimension(1, 3)
        with pytest.raises(ValueError):
            shell_dimension(4, -1)


class TestHyperangularDimension:
    def test_four_particles_linear(self):
        assert [hyperangular_dimension(4, lam) for lam in range(6)] == [1, 3, 5, 7, 9, 11]
        for lam in range(14):
            assert hyperangular_dimension(4, lam) == 2 * lam + 1

    def test_five_particles_square(self):
        assert hyperangular_dimension(5, 3) == 16
        for lam in range(14):
            assert hyperangular_dimension(5, lam) == (lam + 1) ** 2

    def test_three_particles_special_case(self):
        assert hyperangular_dimension(3, 0) == 1
        assert hyperangular_dimension(3, 2) == 2
        for lam in range(1, 14):
            assert hyperangular_dimension(3, lam) == 2

    def test_two_particles_unsupported(self):
        with pytest.raises(ValueError):
            hyperangular_dimension(2, 1)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_closed_form_equals_the_factorial_form(self, n):
        """(n + 2 lam - 3) (lam + n - 4)! / (lam! (n - 3)!), the harmonic
        polynomials of degree lam on the sphere in n - 1 dimensions."""
        for lam in range(301):
            reference = (n + 2 * lam - 3) * factorial(lam + n - 4) // (factorial(lam) * factorial(n - 3))
            assert hyperangular_dimension(n, lam) == reference

    @pytest.mark.parametrize("n", range(3, 7))
    def test_shell_recovered_from_subspaces(self, n):
        for x in range(11):
            total = 0
            for lam in range(x + 1):
                copies = (x - lam) // 2 + 1
                total += copies * hyperangular_dimension(n, lam)
            assert total == shell_dimension(n, x)


class TestShellReduction:
    def test_third_shell_of_four(self):
        assert shell_reduction(4, 3).counts == (3, 4, 1, 1, 0)

    def test_ground_shell_is_symmetric(self):
        for n in range(2, 7):
            counts = shell_reduction(n, 0).counts
            assert counts[0] == 1 and not any(counts[1:])

    def test_second_shell_of_four(self):
        assert shell_reduction(4, 2).counts == (2, 2, 1, 0, 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dimensions_fill_shells(self, n):
        for x in range(9):
            assert shell_reduction(n, x).total_dimension() == shell_dimension(n, x)


class TestLambdaReduction:
    def test_three_particle_table(self):
        for lam, row in enumerate(N3_LAMBDA_REDUCTION):
            assert lambda_reduction(3, lam).counts == row

    def test_four_particle_table(self):
        for lam, row in enumerate(N4_LAMBDA_REDUCTION):
            assert lambda_reduction(4, lam).counts == row

    def test_five_particle_table(self):
        for lam, row in enumerate(N5_LAMBDA_REDUCTION):
            assert lambda_reduction(5, lam).counts == row

    def test_three_particle_periodicity(self):
        for lam in range(1, 12):
            assert lambda_reduction(3, lam + 3).counts == lambda_reduction(3, lam).counts

    def test_four_particle_twelve_step(self):
        for lam in range(15):
            stepped = tuple(
                a + b for a, b in zip(lambda_reduction(4, lam).counts, N4_TWELVE_STEP)
            )
            assert lambda_reduction(4, lam + 12).counts == stepped

    @pytest.mark.parametrize("n", range(3, 6))
    def test_dimension_sums(self, n):
        for lam in range(14):
            assert lambda_reduction(n, lam).total_dimension() == hyperangular_dimension(n, lam)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_lowest_subspaces_are_simply_reducible(self, n):
        zero = lambda_reduction(n, 0)
        assert zero[Partition((n,))] == 1 and zero.total_dimension() == 1
        one = lambda_reduction(n, 1)
        assert one[Partition((n - 1, 1))] == 1
        assert one.total_dimension() == hyperangular_dimension(n, 1)
        assert all(count == 0 for p, count in one.items() if p != Partition((n - 1, 1)))

    def test_first_antisymmetric_appearances(self):
        first = {3: 3, 4: 6, 5: 10}
        for n, lam_first in first.items():
            seen = [lam for lam in range(14) if antisymmetric_multiplicity(n, lam)]
            assert seen[0] == lam_first
        assert [lam for lam in range(14) if antisymmetric_multiplicity(4, lam)] == [6, 9, 10, 12, 13]
        assert [lam for lam in range(14) if antisymmetric_multiplicity(5, lam)] == [10, 13]
        assert [lam for lam in range(14) if antisymmetric_multiplicity(3, lam)] == [3, 6, 9, 12]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_antisymmetric_multiplicity_is_the_antisymmetric_slot(self, n):
        antisymmetric = Partition((1,) * n)
        for lam in range(61):
            assert antisymmetric_multiplicity(n, lam) == lambda_reduction(n, lam)[antisymmetric]

    def test_unsupported_two_particles(self):
        with pytest.raises(ValueError):
            lambda_reduction(2, 1)


class TestRotationCharacterRoute:
    """Independent derivation of the four-particle table.

    The permutation action on the 3-dim relative coordinate space realizes
    every hyperangular subspace as degree-lambda spherical harmonics, whose
    traces per class are exact integers fixed by the rotation angle alone.
    Reducing those traces must reproduce the Kostka-route table.
    """

    # class -> (rotation angle, improper?) of its relative-space matrix;
    # the angle follows from trace = fix(c) - 1 and the permutation sign
    GEOMETRY = {
        (1, 1, 1, 1): (0, False),
        (2, 1, 1): ("pi", True),
        (2, 2): ("pi", False),
        (3, 1): ("2pi/3", False),
        (4,): ("pi/2", True),
    }

    @staticmethod
    def harmonic_trace(lam, angle):
        if angle == 0:
            return 2 * lam + 1
        period = {"pi": [1, -1], "2pi/3": [1, 0, -1], "pi/2": [1, 1, -1, -1]}
        return period[angle][lam % len(period[angle])]

    @pytest.mark.parametrize("lam", range(27))
    def test_matches_production_table(self, lam):
        from symtrap.characters import ClassFunction, character_table_snz2, reduce_class_function

        table = character_table_snz2(4)
        values = []
        for cycle_type, inverted in table.classes:
            angle, improper = self.GEOMETRY[cycle_type.parts]
            value = self.harmonic_trace(lam, angle)
            if improper:
                value *= (-1) ** lam
            if inverted:
                value *= (-1) ** lam
            values.append(value)
        reduction = reduce_class_function(
            ClassFunction(table.group, table.classes, tuple(values)), table
        )
        pi = 1 if lam % 2 == 0 else -1
        shapes = partitions_of(4)
        assert tuple(reduction[(p, pi)] for p in shapes) == lambda_reduction(4, lam).counts
        assert all(reduction[(p, -pi)] == 0 for p in shapes)


def _g0_levels(n, e_max):
    """Free levels with the irrep content at each level's own parity."""
    return [
        (label, tuple(content[(p, label.parity)] for p in partitions_of(n)))
        for label, content in enumerate_levels(n, G_ZERO, e_max)
    ]


class TestEnumerateLevels:
    def test_four_particles_to_first_shell(self):
        levels = _g0_levels(4, 1)
        assert [(l.nu_r, l.nu_rho, l.lam) for l, _ in levels] == [
            (0, 0, 0),
            (1, 0, 0),
            (0, 0, 1),
        ]
        assert levels[0][1] == (1, 0, 0, 0, 0)
        assert levels[2][1] == (0, 1, 0, 0, 0)

    def test_three_particles_trivial(self):
        levels = _g0_levels(3, 0)
        assert len(levels) == 1
        assert levels[0][1] == (1, 0, 0)

    def test_second_shell_labels(self):
        levels = _g0_levels(4, 2)
        shell_two = [(l.nu_r, l.nu_rho, l.lam) for l, _ in levels if l.excitation == 2]
        assert shell_two == [(2, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 2)]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_shell_dimensions_recovered(self, n):
        by_shell = {}
        for label, content in enumerate_levels(n, G_ZERO, 8):
            by_shell.setdefault(label.excitation, 0)
            by_shell[label.excitation] += content.total_dimension()
        for x, total in by_shell.items():
            assert total == shell_dimension(n, x)
        assert sorted(by_shell) == list(range(9))


class TestSeriesRoute:
    """The fake-degree series against the cycle-index and Kostka-and-subtraction oracles."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shells_match_kostka_route(self, n):
        from reference_routes import kostka_shell_reduction
        from symtrap.oracle import cycle_index_rows

        by_characters = cycle_index_rows(n, 60)
        for x in range(61):
            assert shell_reduction(n, x) == by_characters[x]
        for x in range(21):
            assert by_characters[x] == kostka_shell_reduction(n, x)

    @pytest.mark.parametrize("n,top", [(3, 24), (4, 24), (5, 24), (6, 24), (7, 24), (8, 20)])
    def test_lambdas_match_subtraction_route(self, n, top):
        from reference_routes import subtraction_lambda_reduction
        from symtrap.oracle import cycle_index_rows

        by_characters = cycle_index_rows(n, 60, (1, 2))
        for lam in range(61):
            assert lambda_reduction(n, lam) == by_characters[lam]
        for lam in range(top + 1):
            assert by_characters[lam] == subtraction_lambda_reduction(n, lam)

    def test_eight_particles_to_lambda_sixty(self):
        for lam in range(61):
            reduction = lambda_reduction(8, lam)
            assert reduction.min_count() >= 0
            assert reduction.total_dimension() == hyperangular_dimension(8, lam)

    def test_rows_past_the_first_series_length(self):
        from symtrap.oscillator import _MIN_SERIES_LENGTH

        x = _MIN_SERIES_LENGTH + 3
        assert shell_reduction(4, x).total_dimension() == shell_dimension(4, x)
        assert lambda_reduction(4, x).total_dimension() == hyperangular_dimension(4, x)

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-shell", "--n", "6", "--max-energy", "300"],
            ["reduce-lambda", "--n", "6", "--max-lambda", "300"],
            ["degeneracy-table", "--n", "6", "--max-lambda", "300"],
            ["degeneracy-table", "--n", "6", "--by", "shell", "--max-energy", "300"],
        ],
        ids=["reduce-shell", "reduce-lambda", "degeneracy-table-lambda", "degeneracy-table-shell"],
    )
    def test_a_table_builds_one_series(self, monkeypatch, args):
        """Rows 0..300 span three series lengths; the table builds only the longest."""
        from cli_runner import run
        from symtrap import oscillator

        monkeypatch.setattr(oscillator, "_LONGEST", {})
        for memo in (oscillator._series, shell_reduction, lambda_reduction):
            memo.cache_clear()
        assert run(*args).exit_code == 0
        assert oscillator._series.cache_info().misses == 1

    def test_import_computes_nothing(self):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, symtrap.cli\n"
            "import symtrap.branching, symtrap.characters, symtrap.linalg, symtrap.mapping\n"
            "import symtrap.oscillator, symtrap.partitions, symtrap.snippet\n"
            "caches = {f'{m}.{k}': v.cache_info().currsize\n"
            "          for m, mod in list(sys.modules.items()) if m.startswith('symtrap')\n"
            "          for k, v in vars(mod).items() if hasattr(v, 'cache_info')}\n"
            "assert 'symtrap.oscillator._series' in caches, caches\n"
            "assert 'symtrap.oscillator.lambda_reduction' in caches, caches\n"
            "assert not any(caches.values()), caches\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
