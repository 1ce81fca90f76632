import json
from pathlib import Path

import pytest
from cli_runner import run

from symtrap.cli import COMMANDS

GOLDEN = Path(__file__).parent / "golden"


def run_ok(*args) -> str:
    result = run(*args)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result.output


GOLDEN_CASES = [
    ("reduce_lambda_n4.txt", ["reduce-lambda", "--n", "4", "--max-lambda", "13"]),
    ("reduce_lambda_n4.csv", ["reduce-lambda", "--n", "4", "--max-lambda", "13", "--format", "csv"]),
    ("reduce_lambda_n4.json", ["reduce-lambda", "--n", "4", "--max-lambda", "13", "--format", "json"]),
    ("chartable_snz2_n3.txt", ["chartable", "--n", "3", "--group", "snz2"]),
    ("chartable_snz2_n4.txt", ["chartable", "--n", "4", "--group", "snz2"]),
    ("reduce_snippet_n5.txt", ["reduce-snippet", "--n", "5"]),
    ("branch_n4.txt", ["branch", "--n", "4"]),
    ("branch_n5.csv", ["branch", "--n", "5", "--format", "csv"]),
    ("degeneracy_lambda_n4.csv", ["degeneracy-table", "--n", "4", "--by", "lambda", "--max-lambda", "12", "--format", "csv"]),
    ("degeneracy_shell_n3.csv", ["degeneracy-table", "--n", "3", "--by", "shell", "--max-energy", "6", "--format", "csv"]),
    ("spin_n4_k2.txt", ["spin-decompose", "--n", "4", "--k", "2"]),
    ("map_n3.txt", ["map", "--n", "3", "--state", "0,0,1,21", "--component", "1^2"]),
    ("sector_basis_n4_antisym.txt", ["sector-basis", "--n", "4", "--irrep", "1^4+", "--lambda-parity", "even"]),
    ("ground_state_n5_32.txt", ["ground-state", "--n", "5", "--pattern", "3,2", "--stats", "fermi"]),
    ("reduce_shell_n4.csv", ["reduce-shell", "--n", "4", "--max-energy", "8", "--format", "csv"]),
    ("spectrum_n3_mixed.csv", ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "8", "--format", "csv"]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_output(golden, args):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert run_ok(*args) == expected


@pytest.mark.parametrize("golden,args", GOLDEN_CASES[:4], ids=[g for g, _ in GOLDEN_CASES[:4]])
def test_emission_is_deterministic(golden, args):
    assert run_ok(*args) == run_ok(*args)


class TestJsonContract:
    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-lambda", "--n", "4", "--max-lambda", "6"],
            ["reduce-shell", "--n", "3", "--max-energy", "5"],
            ["reduce-snippet", "--n", "4"],
            ["branch", "--n", "4"],
            ["degeneracy-table", "--n", "4", "--by", "lambda", "--max-lambda", "8"],
            ["spin-decompose", "--n", "4", "--k", "2"],
            ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "8"],
            ["map", "--n", "3", "--state", "0,0,1,21"],
            ["ground-state", "--n", "4", "--pattern", "2,2"],
            ["sector-basis", "--n", "3", "--irrep", "21+", "--lambda-parity", "even"],
        ],
    )
    def test_schema_and_round_trip(self, args):
        output = run_ok(*args, "--format", "json")
        obj = json.loads(output)
        assert obj["schema"] == "symtrap/1"
        assert obj["n"] == int(args[args.index("--n") + 1])
        rerendered = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
        assert rerendered == output

    def test_rows_match_table_cells(self):
        output = run_ok("reduce-lambda", "--n", "4", "--max-lambda", "13", "--format", "json")
        rows = json.loads(output)["rows"]
        assert rows[9] == {"lambda": 9, "counts": [1, 3, 1, 2, 1]}


class TestBehaviour:
    def test_map_target_line(self):
        output = run_ok("map", "--n", "3", "--state", "0,0,1,21", "--component", "1^2")
        assert "0,0,3 [21]- dim=1 resolved" in output
        assert "E = 5/2 ħω" in output and "E = 9/2 ħω" in output

    def test_map_unresolved(self):
        output = run_ok("map", "--n", "4", "--state", "0,0,2,2^2")
        assert "0,0,6 [2^2]+ dim=2 unresolved" in output

    def test_map_flags_energy_ties(self):
        output = run_ok("map", "--n", "3", "--state", "0,0,9,1^3")
        assert "convention-ordered" in output

    def test_spectrum_contains_both_regimes(self):
        output = run_ok("spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "6")
        assert "g=0" in output and "g=inf" in output

    def test_ground_state_output(self):
        output = run_ok("ground-state", "--n", "4", "--pattern", "2,2", "--stats", "fermi")
        assert "|0,0,2; [2^2], tau=0; [1^2]x[1^2]>" in output

    def test_component_projection(self):
        output = run_ok(
            "sector-basis",
            "--n", "4",
            "--irrep", "2^2+",
            "--lambda-parity", "even",
            "--component", "1^2x1^2",
        )
        lines = output.splitlines()
        assert lines[3].split()[0] == "sector"
        assert any(line.startswith("1234") for line in lines)

    def test_output_file(self, tmp_path):
        target = tmp_path / "table.csv"
        run_ok("reduce-lambda", "--n", "3", "--max-lambda", "3", "--format", "csv", "--output", str(target))
        assert target.read_text(encoding="utf-8").splitlines()[0] == "lambda,[3],[21],[1^3]"

    def test_version_from_source_checkout(self):
        """``--version`` reads the package, not installed metadata."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "symtrap.cli", "--version"],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "0.1.0" in result.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-shell", "--n", "4", "--max-energy", "6", "--verify"],
            ["reduce-lambda", "--n", "3", "--max-lambda", "5", "--verify"],
            ["reduce-snippet", "--n", "4", "--verify"],
            ["sector-basis", "--n", "3", "--irrep", "21-", "--lambda-parity", "odd", "--verify"],
        ],
    )
    def test_verify_paths(self, args):
        run_ok(*args)

    def test_verify_respects_guards(self):
        result = run("reduce-snippet", "--n", "7", "--verify")
        assert result.exit_code == 0
        assert "skipped" in result.stderr


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-lambda", "--n", "40", "--max-lambda", "2"],
            ["reduce-lambda", "--n", "4"],
            ["map", "--n", "3", "--state", "0,0,1,31"],
            ["map", "--n", "3", "--state", "nonsense"],
            ["ground-state", "--n", "4", "--pattern", "2,3"],
            ["sector-basis", "--n", "4", "--irrep", "2^2", "--lambda-parity", "even"],
            ["degeneracy-table", "--n", "4", "--by", "shell"],
            ["no-such-command"],
        ],
    )
    def test_invalid_input_exits_two(self, args):
        assert run(*args).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-shell", "--n", "4", "--max-energy", "-1"],
            ["reduce-lambda", "--n", "4", "--max-lambda", "-3"],
            ["degeneracy-table", "--n", "4", "--by", "lambda", "--max-lambda", "-1"],
            ["degeneracy-table", "--n", "4", "--by", "shell", "--max-energy", "-1"],
            ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "-1"],
            ["map", "--n", "3", "--state", "0,0,1,21", "--ceiling", "-4"],
        ],
        ids=lambda args: f"{args[0]}{args[-2]}",
    )
    def test_negative_range_exits_two(self, args):
        result = run(*args)
        assert result.exit_code == 2
        assert not result.stdout

    @pytest.mark.parametrize(
        "tag,reason",
        [
            ("1^3", "irrep [3] holds no 1^3 component line"),
            ("zzz", "cannot parse component tag 'zzz'"),
        ],
        ids=["absent-line", "unparsable"],
    )
    def test_map_component_must_be_a_line_of_the_source(self, tag, reason):
        result = run("map", "--n", "3", "--state", "0,0,3,3", "--component", tag, "--format", "json")
        assert result.exit_code == 2
        assert not result.stdout
        assert result.stderr == f"error: {reason}\n"

    @pytest.mark.parametrize(
        "state,max_energy,reason",
        [
            ("0,0,1,21", "0", "--max-energy 0 lies below the state's excitation 1"),
            ("5,0,1,21", "3", "--max-energy 3 lies below the state's excitation 6"),
            ("0,0,0,21", "0", "irrep [21] does not occur at lam=0"),
        ],
        ids=["below-state", "below-centre-of-mass", "not-a-level"],
    )
    def test_spectrum_refuses_a_state_it_cannot_list(self, state, max_energy, reason):
        result = run("spectrum", "--n", "3", "--state", state, "--max-energy", max_energy)
        assert result.exit_code == 2
        assert not result.stdout
        assert result.stderr == f"error: {reason}\n"

    def test_map_component_tag_is_echoed_as_given(self):
        output = run_ok("map", "--n", "3", "--state", "0,0,3,3", "--component", "[2]x[1]")
        assert "|0,0,3; [3], tau=0; [2]x[1]>" in output

    def test_output_into_missing_directory_exits_two(self, tmp_path):
        target = tmp_path / "missing" / "table.txt"
        result = run("chartable", "--n", "3", "--output", str(target))
        assert result.exit_code == 2
        assert not result.stdout
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: cannot write ")
        assert len(result.stderr.splitlines()) == 1

    def test_over_budget_sector_block_is_refused(self):
        result = run("sector-basis", "--n", "8", "--irrep", "421^2-", "--lambda-parity", "even")
        assert result.exit_code == 2
        assert not result.stdout
        assert "174182400 amplitudes, over the limit of 100000" in result.stderr

    def test_largest_six_particle_block_is_accepted(self):
        result = run("sector-basis", "--n", "6", "--irrep", "321+", "--lambda-parity", "even")
        assert result.exit_code == 0
        assert "v128: [321]+ tau=7 j=16" in result.stdout
        assert len(result.stdout.splitlines()) == 1 + 128 + 2 + 720

    def test_success_is_zero(self):
        assert run("reduce-lambda", "--n", "3", "--max-lambda", "2").exit_code == 0

    def test_failed_cross_check_exits_three(self, monkeypatch):
        import symtrap.oracle  # noqa: F401  every layer loaded, so no importer binds the fake
        from symtrap import oscillator
        from symtrap.partitions import MultiplicityVector, partitions_of

        def wrong_reduction(n, x):
            keys = partitions_of(n)
            return MultiplicityVector(keys, (99,) + (0,) * (len(keys) - 1))

        monkeypatch.setattr(oscillator, "shell_reduction", wrong_reduction)
        result = run("reduce-shell", "--n", "3", "--max-energy", "2", "--verify")
        assert result.exit_code == 3
        assert "consistency" in result.stderr

    def test_failed_lambda_cross_check_exits_three(self, monkeypatch):
        import symtrap.oracle  # noqa: F401  every layer loaded, so no importer binds the fake
        from symtrap import oscillator
        from symtrap.partitions import MultiplicityVector, partitions_of

        def wrong_reduction(n, lam):
            keys = partitions_of(n)
            return MultiplicityVector(keys, (99,) + (0,) * (len(keys) - 1))

        monkeypatch.setattr(oscillator, "lambda_reduction", wrong_reduction)
        result = run("reduce-lambda", "--n", "3", "--max-lambda", "2", "--verify")
        assert result.exit_code == 3
        assert "consistency" in result.stderr

    def test_lambda_verify_states_its_guard(self):
        from symtrap.oracle import LAMBDA_LIMIT

        def verify_to(top):
            return run("reduce-lambda", "--n", "3", "--max-lambda", str(top), "--verify")

        result = verify_to(LAMBDA_LIMIT + 1)
        assert result.exit_code == 0
        assert f"above {LAMBDA_LIMIT} skipped" in result.stderr
        assert not verify_to(LAMBDA_LIMIT).stderr


#: Parameter names of every command, in order, as first released; the
#: command decorator must keep ``--output`` before ``--format``.
COMMAND_PARAMS = {
    "branch": ["n", "pattern", "stats", "output", "fmt"],
    "chartable": ["n", "group", "output", "fmt"],
    "degeneracy-table": ["n", "by", "max_lambda", "max_energy", "output", "fmt"],
    "ground-state": ["n", "pattern", "stats", "regime", "output", "fmt"],
    "map": ["n", "state", "tau", "component", "ceiling", "output", "fmt"],
    "reduce-lambda": ["n", "max_lambda", "verify", "output", "fmt"],
    "reduce-shell": ["n", "max_energy", "verify", "output", "fmt"],
    "reduce-snippet": ["n", "verify", "output", "fmt"],
    "sector-basis": ["n", "irrep", "lambda_parity", "component", "verify", "output", "fmt"],
    "spectrum": ["n", "state", "max_energy", "output", "fmt"],
    "spin-decompose": ["n", "k", "output", "fmt"],
}


def test_command_shapes():
    assert sorted(COMMANDS) == sorted(COMMAND_PARAMS)
    for name, params in COMMAND_PARAMS.items():
        assert [option.dest for option in COMMANDS[name].options] == params


class TestSectorBasisVerify:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--irrep", "2^21-", "--lambda-parity", "even"],
            ["--irrep", "2^21-", "--lambda-parity", "even", "--component", "1^2x1^2"],
            ["--irrep", "32-", "--lambda-parity", "even", "--component", "3x2"],
        ],
        ids=["chain", "fermi-component", "bose-component"],
    )
    def test_real_bases_pass(self, extra):
        result = run("sector-basis", "--n", "5", *extra, "--verify")
        assert result.exit_code == 0, result.output
        assert not result.stderr

    @pytest.mark.parametrize("component", [[], ["--component", "1^2"]], ids=["chain", "component"])
    def test_non_invariant_basis_exits_three(self, monkeypatch, component):
        from symtrap import snippet
        from symtrap.snippet import SectorVector

        def unit_basis(n, lambda_parity, p, pi, component=None):
            return [SectorVector(n, (1,) + (0,) * 5, 1)]

        monkeypatch.setattr(snippet, "snippet_projection_basis", unit_basis)
        args = ["sector-basis", "--n", "3", "--irrep", "21+", "--lambda-parity", "even"]
        result = run(*args, *component, "--verify")
        assert result.exit_code == 3
        assert "consistency" in result.stderr
        assert run(*args, *component).exit_code == 0

    @pytest.mark.parametrize("component", [[], ["--component", "1^2"]], ids=["chain", "component"])
    def test_basis_unlike_the_subgroup_route_exits_three(self, monkeypatch, component):
        """Reordered vectors pass the invariance check but not the comparison."""
        from symtrap import snippet
        from symtrap.snippet import snippet_projection_basis

        def reordered(*args, **kwargs):
            return snippet_projection_basis(*args, **kwargs)[::-1]

        monkeypatch.setattr(snippet, "snippet_projection_basis", reordered)
        args = ["sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even"]
        result = run(*args, *component, "--verify")
        assert result.exit_code == 3
        assert "subgroup sums give another basis for [2^2]+" in result.stderr

    def test_negated_six_particle_vector_exits_three(self, monkeypatch):
        """A sign flip keeps the span invariant; the leading entry gives it away."""
        from symtrap import snippet
        from symtrap.snippet import SectorVector, snippet_projection_basis

        def negated(*args, **kwargs):
            (v,) = snippet_projection_basis(*args, **kwargs)
            return [SectorVector(v.n, tuple(-a for a in v.amps), v.norm_sq, v.label)]

        monkeypatch.setattr(snippet, "snippet_projection_basis", negated)
        args = ["sector-basis", "--n", "6", "--irrep", "6+", "--lambda-parity", "odd"]
        result = run(*args, "--verify")
        assert result.exit_code == 3
        assert "subgroup sums give another basis for [6]+" in result.stderr
        assert run(*args).exit_code == 0

    def test_component_rank_guard_exits_three(self, monkeypatch):
        from symtrap import snippet
        from symtrap.partitions import MultiplicityVector

        real = snippet.snippet_reduction

        def one_extra(n, lambda_parity):
            counts = real(n, lambda_parity)
            return counts + MultiplicityVector(counts.keys, (1,) * len(counts.keys))

        monkeypatch.setattr(snippet, "snippet_reduction", one_extra)
        args = ["sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even"]
        result = run(*args, "--component", "1^2x1^2")
        assert result.exit_code == 3
        assert "component projection of [2^2] has unexpected rank" in result.stderr
        assert not result.stdout

    def test_six_particle_basis_is_certified(self):
        result = run("sector-basis", "--n", "6", "--irrep", "6+", "--lambda-parity", "odd", "--verify")
        assert result.exit_code == 0
        assert not result.stderr
