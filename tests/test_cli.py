import json
from pathlib import Path

import pytest
from cli_runner import run
from hypothesis import given, settings, strategies as st

from symtrap.cli import _BLOCK, COMMANDS, _json_chunks, _json_value, _text_chunks

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
    # Two particles: lambda is 0 ([2]) or 1 ([1^2]); hard core lifts [2] one quantum.
    ("map_n2.txt", ["map", "--n", "2", "--state", "0,0,0,2"]),
    ("spectrum_n2_antisym.json", ["spectrum", "--n", "2", "--state", "1,0,1,1^2", "--max-energy", "7", "--format", "json"]),
    ("reduce_lambda_n2.csv", ["reduce-lambda", "--n", "2", "--max-lambda", "5", "--format", "csv"]),
    ("degeneracy_lambda_n2.txt", ["degeneracy-table", "--n", "2", "--by", "lambda", "--max-lambda", "4"]),
    ("ground_state_n2_11_ginf.json", ["ground-state", "--n", "2", "--pattern", "1,1", "--regime", "ginf", "--format", "json"]),
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


def dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


#: Characters json escapes or must leave alone, mixed into generated text.
AWKWARD = "\x00\x07\x1f\x7f\"\\/\b\f\n\r\t ħω\u2028\u2029é"
json_text = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=12)
json_scalar = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | json_text
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_text, inner, max_size=5),
    max_leaves=20,
)


def render(value) -> str:
    """A bare value as the writer lays it out at the top level."""
    return _json_value(value, "") + "\n"


class TestJsonWriter:
    """The one JSON writer, ``_json_chunks`` over ``_json_value``, against
    ``json.dumps(v, indent=2, ensure_ascii=False)``."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(json_value)
    def test_matches_the_standard_library(self, value):
        assert render(value) == dumps(value)

    def test_every_escape_and_edge(self):
        value = {
            "text": ["".join(map(chr, range(128))), AWKWARD, ""],
            "ints": [0, -1, 2**64, -(2**100), True, False, None],
            "empty": [[], {}, [[]], [{}], {"": {}}, {"k": []}],
            "ħω\u2028\"\\": {"nested": {"deeper": [1, [2, [3]]]}},
        }
        assert render(value) == dumps(value)
        assert render([]) == "[]\n"
        assert render(None) == "null\n"

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: 2}, {"k": {3}}, [b"x"]])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            render(value)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        st.dictionaries(json_text.filter(lambda k: k not in ("rows", "schema")), json_value, min_size=1),
        st.lists(json_value, max_size=6),
    )
    def test_chunks_write_the_whole_document(self, head, rows):
        """``_json_chunks``, a block of rows at a time, writes what ``json.dumps``
        writes whole; without ``json_row`` the document has no ``"rows"``."""
        document = {**head, "rows": [[row] for row in rows], "schema": "symtrap/1"}
        assert "".join(_json_chunks(head, rows, lambda row: [row])) == dumps(document)
        assert "".join(_json_chunks(head, rows, None)) == dumps({**head, "schema": "symtrap/1"})

    def test_chunks_across_blocks(self):
        rows = list(range(2 * _BLOCK + 1))
        chunks = list(_json_chunks({"n": 8}, rows, lambda row: {"k": row}))
        document = {"n": 8, "rows": [{"k": row} for row in rows], "schema": "symtrap/1"}
        assert len(chunks) == 6
        assert "".join(chunks) == dumps(document)


def rowwise_text(headers, rows, title=None) -> str:
    """The text table laid out one row at a time: the reference of ``_text_chunks``."""
    table = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for line_no, line in enumerate(table):
        cells = [line[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(line) if i > 0
        ]
        lines.append("  ".join(cells).rstrip())
        if line_no == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


class TestTextRenderer:
    """``_text_chunks``, laid out by column a block at a time, against the row-wise layout."""

    @pytest.mark.parametrize(
        "headers, rows",
        [
            (["irrep", "count"], []),
            (["irrep"], []),
            (["irrep"], [["[3]"], ["[21]+"], [7]]),
            (["E", "energy"], [["3ħω/2", -1], [-12, "-5ħω/2"], [0, "ħω"]]),
            (["level", "tag", "note"], [["0,0,2", "1^2x1", ""], ["0,0,10", "3", ""]]),
            (["a", "b"], [["", ""], ["x", ""]]),
            (["sector", "v1", "v2"], [[f"{q:04d}", (q * 7) % 11 - 5, -q] for q in range(120)]),
            (["k", "k^2"], [[k, k * k] for k in range(2 * _BLOCK + 1)]),
        ],
        ids=["no-rows", "one-column", "one-column-rows", "hbar-negative", "empty-last", "blank", "wide", "blocks"],
    )
    @pytest.mark.parametrize("title", [None, "", "character table S3"], ids=["none", "empty", "title"])
    def test_matches_the_row_wise_layout(self, headers, rows, title):
        assert "".join(_text_chunks(headers, rows, title)) == rowwise_text(headers, rows, title)


FORMATS = ("text", "csv", "json")
COMPONENT_TAGS = ["1^2", "2", "1^2x1^2", "2x2", "2x1", "1^3", "[1]x[1]", "3"]
range_end = st.integers(min_value=-1, max_value=12)


@st.composite
def command_lines(draw, name: str):
    """An argument list of the command ``name`` at n = 2..6, valid or not:
    states, patterns and ranges are drawn mostly from those that exist."""
    from symtrap.oscillator import lambda_reduction
    from symtrap.partitions import partitions_of

    n = draw(st.integers(min_value=2, max_value=6))
    shapes = list(partitions_of(n))
    nu_r, nu_rho, lam = (draw(st.integers(min_value=0, max_value=m)) for m in (1, 1, 6))
    copies = {p: count for p, count in lambda_reduction(n, lam).items() if count}
    irrep = draw(st.sampled_from(list(copies) or shapes))
    tau = draw(st.integers(min_value=0, max_value=copies.get(irrep, 1)))
    shape = irrep.compact()
    state = ["--state", f"{nu_r},{nu_rho},{lam},{shape}"]
    above = str(nu_r + 2 * nu_rho + lam + draw(st.integers(min_value=-1, max_value=6)))
    counts = draw(
        st.sampled_from(shapes).map(lambda p: p.parts)
        | st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)
    )
    pattern = ["--pattern", ",".join(map(str, counts))]
    stats = ["--stats", draw(st.sampled_from(["bose", "fermi"]))]
    tag = draw(st.sampled_from(COMPONENT_TAGS))
    component = ["--component", tag] if draw(st.booleans()) else []
    verify = draw(st.sampled_from([[], ["--verify"]]))
    by = draw(st.sampled_from(["lambda", "shell"]))
    ranges = {"lambda": "--max-lambda", "shell": "--max-energy"}
    stray = draw(st.sampled_from([[], [ranges["shell" if by == "lambda" else "lambda"], "3"]]))
    args = {
        "chartable": ["--group", draw(st.sampled_from(["sn", "snz2"]))],
        "reduce-shell": ["--max-energy", str(draw(range_end)), *verify],
        "reduce-lambda": ["--max-lambda", str(draw(range_end)), *verify],
        "reduce-snippet": verify,
        "branch": draw(st.sampled_from([[], [*pattern, *stats]])),
        "degeneracy-table": ["--by", by, ranges[by], str(draw(range_end)), *stray],
        "spin-decompose": ["--k", str(draw(st.integers(min_value=1, max_value=4)))],
        "spectrum": [*state, "--max-energy", above],
        "map": [*state, "--tau", str(tau), *component],
        "ground-state": [*pattern, *stats, "--regime", draw(st.sampled_from(["g0", "ginf"]))],
        "sector-basis": [
            "--irrep", shape + draw(st.sampled_from("+-")),
            "--lambda-parity", draw(st.sampled_from(["even", "odd"])),
            *component, *verify,
        ],
    }[name]
    return [name, "--n", str(n), *args]


def table_rows(fmt: str, output: str) -> int:
    """How many rows a table holds, as each format prints it."""
    if fmt == "json":
        return len(json.loads(output)["rows"])
    lines = output.splitlines()
    if fmt == "csv":
        return len(lines) - 1
    rule = next(i for i, line in enumerate(lines) if line and not line.strip("- "))
    return len(lines) - rule - 1


class TestFormatsAgree:
    """Every format renders the same row list of the same call."""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_exit_rows_and_output_file_agree(self, name, data):
        import tempfile

        args = data.draw(command_lines(name), label="args")
        codes, row_counts = set(), set()
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in FORMATS:
                result = run(*args, "--format", fmt)
                target = Path(tmp) / fmt
                written = run(*args, "--format", fmt, "--output", str(target))
                codes |= {result.exit_code, written.exit_code}
                if result.exit_code:
                    assert result.stdout == written.stdout == ""
                    assert not target.exists()
                    continue
                assert result.stderr == ""
                assert (written.stdout, written.stderr) == ("", "")
                assert target.read_bytes() == result.stdout.encode("utf-8")
                if name != "map":
                    row_counts.add(table_rows(fmt, result.stdout))
        assert len(codes) == 1, codes
        assert len(row_counts) <= 1, row_counts


class TestNoPartialOutput:
    """Every row is built before the first byte is written, so a check that
    fails while the rows are built prints nothing and leaves ``--output`` as it was."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_failure_while_building_rows_writes_nothing(self, monkeypatch, tmp_path, fmt):
        from itertools import islice

        from symtrap import ConsistencyError, mapping

        real = mapping.spectrum_levels

        def failing(*args):
            yield from islice(real(*args), 3)
            raise ConsistencyError("injected after three levels")

        monkeypatch.setattr(mapping, "spectrum_levels", failing)
        args = ["spectrum", "--n", "3", "--state", "0,0,1,21", "--max-energy", "8", "--format", fmt]
        result = run(*args)
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "consistency failure: injected after three levels\n"
        target = tmp_path / "table"
        target.write_bytes(b"an earlier table\n")
        result = run(*args, "--output", str(target))
        assert (result.exit_code, result.stdout) == (3, "")
        assert target.read_bytes() == b"an earlier table\n"


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
            ["reduce-lambda", "--n", "2", "--max-lambda", "9", "--verify"],
        ],
    )
    def test_verify_paths(self, args):
        run_ok(*args)

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-shell", "--n", "8", "--max-energy", "60"],
            ["reduce-lambda", "--n", "8", "--max-lambda", "60"],
            ["reduce-snippet", "--n", "8"],
        ],
        ids=lambda args: args[0],
    )
    def test_verify_checks_every_row(self, args):
        result = run(*args, "--verify")
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == run(*args).stdout

    def test_snippet_verify_builds_no_matrix(self, monkeypatch):
        """The recount reads fixed-sector counts; no signed permutation is built."""
        import symtrap.oracle as oracle

        def refuse(*args):
            raise AssertionError("reduce-snippet --verify built a sector matrix")

        monkeypatch.setattr(oracle, "_images", refuse)
        result = run("reduce-snippet", "--n", "5", "--verify")
        assert (result.exit_code, result.stderr) == (0, "")


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
            ["map", "--n", "3", "--state", "0,0,x,21"],
            ["branch", "--n", "3", "--pattern", "2,x"],
            ["branch", "--n", "3", "--pattern", "2,,1"],
            ["degeneracy-table", "--n", "4", "--by", "lambda", "--max-lambda", "4", "--max-energy", "9"],
            ["degeneracy-table", "--n", "4", "--by", "shell", "--max-energy", "9", "--max-lambda", "4"],
        ],
    )
    def test_invalid_input_exits_two(self, args):
        result = run(*args)
        assert result.exit_code == 2
        # A malformed state or pattern is answered with its option's grammar.
        grammar = {
            "--state": "error: state must be 'nu_R,nu_rho,lambda,partition', e.g. 0,0,1,21\n",
            "--pattern": "error: pattern must be counts 'k1,k2,...', e.g. 2,2\n",
        }
        if args[-1] in ("nonsense", "0,0,x,21", "2,x", "2,,1"):
            assert result.stderr == grammar[args[-2]]
        # Given both ranges, degeneracy-table names the axis of the other one.
        stray = {"lambda": "--max-energy applies to --by shell", "shell": "--max-lambda applies to --by lambda"}
        if {"--max-lambda", "--max-energy"} <= set(args):
            assert result.stderr == f"error: {stray[args[4]]}\n"

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
            ("2^2", "cannot parse component tag '2^2'"),
            ("21", "cannot parse component tag '21'"),
            ("1^2x2", "component tag '1^2x2' mixes symmetric and antisymmetric blocks"),
        ],
        ids=["absent-line", "unparsable", "square-block", "two-row-block", "mixed-statistics"],
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

    def test_map_exhausted_search_names_what_was_searched(self):
        result = run("map", "--n", "3", "--state", "0,0,1,21", "--ceiling", "0")
        assert result.exit_code == 2
        assert not result.stdout
        assert result.stderr == (
            "error: no hard-core level carrying (nu_R=0, pi=-, [21]) up to excitation 1, "
            "0 quanta above the source\n"
        )

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

    #: 820 KB of rows in every format: far more than a pipe buffers, so the
    #: CLI is still writing when its reader goes away.
    LONG_TABLE = ("reduce-lambda", "--n", "4", "--max-lambda", "20000")

    @staticmethod
    def _child(*args):
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.Popen(
            [sys.executable, "-m", "symtrap.cli", *args],
            env={"PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_closed_stdout_ends_quietly(self, fmt):
        import os

        child = self._child(*self.LONG_TABLE, "--format", fmt)
        assert os.read(child.stdout.fileno(), 100)
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == 0

    @pytest.mark.parametrize(
        "args", [["--help"], ["chartable", "--help"], ["--version"]], ids=["help", "command-help", "version"]
    )
    def test_help_into_a_closed_stdout_ends_quietly(self, args):
        """Help and version text end as a command's answer does when the
        reader has gone before the first write: exit 0, nothing on stderr."""
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "symtrap.cli", *args],
                env={"PYTHONPATH": str(src)},
                stdout=writer,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(writer)
        assert result.stderr == b""
        assert result.returncode == 0

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [["--help"], ["chartable", "--help"], ["--version"], ["chartable", "--n", "3"]],
        ids=["help", "command-help", "version", "answer"],
    )
    def test_full_stdout_exits_two(self, args, unbuffered):
        """Help, version and answers share one stdout policy: a write error
        other than a reader that has gone is reported once and exits 2,
        whether the bytes it could not write were buffered or not."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "symtrap.cli", *args],
                env={"PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered},
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        assert result.stderr == b"error: cannot write stdout: No space left on device\n"
        assert result.returncode == 2

    @staticmethod
    def _redirected(args, redirections: str, cwd=None):
        """Run ``python -m symtrap.cli ARGS`` through the shell, with its
        ``redirections`` (``>&-`` closes stdout, ``2>/dev/full`` fills stderr)."""
        import shlex
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        command = " ".join(map(shlex.quote, [sys.executable, "-m", "symtrap.cli", *args]))
        return subprocess.run(
            f"{command} {redirections}",
            shell=True,
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            cwd=cwd,
            timeout=60,
        )

    def test_output_file_with_a_closed_stdout(self, tmp_path):
        result = self._redirected(["chartable", "--n", "3", "--output", "out.txt"], ">&-", cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, b"")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8").startswith("character table")

    @pytest.mark.parametrize(
        "args",
        [["chartable", "--n", "3"], ["--help"], ["chartable", "--help"], ["--version"]],
        ids=["answer", "help", "command-help", "version"],
    )
    def test_closed_stdout_at_start_ends_quietly(self, args):
        """Written into a stdout closed before the process started, an
        answer, help or version ends as for a reader that has gone."""
        result = self._redirected(args, ">&-")
        assert (result.returncode, result.stderr) == (0, b"")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args, redirections",
        [
            (["chartable", "--n", "9"], "2>&-"),
            (["chartable", "--n", "9"], "2>/dev/full"),
            (["map", "--n", "3", "--state", "0,0,1,31"], "2>/dev/full"),
            ([], "2>/dev/full"),
            (["chartable", "--n", "3"], ">/dev/full 2>/dev/full"),
        ],
        ids=["usage-closed", "usage-full", "invalid-full", "no-arguments-full", "write-error-full"],
    )
    def test_an_unwritable_stderr_keeps_the_exit_code(self, args, redirections):
        """An error message that stderr cannot take is dropped; the call
        still exits 2, not 1 with a traceback."""
        result = self._redirected(args, redirections)
        assert (result.returncode, result.stdout) == (2, b"")

    def test_stdout_is_utf8_whatever_the_encoding_asked(self):
        """The process entry writes stdout as UTF-8, as ``--output`` files
        are, so an ASCII ``PYTHONIOENCODING`` cannot cut an answer short."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        args = ["map", "--n", "3", "--state", "0,0,1,21", "--component", "1^2"]
        result = subprocess.run(
            [sys.executable, "-m", "symtrap.cli", *args],
            env={"PYTHONPATH": str(src), "PYTHONIOENCODING": "ascii"},
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (GOLDEN / "map_n3.txt").read_bytes()

    def test_an_encoding_that_cannot_hold_the_answer_is_a_write_error(self):
        """``main`` in process keeps stdout's encoding; one that cannot hold
        the answer is reported as a write error, not as invalid input."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        probe = 'from symtrap.cli import main; main(["map", "--n", "3", "--state", "0,0,1,21"])'
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONPATH": str(src), "PYTHONIOENCODING": "ascii"},
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: cannot write stdout: 'ascii' codec can't encode")
        assert result.stderr.count(b"\n") == 1

    def test_a_value_error_while_writing_propagates(self, monkeypatch):
        """Only building the table maps ``ValueError`` to exit 2; one raised
        while the table is written is a fault of the program."""
        from symtrap import cli

        def failing(*args):
            raise ValueError("injected while writing")

        monkeypatch.setattr(cli, "_text_chunks", failing)
        with pytest.raises(ValueError, match="injected while writing"):
            run("chartable", "--n", "3")

    def test_closed_output_file_still_exits_two(self, tmp_path):
        import os
        import time

        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        child = self._child(*self.LONG_TABLE, "--output", str(fifo))
        deadline = time.monotonic() + 60
        data = b""
        while not data and time.monotonic() < deadline:
            try:
                data = os.read(reader, 100)
            except BlockingIOError:
                pass
            time.sleep(0.01)
        os.close(reader)
        out, err = child.communicate(timeout=60)
        assert data
        assert child.returncode == 2
        assert not out
        assert err == f"error: cannot write {fifo}: Broken pipe\n".encode()

    def test_over_budget_sector_block_is_refused(self):
        result = run("sector-basis", "--n", "8", "--irrep", "421^2-", "--lambda-parity", "even")
        assert result.exit_code == 2
        assert not result.stdout
        assert "174182400 amplitudes, over the limit of 100000" in result.stderr

    def test_sector_basis_help_quotes_the_limit(self):
        from symtrap.cli import AMPLITUDE_LIMIT, sector_basis_cmd

        doc = " ".join(sector_basis_cmd.__doc__.split())
        assert f"more than {AMPLITUDE_LIMIT:,} amplitudes" in doc

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

    @pytest.mark.parametrize(
        "layer,name,wrong_at,args",
        [
            ("oscillator", "lambda_reduction", (8, 50), ["reduce-lambda", "--n", "8", "--max-lambda", "60"]),
            ("oscillator", "shell_reduction", (7, 3), ["reduce-shell", "--n", "7", "--max-energy", "4"]),
            ("snippet", "snippet_reduction", (8, "odd"), ["reduce-snippet", "--n", "8"]),
        ],
        ids=["lambda-50", "shell-n7", "snippet-n8"],
    )
    def test_mismatch_past_any_former_guard_exits_three(self, monkeypatch, layer, name, wrong_at, args):
        """Rows at lambda > 24, shells at n > 5 and sectors at n > 6 are checked too."""
        import importlib

        import symtrap.oracle  # noqa: F401  every layer loaded, so no importer binds the fake
        from symtrap.partitions import MultiplicityVector

        module = importlib.import_module(f"symtrap.{layer}")
        right = getattr(module, name)

        def wrong_once(*key):
            reduction = right(*key)
            if key != wrong_at:
                return reduction
            return MultiplicityVector(reduction.keys, (reduction.counts[0] + 1, *reduction.counts[1:]))

        monkeypatch.setattr(module, name, wrong_once)
        assert run(*args).exit_code == 0
        result = run(*args, "--verify")
        assert result.exit_code == 3
        assert not result.stdout
        assert result.stderr.startswith("consistency failure: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["reduce-snippet", "--n", "5"],
            ["sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even"],
        ],
        ids=["reduce-snippet", "sector-basis"],
    )
    def test_a_wrong_inversion_sign_exits_three(self, monkeypatch, args):
        """The certificate derives the inversion sign from its definition, so a
        wrong sign in the builder fails the check, even where the certificate
        would have read the same formula."""
        from symtrap import oracle, snippet

        right = snippet._inversion_sign

        def negated(n, lambda_parity):
            return -right(n, lambda_parity)

        monkeypatch.setattr(snippet, "_inversion_sign", negated)
        monkeypatch.setattr(oracle, "_inversion_sign", negated, raising=False)
        snippet.snippet_reduction.cache_clear()
        try:
            result = run(*args, "--verify")
        finally:
            snippet.snippet_reduction.cache_clear()
        assert result.exit_code == 3
        assert result.stderr.startswith("consistency failure: ")


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
        """Reordered vectors pass the invariance check but not the canonical order."""
        from symtrap import snippet
        from symtrap.snippet import snippet_projection_basis

        def reordered(*args, **kwargs):
            return snippet_projection_basis(*args, **kwargs)[::-1]

        monkeypatch.setattr(snippet, "snippet_projection_basis", reordered)
        args = ["sector-basis", "--n", "4", "--irrep", "2^2+", "--lambda-parity", "even"]
        result = run(*args, *component, "--verify")
        assert result.exit_code == 3
        assert "the [2^2]+ basis is not canonical: " in result.stderr

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
        assert "the [6]+ basis is not canonical: " in result.stderr
        assert run(*args).exit_code == 0

    def test_component_rank_guard_exits_three(self, monkeypatch):
        from symtrap import snippet
        from symtrap.partitions import MultiplicityVector

        real = snippet.snippet_reduction

        def one_extra(n, lambda_parity):
            counts = real(n, lambda_parity)
            return MultiplicityVector(counts.keys, tuple(c + 1 for c in counts.counts))

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


class TestProcessEntry:
    """``entry()``, the process entry, runs with the cyclic collector
    disabled and, once the answer is written, runs the ``atexit`` hooks and
    leaves without interpreter teardown; ``main()``, the in-process entry,
    leaves the collector alone."""

    #: Runs the CLI as ``python -m symtrap.cli`` does.  An exit hook writes
    #: whether the collector is enabled straight to fd 1, after whatever
    #: stdout had flushed; an object set on the package module writes
    #: ``torn down`` to fd 2 when interpreter teardown frees it.
    PROBE = (
        "import atexit, gc, os, runpy, symtrap\n"
        "atexit.register(lambda: os.write(1, f'exit hook, collector enabled: {gc.isenabled()}\\n'.encode()))\n"
        "class Sentinel:\n"
        "    def __del__(self, write=os.write):\n"
        "        write(2, b'torn down\\n')\n"
        "symtrap.sentinel = Sentinel()\n"
        "runpy.run_module('symtrap.cli', run_name='__main__', alter_sys=True)\n"
    )
    HOOK = b"exit hook, collector enabled: False\n"
    BASIS = ["sector-basis", "--n", "6", "--irrep", "21^4+", "--lambda-parity", "even", "--format", "json"]

    #: Makes the sector-basis certificate fail.
    REFUSE = (
        "import symtrap, symtrap.oracle\n"
        "def refuse(*args):\n"
        "    raise symtrap.ConsistencyError('probe refuses the basis')\n"
        "symtrap.oracle.verify_sector_basis = refuse\n"
    )
    REFUSED = ["sector-basis", "--n", "4", "--irrep", "1^4+", "--lambda-parity", "even", "--verify"]

    def probe(self, *args, setup="", stderr=None):
        """Run the probe with ``args``, after the Python code ``setup``;
        its stderr goes to the file ``stderr`` (captured when None)."""
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-c", setup + self.PROBE, *args],
            env={"PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if stderr is None else stderr,
        )

    def test_module_run_exits_after_the_answer(self):
        result = self.probe(*self.BASIS)
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        expected = run_ok(*self.BASIS).encode("utf-8")
        assert len(expected) == 172_218
        assert result.stdout == expected + self.HOOK

    def test_module_run_writes_the_output_file_in_full(self, tmp_path):
        target = tmp_path / "basis.json"
        result = self.probe(*self.BASIS, "--output", str(target))
        assert result.returncode == 0, result.stderr
        assert (result.stdout, result.stderr) == (self.HOOK, b"")
        assert target.read_bytes() == run_ok(*self.BASIS).encode("utf-8")

    def test_module_run_usage_error_still_exits_two(self):
        result = self.probe("sector-basis", "--n", "6")
        assert result.returncode == 2
        assert result.stderr.startswith(b"Usage: ")
        assert result.stderr.endswith(b"\nError: Missing option '--irrep'.\n")
        assert result.stdout == self.HOOK

    def test_module_run_consistency_failure_exits_three(self):
        result = self.probe(*self.REFUSED, setup=self.REFUSE)
        assert result.returncode == 3
        assert result.stderr == b"consistency failure: probe refuses the basis\n"
        assert result.stdout == self.HOOK

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_module_run_consistency_failure_into_a_full_stderr_exits_three(self):
        with open("/dev/full", "wb") as full:
            result = self.probe(*self.REFUSED, setup=self.REFUSE, stderr=full)
        assert result.returncode == 3
        assert result.stdout == self.HOOK

    def test_module_run_bug_exits_one_through_normal_shutdown(self):
        setup = (
            "import symtrap.characters\n"
            "def broken(n):\n"
            "    raise RuntimeError('probe bug')\n"
            "symtrap.characters.character_table_sn = broken\n"
        )
        result = self.probe("chartable", "--n", "3", "--group", "sn", setup=setup)
        assert result.returncode == 1
        assert result.stderr.startswith(b"Traceback (most recent call last):\n")
        assert b"\nRuntimeError: probe bug\n" in result.stderr
        assert b"torn down\n" in result.stderr
        assert result.stdout == self.HOOK

    def test_module_run_skips_teardown(self):
        """The package's object writes only when teardown frees it, as it
        does after a traceback (above); a call that ends never frees it."""
        result = self.probe("chartable", "--n", "3")
        assert result.returncode == 0
        assert b"torn down" not in result.stderr

    def test_main_leaves_the_collector_alone(self):
        import gc

        before = gc.get_freeze_count(), gc.isenabled()
        run_ok("chartable", "--n", "3")
        assert run("sector-basis", "--n", "6").exit_code == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before
