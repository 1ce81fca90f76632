"""Command-line front end: tables, spectra, maps and sector bases.

Output is deterministic byte-for-byte across runs.  Text mode renders
aligned tables, ``--format csv`` machine-readable integer cells, and
``--format json`` objects tagged ``"schema": "symtrap/1"``.  Exit codes:
0 success, 2 invalid input, 3 failed internal consistency check.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import wraps
from math import factorial

import click

from .branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    branch_row,
    component_degeneracy,
    cumulative_shell_degeneracy,
    distinguishable_pattern,
    patterns_for,
    spin_decomposition,
)
from .characters import TABLE_LIMIT, character_table_sn, character_table_snz2
from .errors import ConsistencyError
from .mapping import (
    G_INF,
    G_ZERO,
    GNLabel,
    SearchExhaustedError,
    StateLabel,
    adiabatic_map,
    ground_state,
    spectrum_by_irrep,
)
from .oscillator import HypercylindricalLabel, lambda_reduction, shell_reduction
from .partitions import Partition, irrep_dimension, partitions_of
from .snippet import (
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)

SCHEMA = "symtrap/1"

EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

_NON_NEGATIVE = click.IntRange(min=0)

#: Largest sector basis ``sector-basis`` builds, in printed amplitudes.  The
#: largest n=6 block, [321] with 128 vectors of 720, has 92,160; at n=7 the
#: limit admits [7], [61], [21^5] and [1^7] (at most 18 vectors, under a second).
AMPLITUDE_LIMIT = 100_000


def _energy_text(n: int, x: int) -> str:
    return f"E = {2 * x + n}/2 ħω"


def _energy_cell(n: int, x: int) -> str:
    return f"{2 * x + n}/2"


def _irrep_text(p: Partition, pi: int | None = None) -> str:
    suffix = "" if pi is None else ("+" if pi > 0 else "-")
    return f"{p.label()}{suffix}"


def _render_text(headers: list[str], rows: list[list], title: str | None = None) -> str:
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


def _render_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _emit(fmt: str, output: str | None, title: str, headers, rows, json_obj) -> None:
    if fmt == "text":
        payload = _render_text(headers, rows, title)
    elif fmt == "csv":
        payload = _render_csv(headers, rows)
    else:
        payload = _render_json(json_obj)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        click.echo(payload, nl=False)


def _parse_state(n: int, text: str) -> tuple[HypercylindricalLabel, Partition]:
    tokens = text.split(",")
    if len(tokens) < 4:
        raise ValueError(
            "state must be 'nu_R,nu_rho,lambda,partition', e.g. 0,0,1,21"
        )
    hyper = HypercylindricalLabel(int(tokens[0]), int(tokens[1]), int(tokens[2]))
    p = Partition.parse(",".join(tokens[3:]) if len(tokens) > 4 else tokens[3])
    if p.n != n:
        raise ValueError(f"partition {p} does not label an irrep of S_{n}")
    return hyper, p


def _parse_pattern(n: int, pattern: str, stats: str) -> ComponentPattern:
    counts = tuple(int(tok) for tok in pattern.split(","))
    built = ComponentPattern(counts, stats)
    if built.n != n:
        raise ValueError(f"pattern {built} does not describe {n} particles")
    return built


def _parse_component_tag(n: int, text: str) -> ComponentPattern:
    """Parse a subgroup irrep tag such as ``1^2x1^2`` or ``2x2``.

    Symmetric blocks ``[k]`` mean bosonic exchange, antisymmetric blocks
    ``[1^k]`` fermionic; missing particles are padded with singlets.
    """
    counts: list[int] = []
    statistics = None
    for block in text.replace("[", "").replace("]", "").split("x"):
        block = block.strip()
        if not block:
            raise ValueError(f"cannot parse component tag {text!r}")
        if "^" in block:
            base, _, exp = block.partition("^")
            if base != "1":
                raise ValueError(f"cannot parse component block {block!r}")
            counts.append(int(exp))
            if int(exp) > 1:
                statistics = _merge_stats(statistics, FERMI, text)
        else:
            counts.append(int(block))
            if int(block) > 1:
                statistics = _merge_stats(statistics, BOSE, text)
    counts.extend([1] * (n - sum(counts)))
    if sum(counts) != n:
        raise ValueError(f"component tag {text!r} involves more than {n} particles")
    return ComponentPattern(tuple(counts), statistics or FERMI)


def _merge_stats(current: str | None, new: str, text: str) -> str:
    if current is not None and current != new:
        raise ValueError(f"component tag {text!r} mixes symmetric and antisymmetric blocks")
    return new


def _check_n(ctx, param, value):
    if not 2 <= value <= TABLE_LIMIT:
        raise click.BadParameter(f"supported particle numbers are 2..{TABLE_LIMIT}")
    return value


_N_OPTION = click.option(
    "--n", type=int, required=True, callback=_check_n, help="Number of particles."
)
_OUTPUT_OPTION = click.option("--output", type=click.Path(writable=True), help="Write to a file.")
_FORMAT_OPTION = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv", "json"]),
    default="text",
    show_default=True,
    help="Output format.",
)


@click.group()
@click.version_option(package_name="symtrap")
def main() -> None:
    """Exact symmetry tables, spectra and adiabatic maps for trapped atoms."""


def _command(name: str, *options):
    """Register the decorated function as the command ``name``.

    The command takes ``--n``, then ``options``, then ``--output`` and
    ``--format``.  The function receives ``n`` and its own options and
    returns ``(title, headers, rows, body)``: text and csv render the
    table, JSON the ``body`` between ``"n"`` and ``"schema"``.  Invalid
    input exits 2, a failed consistency check exits 3.
    """

    def register(fn):
        @wraps(fn)
        def run(n: int, fmt: str, output: str | None, **kwargs) -> None:
            try:
                title, headers, rows, body = fn(n, **kwargs)
                _emit(fmt, output, title, headers, rows, {"n": n, **body, "schema": SCHEMA})
            except ConsistencyError as exc:
                click.echo(f"consistency failure: {exc}", err=True)
                sys.exit(EXIT_INCONSISTENT)
            except (ValueError, SearchExhaustedError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_INVALID)

        for option in reversed((_N_OPTION, *options, _OUTPUT_OPTION, _FORMAT_OPTION)):
            run = option(run)
        return main.command(name)(run)

    return register


def _verify(text: str):
    return click.option("--verify", is_flag=True, help=text)


_STATS = dict(type=click.Choice(["bose", "fermi"]), default="fermi", show_default=True)
_STATE = click.option(
    "--state", required=True, help="Source level: nu_R,nu_rho,lambda,partition."
)


@_command(
    "chartable",
    click.option(
        "--group",
        type=click.Choice(["sn", "snz2"]),
        default="snz2",
        show_default=True,
        help="Plain permutation group or its parity double.",
    ),
)
def chartable_cmd(n: int, group: str):
    """Print the character table, sector characters appended for snz2."""
    if group == "sn":
        table = character_table_sn(n)
        class_names = [c.label() for c in table.classes]
        irrep_names = [p.label() for p in table.irreps]
        extra_rows = []
    else:
        table = character_table_snz2(n)
        class_names = [("i" if inv else "") + c.label() for c, inv in table.classes]
        irrep_names = [_irrep_text(p, pi) for p, pi in table.irreps]
        extra_rows = [
            [f"{parity} lambda", *sector_rep_characters(n, parity).values]
            for parity in ("even", "odd")
        ]
    rows = [[name, *row] for name, row in zip(irrep_names, table.values)] + extra_rows
    body = {
        "group": table.group,
        "classes": class_names,
        "class_sizes": list(table.class_sizes),
        "rows": [{"irrep": row[0], "values": row[1:]} for row in rows],
    }
    return f"character table {table.group}", ["irrep", *class_names], rows, body


def _reduction_table(n: int, top: int, verify: bool, reduce, check, column: str, title: str):
    """One row of ``reduce(n, k)`` per ``k`` up to ``top``; ``check`` re-derives the rows."""
    shapes = partitions_of(n)
    rows = [[k, *reduce(n, k).counts] for k in range(top + 1)]
    if verify:
        check(n, rows)
    body = {
        "irreps": [list(p.parts) for p in shapes],
        "rows": [{column.lower(): row[0], "counts": row[1:]} for row in rows],
    }
    return f"{title} n={n}", [column, *[p.label() for p in shapes]], rows, body


@_command(
    "reduce-shell",
    click.option(
        "--max-energy", type=_NON_NEGATIVE, required=True, help="Largest shell excitation X."
    ),
    _verify(
        "Cross-check each shell against explicit permutation matrices for n <= 5 "
        "and X <= 8 (the rest is reported as skipped); exit 3 on a mismatch."
    ),
)
def reduce_shell_cmd(n: int, max_energy: int, verify: bool):
    """Irrep content of every oscillator shell up to X = MAX_ENERGY."""
    return _reduction_table(
        n, max_energy, verify, shell_reduction, _verify_shells, "X", "shell reduction"
    )


def _verify_shells(n: int, rows: list[list[int]]) -> None:
    from .oracle import SHELL_N_LIMIT, SHELL_X_LIMIT, explicit_shell_rep

    if n > SHELL_N_LIMIT:
        click.echo(f"verify: skipped (guard n <= {SHELL_N_LIMIT})", err=True)
        return
    for x, *counts in rows[: SHELL_X_LIMIT + 1]:
        if explicit_shell_rep(n, x)[1].counts != tuple(counts):
            raise ConsistencyError(f"shell oracle disagrees at n={n}, x={x}")
    if len(rows) > SHELL_X_LIMIT + 1:
        click.echo(f"verify: shells above X={SHELL_X_LIMIT} skipped (guard)", err=True)


@_command(
    "reduce-lambda",
    click.option(
        "--max-lambda", type=_NON_NEGATIVE, required=True, help="Largest grand angular momentum."
    ),
    _verify(
        "Recount each row by Kostka counts and shell subtraction for lambda <= 24 "
        "(later rows are reported as skipped); exit 3 on a mismatch."
    ),
)
def reduce_lambda_cmd(n: int, max_lambda: int, verify: bool):
    """Irrep content of every hyperangular subspace up to MAX_LAMBDA."""
    return _reduction_table(
        n, max_lambda, verify, lambda_reduction, _verify_lambdas, "lambda", "lambda reduction"
    )


def _verify_lambdas(n: int, rows: list[list[int]]) -> None:
    from .oracle import LAMBDA_LIMIT, subtraction_lambda_reduction

    for lam, *counts in rows[: LAMBDA_LIMIT + 1]:
        if tuple(counts) != subtraction_lambda_reduction(n, lam).counts:
            raise ConsistencyError(f"lambda oracle disagrees at n={n}, lambda={lam}")
    if len(rows) > LAMBDA_LIMIT + 1:
        click.echo(f"verify: lambda rows above {LAMBDA_LIMIT} skipped (guard)", err=True)


@_command(
    "reduce-snippet",
    _verify(
        "Cross-check characters and reduction against explicit sector matrices "
        "for n <= 6 (skipped above); exit 3 on a mismatch."
    ),
)
def reduce_snippet_cmd(n: int, verify: bool):
    """Parity-labelled irrep content of one hard-core sector space."""
    even = snippet_reduction(n, "even")
    odd = snippet_reduction(n, "odd")
    if verify:
        _verify_sectors(n)
    rows = [
        [_irrep_text(p, pi), even[(p, pi)], odd[(p, pi)]]
        for (p, pi) in even.keys
    ]
    body = {
        "rows": [
            {"irrep": list(p.parts), "pi": pi, "even": even[(p, pi)], "odd": odd[(p, pi)]}
            for (p, pi) in even.keys
        ],
    }
    return f"sector reduction n={n}", ["irrep", "even lambda", "odd lambda"], rows, body


def _verify_sectors(n: int) -> None:
    from .oracle import SECTOR_N_LIMIT, explicit_sector_rep

    if n > SECTOR_N_LIMIT:
        click.echo(f"verify: skipped (guard n <= {SECTOR_N_LIMIT})", err=True)
        return
    for parity in ("even", "odd"):
        rep, oracle_reduction = explicit_sector_rep(n, parity)
        if rep.traces != sector_rep_characters(n, parity).values:
            raise ConsistencyError(f"sector characters disagree for n={n}, {parity}")
        if oracle_reduction.counts != snippet_reduction(n, parity).counts:
            raise ConsistencyError(f"sector oracle disagrees for n={n}, {parity}")


def _all_patterns(n: int) -> list[ComponentPattern]:
    return [*patterns_for(n, BOSE), *patterns_for(n, FERMI), distinguishable_pattern(n)]


def _pattern_table(title: str, patterns, columns: list[str], cells, meta: dict):
    """One row of ``cells(pattern)`` per pattern, tagged by counts and statistics in JSON."""
    rows = [[pat.label(), *cells(pat)] for pat in patterns]
    body = {
        **meta,
        "rows": [
            {"pattern": list(pat.counts), "statistics": pat.statistics, "counts": row[1:]}
            for pat, row in zip(patterns, rows)
        ],
    }
    return title, ["pattern", *columns], rows, body


@_command(
    "branch",
    click.option("--pattern", help="Component pattern, e.g. 2,2 (all patterns when omitted)."),
    click.option("--stats", **_STATS, help="Exchange statistics for --pattern."),
)
def branch_cmd(n: int, pattern: str | None, stats: str):
    """Multiplicity of each symmetrized component line inside every irrep."""
    shapes = partitions_of(n)
    selected = [_parse_pattern(n, pattern, stats)] if pattern else _all_patterns(n)
    return _pattern_table(
        f"subgroup branching n={n}",
        selected,
        [p.label() for p in shapes],
        branch_row,
        {"irreps": [list(p.parts) for p in shapes]},
    )


@_command(
    "degeneracy-table",
    click.option(
        "--by",
        type=click.Choice(["lambda", "shell"]),
        default="lambda",
        show_default=True,
        help="Count states per hyperangular subspace or per whole shell.",
    ),
    click.option("--max-lambda", type=_NON_NEGATIVE, help="Largest lambda column (--by lambda)."),
    click.option("--max-energy", type=_NON_NEGATIVE, help="Largest shell column X (--by shell)."),
)
def degeneracy_table_cmd(n: int, by: str, max_lambda: int | None, max_energy: int | None):
    """Symmetrization-allowed state counts for every component pattern."""
    if by == "lambda":
        if max_lambda is None:
            raise ValueError("--max-lambda is required with --by lambda")
        top, count, column_head = max_lambda, component_degeneracy, "lambda"
    else:
        if max_energy is None:
            raise ValueError("--max-energy is required with --by shell")
        top, count, column_head = max_energy, cumulative_shell_degeneracy, "X"
    columns = list(range(top + 1))
    return _pattern_table(
        f"component degeneracies n={n} by {by}",
        _all_patterns(n),
        [f"{column_head}={col}" for col in columns],
        lambda pat: [count(n, col, pat) for col in columns],
        {"by": by, "columns": columns},
    )


@_command(
    "spin-decompose",
    click.option("--k", type=int, required=True, help="Number of spin components."),
)
def spin_decompose_cmd(n: int, k: int):
    """Permutation content of the k-component spin space."""
    reduction = spin_decomposition(n, k)
    rows = [[p.label(), count] for p, count in reduction.items()]
    body = {
        "k": k,
        "rows": [
            {"irrep": list(p.parts), "multiplicity": count}
            for p, count in reduction.items()
        ],
    }
    return f"spin decomposition n={n}, k={k}", ["irrep", "multiplicity"], rows, body


@_command(
    "spectrum",
    _STATE,
    click.option(
        "--max-energy", type=_NON_NEGATIVE, required=True, help="Largest excitation listed."
    ),
)
def spectrum_cmd(n: int, state: str, max_energy: int):
    """Both exact-limit spectra of the symmetry class containing STATE."""
    hyper, p = _parse_state(n, state)
    mu = GNLabel(hyper.nu_r, hyper.parity, p)
    rows = []
    json_rows = []
    for regime, tag in ((G_ZERO, "g=0"), (G_INF, "g=inf")):
        for entry in spectrum_by_irrep(n, regime, mu, max_energy):
            level = entry.hyper
            energy = _energy_cell(n, level.excitation)
            rows.append([tag, energy, str(level), entry.multiplicity])
            json_rows.append(
                {
                    "regime": tag,
                    "energy": energy,
                    "level": [level.nu_r, level.nu_rho, level.lam],
                    "multiplicity": entry.multiplicity,
                }
            )
    body = {
        "mu": {"nu_r": mu.nu_r, "pi": mu.pi, "irrep": list(mu.p.parts)},
        "rows": json_rows,
    }
    return f"spectrum of {mu}", ["regime", "energy", "level", "multiplicity"], rows, body


@_command(
    "map",
    _STATE,
    click.option(
        "--tau", type=int, default=0, show_default=True, help="Copy index at the source level."
    ),
    click.option("--component", help="Subgroup irrep tag echoed in the output, e.g. 1^2x1^2."),
    click.option(
        "--ceiling",
        type=_NON_NEGATIVE,
        help="Extra excitation searched above the source (default 4n); "
        "exit 2 when no image lies within it.",
    ),
)
def map_cmd(n: int, state: str, tau: int, component: str | None, ceiling: int | None):
    """Adiabatic hard-core image of a free-limit level."""
    hyper, p = _parse_state(n, state)
    source = StateLabel(hyper, p, tau=tau, component=component, regime=G_ZERO)
    result = adiabatic_map(n, source, extra_energy=ceiling)
    target = result.target_hyper
    status = "resolved" if result.resolved else "unresolved"
    note = " convention-ordered" if result.convention_ordered else ""
    line = (
        f"{target.nu_r},{target.nu_rho},{target.lam} "
        f"{_irrep_text(result.target_p, result.target_pi)} "
        f"dim={result.target_dimension} {status}{note}"
    )
    rows = [
        ["source", str(source), _energy_text(n, hyper.excitation)],
        ["target", line, _energy_text(n, target.excitation)],
    ]
    body = {
        "source": {
            "level": [hyper.nu_r, hyper.nu_rho, hyper.lam],
            "irrep": list(p.parts),
            "tau": tau,
            "component": component,
            "energy": _energy_cell(n, hyper.excitation),
        },
        "target": {
            "level": [target.nu_r, target.nu_rho, target.lam],
            "irrep": list(result.target_p.parts),
            "pi": result.target_pi,
            "dimension": result.target_dimension,
            "resolved": result.resolved,
            "convention_ordered": result.convention_ordered,
            "energy": _energy_cell(n, target.excitation),
        },
    }
    return f"adiabatic map n={n}", ["role", "level", "energy"], rows, body


@_command(
    "ground-state",
    click.option("--pattern", required=True, help="Component pattern, e.g. 2,2."),
    click.option("--stats", **_STATS, help="Exchange statistics."),
    click.option(
        "--regime",
        type=click.Choice([G_ZERO, G_INF]),
        default=G_ZERO,
        show_default=True,
        help="Exact limit to search, up to 4n quanta; exit 2 when no level "
        "there admits the pattern.",
    ),
)
def ground_state_cmd(n: int, pattern: str, stats: str, regime: str):
    """Lowest levels admitting the pattern's symmetrization."""
    built = _parse_pattern(n, pattern, stats)
    labels = ground_state(n, built, regime=regime)
    rows = [
        [str(label), _energy_text(n, label.hyper.excitation)] for label in labels
    ]
    body = {
        "pattern": list(built.counts),
        "statistics": built.statistics,
        "regime": regime,
        "rows": [
            {
                "level": [label.hyper.nu_r, label.hyper.nu_rho, label.hyper.lam],
                "irrep": list(label.p.parts),
                "pi": label.pi,
                "tau": label.tau,
                "component": label.component,
                "energy": _energy_cell(n, label.hyper.excitation),
            }
            for label in labels
        ],
    }
    return f"ground states {built.label()} at {regime}", ["state", "energy"], rows, body


@_command(
    "sector-basis",
    click.option("--irrep", required=True, help="Parity-labelled irrep, e.g. '2^2+'."),
    click.option(
        "--lambda-parity",
        type=click.Choice(["even", "odd"]),
        required=True,
        help="Hyperangular parity of the seed level.",
    ),
    click.option("--component", help="Project further onto a subgroup line, e.g. 1^2x1^2."),
    _verify(
        "Re-check orthogonality and invariance; for n <= 5 also rebuild the "
        "basis by subgroup sums and compare; exit 3 on a failure."
    ),
)
def sector_basis_cmd(
    n: int, irrep: str, lambda_parity: str, component: str | None, verify: bool
):
    """Exact symmetrized amplitude vectors over the ordering sectors.

    A block of more than 100,000 amplitudes (multiplicity times dimension
    times n! sectors) is refused with exit 2; every n=6 block fits.
    """
    text = irrep.strip()
    if text.endswith("+"):
        pi = 1
    elif text.endswith("-"):
        pi = -1
    else:
        raise ValueError("irrep needs a parity suffix, e.g. '2^2+' or '21^2-'")
    p = Partition.parse(text[:-1])
    pattern = _parse_component_tag(n, component) if component else None
    size = snippet_reduction(n, lambda_parity).get((p, pi)) * irrep_dimension(p) * factorial(n)
    if size > AMPLITUDE_LIMIT:
        raise ValueError(
            f"the {_irrep_text(p, pi)} block at n={n} has {size} amplitudes, "
            f"over the limit of {AMPLITUDE_LIMIT}"
        )
    vectors = snippet_projection_basis(n, lambda_parity, p, pi, component=pattern)
    if verify:
        from .oracle import CHAIN_N_LIMIT, subgroup_chain_basis, verify_sector_basis

        verify_sector_basis(n, lambda_parity, pi, vectors, pattern)
        if n > CHAIN_N_LIMIT:
            click.echo(
                f"verify: subgroup-sum rebuild skipped (guard n <= {CHAIN_N_LIMIT})", err=True
            )
        elif subgroup_chain_basis(n, lambda_parity, p, pi, pattern) != vectors:
            raise ConsistencyError(f"subgroup sums give another basis for {_irrep_text(p, pi)}")
    headers = ["sector", *[f"v{i + 1}" for i in range(len(vectors))]]
    rows = []
    if vectors:
        for idx, sector in enumerate(vectors[0].items()):
            ordering = "".join(str(d) for d in sector[0])
            rows.append([ordering, *[v.amps[idx] for v in vectors]])
    labels = [str(v.label) if v.label else f"component line {i + 1}" for i, v in enumerate(vectors)]
    body = {
        "irrep": list(p.parts),
        "pi": pi,
        "lambda_parity": lambda_parity,
        "component": component,
        "vectors": [
            {
                "label": labels[i],
                "amplitudes": list(v.amps),
                "norm_sq": v.norm_sq,
            }
            for i, v in enumerate(vectors)
        ],
        "rows": rows,
    }
    title = f"sector basis {_irrep_text(p, pi)} ({lambda_parity} lambda)"
    if labels:
        title += "\n" + "\n".join(
            f"  v{i + 1}: {label}  norm^2 = {vectors[i].norm_sq}"
            for i, label in enumerate(labels)
        )
    return title, headers, rows, body


if __name__ == "__main__":
    main()
