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

import click

from .branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    branch_multiplicity,
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
from .partitions import Partition, partitions_of
from .snippet import (
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)

SCHEMA = "symtrap/1"

EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

_NON_NEGATIVE = click.IntRange(min=0)


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


def _emit(fmt: str, output: str | None, headers, rows, json_obj, title=None) -> None:
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
    built = ComponentPattern(counts, BOSE if stats == "bose" else FERMI)
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


def _run_guarded(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConsistencyError as exc:
            click.echo(f"consistency failure: {exc}", err=True)
            sys.exit(EXIT_INCONSISTENT)
        except (ValueError, SearchExhaustedError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID)

    return wrapper


def _format_option(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", "csv", "json"]),
        default="text",
        show_default=True,
        help="Output format.",
    )(fn)
    return click.option("--output", type=click.Path(writable=True), help="Write to a file.")(fn)


def _check_n(ctx, param, value):
    if not 2 <= value <= TABLE_LIMIT:
        raise click.BadParameter(f"supported particle numbers are 2..{TABLE_LIMIT}")
    return value


def _n_option(fn):
    return click.option(
        "--n", type=int, required=True, callback=_check_n, help="Number of particles."
    )(fn)


@click.group()
@click.version_option(package_name="symtrap")
def main() -> None:
    """Exact symmetry tables, spectra and adiabatic maps for trapped atoms."""


@main.command("chartable")
@_n_option
@click.option(
    "--group",
    type=click.Choice(["sn", "snz2"]),
    default="snz2",
    show_default=True,
    help="Plain permutation group or its parity double.",
)
@_format_option
@_run_guarded
def chartable_cmd(n: int, group: str, fmt: str, output: str | None) -> None:
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
    headers = ["irrep", *class_names]
    rows = [[name, *row] for name, row in zip(irrep_names, table.values)] + extra_rows
    json_obj = {
        "n": n,
        "group": table.group,
        "classes": class_names,
        "class_sizes": list(table.class_sizes),
        "rows": [
            {"irrep": name, "values": list(row)}
            for name, row in zip(irrep_names, table.values)
        ]
        + [{"irrep": row[0], "values": row[1:]} for row in extra_rows],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"character table {table.group}")


@main.command("reduce-shell")
@_n_option
@click.option(
    "--max-energy", type=_NON_NEGATIVE, required=True, help="Largest shell excitation X."
)
@click.option("--verify", is_flag=True, help="Cross-check against explicit matrices.")
@_format_option
@_run_guarded
def reduce_shell_cmd(n: int, max_energy: int, verify: bool, fmt: str, output: str | None) -> None:
    """Irrep content of every oscillator shell up to X = MAX_ENERGY."""
    shapes = partitions_of(n)
    rows = [[x, *shell_reduction(n, x).counts] for x in range(max_energy + 1)]
    if verify:
        _verify_shells(n, max_energy)
    headers = ["X", *[p.label() for p in shapes]]
    json_obj = {
        "n": n,
        "irreps": [list(p.parts) for p in shapes],
        "rows": [{"x": row[0], "counts": row[1:]} for row in rows],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"shell reduction n={n}")


def _verify_shells(n: int, max_energy: int) -> None:
    from .oracle import SHELL_N_LIMIT, SHELL_X_LIMIT, explicit_shell_rep

    if n > SHELL_N_LIMIT:
        click.echo(f"verify: skipped (guard n <= {SHELL_N_LIMIT})", err=True)
        return
    for x in range(min(max_energy, SHELL_X_LIMIT) + 1):
        _, oracle_reduction = explicit_shell_rep(n, x)
        if oracle_reduction.counts != shell_reduction(n, x).counts:
            raise ConsistencyError(f"shell oracle disagrees at n={n}, x={x}")
    if max_energy > SHELL_X_LIMIT:
        click.echo(f"verify: shells above X={SHELL_X_LIMIT} skipped (guard)", err=True)


@main.command("reduce-lambda")
@_n_option
@click.option(
    "--max-lambda", type=_NON_NEGATIVE, required=True, help="Largest grand angular momentum."
)
@click.option(
    "--verify",
    is_flag=True,
    help="Recount each row by Kostka counts and shell subtraction "
    "(rows past the oracle's lambda guard are reported as skipped).",
)
@_format_option
@_run_guarded
def reduce_lambda_cmd(n: int, max_lambda: int, verify: bool, fmt: str, output: str | None) -> None:
    """Irrep content of every hyperangular subspace up to MAX_LAMBDA."""
    shapes = partitions_of(n)
    rows = [[lam, *lambda_reduction(n, lam).counts] for lam in range(max_lambda + 1)]
    if verify:
        _verify_lambdas(n, rows)
    headers = ["lambda", *[p.label() for p in shapes]]
    json_obj = {
        "n": n,
        "irreps": [list(p.parts) for p in shapes],
        "rows": [{"lambda": row[0], "counts": row[1:]} for row in rows],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"lambda reduction n={n}")


def _verify_lambdas(n: int, rows: list[list[int]]) -> None:
    from .oracle import LAMBDA_LIMIT, subtraction_lambda_reduction

    for lam, *counts in rows[: LAMBDA_LIMIT + 1]:
        if tuple(counts) != subtraction_lambda_reduction(n, lam).counts:
            raise ConsistencyError(f"lambda oracle disagrees at n={n}, lambda={lam}")
    if len(rows) > LAMBDA_LIMIT + 1:
        click.echo(f"verify: lambda rows above {LAMBDA_LIMIT} skipped (guard)", err=True)


@main.command("reduce-snippet")
@_n_option
@click.option("--verify", is_flag=True, help="Cross-check against explicit matrices.")
@_format_option
@_run_guarded
def reduce_snippet_cmd(n: int, verify: bool, fmt: str, output: str | None) -> None:
    """Parity-labelled irrep content of one hard-core sector space."""
    even = snippet_reduction(n, "even")
    odd = snippet_reduction(n, "odd")
    if verify:
        _verify_sectors(n)
    rows = [
        [_irrep_text(p, pi), even[(p, pi)], odd[(p, pi)]]
        for (p, pi) in even.keys
    ]
    headers = ["irrep", "even lambda", "odd lambda"]
    json_obj = {
        "n": n,
        "rows": [
            {"irrep": list(p.parts), "pi": pi, "even": even[(p, pi)], "odd": odd[(p, pi)]}
            for (p, pi) in even.keys
        ],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"sector reduction n={n}")


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


@main.command("branch")
@_n_option
@click.option("--pattern", help="Component pattern, e.g. 2,2 (all patterns when omitted).")
@click.option(
    "--stats",
    type=click.Choice(["bose", "fermi"]),
    default="fermi",
    show_default=True,
    help="Exchange statistics for --pattern.",
)
@_format_option
@_run_guarded
def branch_cmd(n: int, pattern: str | None, stats: str, fmt: str, output: str | None) -> None:
    """Multiplicity of each symmetrized component line inside every irrep."""
    shapes = partitions_of(n)
    if pattern:
        selected = [_parse_pattern(n, pattern, stats)]
    else:
        selected = (
            list(patterns_for(n, BOSE))
            + list(patterns_for(n, FERMI))
            + [distinguishable_pattern(n)]
        )
    rows = [
        [pat.label(), *[branch_multiplicity(p, pat) for p in shapes]] for pat in selected
    ]
    headers = ["pattern", *[p.label() for p in shapes]]
    json_obj = {
        "n": n,
        "irreps": [list(p.parts) for p in shapes],
        "rows": [
            {
                "pattern": list(pat.counts),
                "statistics": pat.statistics,
                "counts": row[1:],
            }
            for pat, row in zip(selected, rows)
        ],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"subgroup branching n={n}")


@main.command("degeneracy-table")
@_n_option
@click.option(
    "--by",
    type=click.Choice(["lambda", "shell"]),
    default="lambda",
    show_default=True,
    help="Count states per hyperangular subspace or per whole shell.",
)
@click.option("--max-lambda", type=_NON_NEGATIVE, help="Largest lambda column (--by lambda).")
@click.option("--max-energy", type=_NON_NEGATIVE, help="Largest shell column X (--by shell).")
@_format_option
@_run_guarded
def degeneracy_table_cmd(
    n: int,
    by: str,
    max_lambda: int | None,
    max_energy: int | None,
    fmt: str,
    output: str | None,
) -> None:
    """Symmetrization-allowed state counts for every component pattern."""
    if by == "lambda":
        if max_lambda is None:
            raise ValueError("--max-lambda is required with --by lambda")
        columns = list(range(max_lambda + 1))
        count = lambda pat, col: component_degeneracy(n, col, pat)
        column_head = "lambda"
    else:
        if max_energy is None:
            raise ValueError("--max-energy is required with --by shell")
        columns = list(range(max_energy + 1))
        count = lambda pat, col: cumulative_shell_degeneracy(n, col, pat)
        column_head = "X"
    selected = (
        list(patterns_for(n, BOSE))
        + list(patterns_for(n, FERMI))
        + [distinguishable_pattern(n)]
    )
    rows = [[pat.label(), *[count(pat, col) for col in columns]] for pat in selected]
    headers = ["pattern", *[f"{column_head}={col}" for col in columns]]
    json_obj = {
        "n": n,
        "by": by,
        "columns": columns,
        "rows": [
            {
                "pattern": list(pat.counts),
                "statistics": pat.statistics,
                "counts": row[1:],
            }
            for pat, row in zip(selected, rows)
        ],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"component degeneracies n={n} by {by}")


@main.command("spin-decompose")
@_n_option
@click.option("--k", type=int, required=True, help="Number of spin components.")
@_format_option
@_run_guarded
def spin_decompose_cmd(n: int, k: int, fmt: str, output: str | None) -> None:
    """Permutation content of the k-component spin space."""
    reduction = spin_decomposition(n, k)
    rows = [[p.label(), count] for p, count in reduction.items()]
    headers = ["irrep", "multiplicity"]
    json_obj = {
        "n": n,
        "k": k,
        "rows": [
            {"irrep": list(p.parts), "multiplicity": count}
            for p, count in reduction.items()
        ],
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"spin decomposition n={n}, k={k}")


@main.command("spectrum")
@_n_option
@click.option("--state", required=True, help="Source level: nu_R,nu_rho,lambda,partition.")
@click.option(
    "--max-energy", type=_NON_NEGATIVE, required=True, help="Largest excitation listed."
)
@_format_option
@_run_guarded
def spectrum_cmd(n: int, state: str, max_energy: int, fmt: str, output: str | None) -> None:
    """Both exact-limit spectra of the symmetry class containing STATE."""
    hyper, p = _parse_state(n, state)
    mu = GNLabel(hyper.nu_r, hyper.parity, p)
    rows = []
    json_rows = []
    for regime, tag in ((G_ZERO, "g=0"), (G_INF, "g=inf")):
        for entry in spectrum_by_irrep(n, regime, mu, max_energy):
            rows.append(
                [
                    tag,
                    _energy_cell(n, entry.hyper.excitation),
                    str(entry.hyper),
                    entry.multiplicity,
                ]
            )
            json_rows.append(
                {
                    "regime": tag,
                    "energy": _energy_cell(n, entry.hyper.excitation),
                    "level": [entry.hyper.nu_r, entry.hyper.nu_rho, entry.hyper.lam],
                    "multiplicity": entry.multiplicity,
                }
            )
    headers = ["regime", "energy", "level", "multiplicity"]
    json_obj = {
        "n": n,
        "mu": {"nu_r": mu.nu_r, "pi": mu.pi, "irrep": list(mu.p.parts)},
        "rows": json_rows,
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"spectrum of {mu}")


@main.command("map")
@_n_option
@click.option("--state", required=True, help="Source level: nu_R,nu_rho,lambda,partition.")
@click.option("--tau", type=int, default=0, show_default=True, help="Copy index at the source level.")
@click.option("--component", help="Subgroup irrep tag echoed in the output, e.g. 1^2x1^2.")
@click.option(
    "--ceiling", type=_NON_NEGATIVE, help="Extra excitation searched above the source."
)
@_format_option
@_run_guarded
def map_cmd(
    n: int,
    state: str,
    tau: int,
    component: str | None,
    ceiling: int | None,
    fmt: str,
    output: str | None,
) -> None:
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
    headers = ["role", "level", "energy"]
    json_obj = {
        "n": n,
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
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"adiabatic map n={n}")


@main.command("ground-state")
@_n_option
@click.option("--pattern", required=True, help="Component pattern, e.g. 2,2.")
@click.option(
    "--stats",
    type=click.Choice(["bose", "fermi"]),
    default="fermi",
    show_default=True,
    help="Exchange statistics.",
)
@click.option(
    "--regime",
    type=click.Choice([G_ZERO, G_INF]),
    default=G_ZERO,
    show_default=True,
    help="Exact limit to search.",
)
@_format_option
@_run_guarded
def ground_state_cmd(
    n: int, pattern: str, stats: str, regime: str, fmt: str, output: str | None
) -> None:
    """Lowest levels admitting the pattern's symmetrization."""
    built = _parse_pattern(n, pattern, stats)
    labels = ground_state(n, built, regime=regime)
    rows = [
        [str(label), _energy_text(n, label.hyper.excitation)] for label in labels
    ]
    headers = ["state", "energy"]
    json_obj = {
        "n": n,
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
        "schema": SCHEMA,
    }
    _emit(fmt, output, headers, rows, json_obj, title=f"ground states {built.label()} at {regime}")


@main.command("sector-basis")
@_n_option
@click.option("--irrep", required=True, help="Parity-labelled irrep, e.g. '2^2+'.")
@click.option(
    "--lambda-parity",
    type=click.Choice(["even", "odd"]),
    required=True,
    help="Hyperangular parity of the seed level.",
)
@click.option("--component", help="Project further onto a subgroup line, e.g. 1^2x1^2.")
@click.option("--verify", is_flag=True, help="Re-check orthogonality and invariance.")
@_format_option
@_run_guarded
def sector_basis_cmd(
    n: int,
    irrep: str,
    lambda_parity: str,
    component: str | None,
    verify: bool,
    fmt: str,
    output: str | None,
) -> None:
    """Exact symmetrized amplitude vectors over the ordering sectors."""
    body = irrep.strip()
    if body.endswith("+"):
        pi = 1
    elif body.endswith("-"):
        pi = -1
    else:
        raise ValueError("irrep needs a parity suffix, e.g. '2^2+' or '21^2-'")
    p = Partition.parse(body[:-1])
    pattern = _parse_component_tag(n, component) if component else None
    vectors = snippet_projection_basis(n, lambda_parity, p, pi, component=pattern)
    if verify:
        _verify_basis(vectors)
    headers = ["sector", *[f"v{i + 1}" for i in range(len(vectors))]]
    rows = []
    if vectors:
        for idx, sector in enumerate(vectors[0].items()):
            ordering = "".join(str(d) for d in sector[0])
            rows.append([ordering, *[v.amps[idx] for v in vectors]])
    labels = [str(v.label) if v.label else f"component line {i + 1}" for i, v in enumerate(vectors)]
    json_obj = {
        "n": n,
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
        "schema": SCHEMA,
    }
    title = f"sector basis {_irrep_text(p, pi)} ({lambda_parity} lambda)"
    if labels:
        title += "\n" + "\n".join(
            f"  v{i + 1}: {label}  norm^2 = {vectors[i].norm_sq}"
            for i, label in enumerate(labels)
        )
    _emit(fmt, output, headers, rows, json_obj, title=title)


def _verify_basis(vectors) -> None:
    from .linalg import dot

    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            if dot(a.amps, b.amps) != 0:
                raise ConsistencyError("sector basis vectors are not orthogonal")
        if dot(a.amps, a.amps) != a.norm_sq:
            raise ConsistencyError("sector vector norm bookkeeping is wrong")


if __name__ == "__main__":
    main()
