"""Command-line front end: tables, spectra, maps and sector bases.

Output is deterministic byte-for-byte across runs.  Text mode renders
aligned tables, ``--format csv`` machine-readable integer cells, and
``--format json`` objects tagged ``"schema": "symtrap/1"``.  Exit codes:
0 success, 2 invalid input, 3 failed internal consistency check.
"""

from __future__ import annotations

import os
import sys
from math import factorial
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .errors import ConsistencyError, SearchExhaustedError

if TYPE_CHECKING:
    from .branching import ComponentPattern
    from .oscillator import HypercylindricalLabel
    from .partitions import Partition

SCHEMA = "symtrap/1"

EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

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
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_json(obj: dict) -> str:
    import json

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
        _write(sys.stdout, payload)


def _write(stream, text: str) -> None:
    stream.write(text)
    stream.flush()


def _warn(message: str) -> None:
    _write(sys.stderr, f"{message}\n")


def _parse_state(n: int, text: str) -> tuple[HypercylindricalLabel, Partition]:
    from .oscillator import HypercylindricalLabel
    from .partitions import Partition

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
    from .branching import ComponentPattern

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
    from .branching import BOSE, FERMI, ComponentPattern

    counts: list[int] = []
    statistics = None
    for block in text.replace("[", "").replace("]", "").split("x"):
        base, caret, exp = block.strip().partition("^")
        size = exp if caret else base
        if not size.isdigit() or (caret and base != "1"):
            raise ValueError(f"cannot parse component tag {text!r}")
        counts.append(int(size))
        if int(size) > 1:
            statistics = _merge_stats(statistics, FERMI if caret else BOSE, text)
    counts.extend([1] * (n - sum(counts)))
    if sum(counts) != n:
        raise ValueError(f"component tag {text!r} involves more than {n} particles")
    return ComponentPattern(tuple(counts), statistics or FERMI)


def _merge_stats(current: str | None, new: str, text: str) -> str:
    if current is not None and current != new:
        raise ValueError(f"component tag {text!r} mixes symmetric and antisymmetric blocks")
    return new


# --- the command line ---------------------------------------------------------
#
# One table drives parsing, help and errors: ``COMMANDS`` maps each command
# name to its options and function.  The layout, wording and exit codes are
# those click 8.4.0 gave this program (tests/golden/usage pins them), so
# scripts that read its help or errors see no change.


class _Choice(tuple):
    """Converter accepting exactly one of the given words."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, self))}.")
        return text


def _integer(text: str, kind: str = "integer") -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid {kind}.") from None


def _non_negative(text: str) -> int:
    value = _integer(text, "integer range")
    if value < 0:
        raise ValueError(f"{value} is not in the range x>=0.")
    return value


def _particle_number(text: str) -> int:
    from .partitions import TABLE_LIMIT

    n = _integer(text)
    if not 2 <= n <= TABLE_LIMIT:
        raise ValueError(f"supported particle numbers are 2..{TABLE_LIMIT}")
    return n


def _writable_path(text: str) -> str:
    """A file name; a file that exists already must be readable and writable."""
    try:
        os.stat(text)
    except OSError:
        return text
    for mode, word in ((os.R_OK, "readable"), (os.W_OK, "writable")):
        if not os.access(text, mode):
            shown = text.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
            raise ValueError(f"Path {shown!r} is not {word}.")
    return text


_METAVARS = {
    _integer: "INTEGER",
    _particle_number: "INTEGER",
    _non_negative: "INTEGER RANGE",
    str: "TEXT",
    _writable_path: "PATH",
}


class _Option(NamedTuple):
    """``flag`` stores ``convert(text)`` as ``dest``; ``convert`` is None for a flag.

    A converter raises ``ValueError`` with the message a usage error shows.
    Help shows the ``default`` of every option that takes a value.
    """

    flag: str
    dest: str
    convert: Callable[[str], object] | None
    required: bool
    default: object
    help: str

    def help_row(self) -> tuple[str, str]:
        term = self.flag
        if isinstance(self.convert, _Choice):
            term += f" [{'|'.join(self.convert)}]"
        elif self.convert is not None:
            term += f" {_METAVARS[self.convert]}"
        extras = []
        if self.default is not None and self.convert is not None:
            extras.append(f"default: {self.default}")
        if self.convert is _non_negative:
            extras.append("x>=0")
        if self.required:
            extras.append("required")
        return term, f"{self.help}  [{'; '.join(extras)}]" if extras else self.help


def _option(flag: str, convert, help: str, *, dest: str | None = None, required: bool = False,
            default=None) -> _Option:
    dest = dest or flag[2:].replace("-", "_")
    return _Option(flag, dest, convert, required, default, help)


class _Command(NamedTuple):
    options: tuple[_Option, ...]
    #: ``fn(n, **options)`` returns ``(title, headers, rows, body)``.
    fn: Callable


#: Every command by name, in the order registered.
COMMANDS: dict[str, _Command] = {}

_N_OPTION = _option("--n", _particle_number, "Number of particles.", required=True)
_OUTPUT_OPTION = _option("--output", _writable_path, "Write to a file.")
_FORMAT_OPTION = _option(
    "--format",
    _Choice(("text", "csv", "json")),
    "Output format.",
    dest="fmt",
    default="text",
)
_TOP_LEVEL = "Exact symmetry tables, spectra and adiabatic maps for trapped atoms."
_TOP_LEVEL_PIECES = "[OPTIONS] COMMAND [ARGS]..."
_VERSION_ROW = ("--version", "Show the version and exit.")
_HELP_ROW = ("--help", "Show this message and exit.")


def _command(name: str, *options: _Option):
    """Register the decorated function as the command ``name``.

    The command takes ``--n``, then ``options``, then ``--output`` and
    ``--format``.  The function receives ``n`` and its own options and
    returns ``(title, headers, rows, body)``: text and csv render the
    table, JSON the ``body`` between ``"n"`` and ``"schema"``.  Invalid
    input exits 2, a failed consistency check exits 3.
    """

    def register(fn):
        COMMANDS[name] = _Command((_N_OPTION, *options, _OUTPUT_OPTION, _FORMAT_OPTION), fn)
        return fn

    return register


def _run(command: _Command, values: dict) -> int:
    n, fmt, output = values.pop("n"), values.pop("fmt"), values.pop("output")
    try:
        title, headers, rows, body = command.fn(n, **values)
        _emit(fmt, output, title, headers, rows, {"n": n, **body, "schema": SCHEMA})
    except ConsistencyError as exc:
        _warn(f"consistency failure: {exc}")
        return EXIT_INCONSISTENT
    except (ValueError, SearchExhaustedError) as exc:
        _warn(f"error: {exc}")
        return EXIT_INVALID
    except OSError as exc:
        _warn(f"error: cannot write {output or 'stdout'}: {exc.strerror}")
        return EXIT_INVALID
    return 0


class _UsageError(Exception):
    """A command line that cannot run.  ``usage`` is ``(command path, usage
    pieces)`` for the usage line and help hint printed above the message;
    None prints the message alone."""

    def __init__(self, message: str, usage: tuple[str, str] | None = None) -> None:
        super().__init__(message)
        self.message, self.usage = message, usage

    def show(self) -> None:
        text = f"Error: {self.message}\n"
        if self.usage:
            path, pieces = self.usage
            hint = f"Try '{path} --help' for help."
            text = f"{_usage_line(path, pieces, _help_width())}\n{hint}\n\n{text}"
        _write(sys.stderr, text)


def _did_you_mean(word: str, candidates) -> str:
    from difflib import get_close_matches

    matches = sorted(get_close_matches(word, candidates))
    quoted = ", ".join(map(repr, matches))
    if len(matches) > 1:
        return f" (Did you mean one of: {quoted}?)"
    return f" Did you mean {quoted}?" if matches else ""


def _scan(args: list[str], takes_value: dict[str, bool], usage, interspersed: bool):
    """Split ``args`` into options and other words, as click's parser does.

    ``takes_value`` maps each option to whether it takes a value.  Returns
    ``(given, rest)``: ``given`` maps each option used to its text (None for
    a flag; a repeated option keeps its last text but its first place), and
    ``rest`` holds the other words.  Without ``interspersed`` the options
    end at the first other word.
    """
    given: dict[str, str | None] = {}
    rest: list[str] = []
    args = list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if not interspersed:
                args.insert(0, arg)
                break
            rest.append(arg)
            continue
        flag, equals, attached = arg.partition("=")
        if flag not in takes_value:
            if arg[:2] != "--":
                raise _UsageError(f"No such option {arg[:2]!r}.", usage)
            raise _UsageError(f"No such option {flag!r}." + _did_you_mean(flag, takes_value), usage)
        if not takes_value[flag]:
            if equals:
                raise _UsageError(f"Option {flag!r} does not take a value.")
            given[flag] = None
        elif equals:
            given[flag] = attached
        elif args:
            given[flag] = args.pop(0)
        else:
            raise _UsageError(f"Option {flag!r} requires an argument.")
    return given, rest + args


def _parse(command: _Command, path: str, args: list[str]) -> dict | None:
    """The option values of one command call; None when ``--help`` was printed."""
    usage = (path, "[OPTIONS]")
    by_flag = {option.flag: option for option in command.options}
    takes_value = {flag: option.convert is not None for flag, option in by_flag.items()}
    given, rest = _scan(args, {**takes_value, "--help": False}, usage, interspersed=True)
    if "--help" in given:
        _write(sys.stdout, _command_help(command, path) + "\n")
        return None
    # Options given are checked in the order given, then the others in table order.
    order = [by_flag[flag] for flag in given]
    order += [option for option in command.options if option.flag not in given]
    values = {}
    for option in order:
        if option.flag not in given:
            if option.required:
                choices = option.convert if isinstance(option.convert, _Choice) else ()
                listed = " Choose from:\n\t" + ",\n\t".join(choices) if choices else ""
                raise _UsageError(f"Missing option '{option.flag}'.{listed}", usage)
            values[option.dest] = option.default
        elif option.convert is None:
            values[option.dest] = True
        else:
            try:
                values[option.dest] = option.convert(given[option.flag])
            except ValueError as exc:
                raise _UsageError(f"Invalid value for '{option.flag}': {exc}", usage) from None
    if rest:
        extra = "argument" if len(rest) == 1 else "arguments"
        raise _UsageError(f"Got unexpected extra {extra} ({' '.join(rest)})", usage)
    return values


def _top_level_options(prog_name: str, args: list[str]) -> tuple[list[str], int | None]:
    """Act on ``--version`` and ``--help`` before the command; return the
    remaining words, and the exit code when one of them ended the call."""
    usage = (prog_name, _TOP_LEVEL_PIECES)
    given, rest = _scan(args, {"--version": False, "--help": False}, usage, interspersed=False)
    for flag in given:
        if flag == "--version":
            _write(sys.stdout, f"{prog_name}, version {__version__}\n")
        else:
            _write(sys.stdout, _top_level_help(prog_name) + "\n")
        return rest, 0
    return rest, None


def _dispatch(prog_name: str, args: list[str]) -> int:
    if not args:
        _write(sys.stderr, _top_level_help(prog_name) + "\n")
        return EXIT_INVALID
    rest, code = _top_level_options(prog_name, args)
    if code is not None:
        return code
    usage = (prog_name, _TOP_LEVEL_PIECES)
    if not rest:
        raise _UsageError("Missing command.", usage)
    name, *args = rest
    command = COMMANDS.get(name)
    if command is None:
        if not name[:1].isalnum():  # a word after "--" that looks like an option is one
            code = _top_level_options(prog_name, rest)[1]
            if code is not None:
                return code
        raise _UsageError(f"No such command {name!r}." + _did_you_mean(name, COMMANDS), usage)
    path = f"{prog_name} {name}"
    values = _parse(command, path, args)
    return 0 if values is None else _run(command, values)


def _program_name() -> str:
    """``python -m symtrap.cli`` when run with ``-m``, else the script's file name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    script = os.path.basename(sys.argv[0])
    if not package:
        return script
    module = os.path.splitext(script)[0]
    if module != "__main__":
        package = f"{package}.{module}"
    return f"python -m {package.lstrip('.')}"


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line (``sys.argv[1:]`` by default) and exit with its code:
    0 success, 2 invalid input, 3 failed internal consistency check."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        code = _dispatch(prog_name or _program_name(), args)
    except _UsageError as exc:
        exc.show()
        code = EXIT_INVALID
    except KeyboardInterrupt:
        _write(sys.stderr, "\nAborted!\n")
        code = 1
    sys.exit(code)


# --- help screens -------------------------------------------------------------


def _help_width() -> int:
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, first: str = "", later: str = "") -> str:
    import textwrap

    wrapper = textwrap.TextWrapper(
        width, initial_indent=first, subsequent_indent=later, replace_whitespace=False
    )
    return wrapper.fill(text.expandtabs())


def _wrap_paragraphs(text: str, width: int, indent: str = "") -> str:
    """Re-fill each blank-line separated paragraph of ``text``."""
    paragraphs = (" ".join(block.splitlines()) for block in text.split("\n\n"))
    return "\n\n".join(_wrap(paragraph, width, indent, indent) for paragraph in paragraphs)


def _usage_line(path: str, pieces: str, width: int) -> str:
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(pieces, width, prefix, " " * len(prefix))
    return prefix + "\n" + _wrap(pieces, width, " " * 11, " " * 11)


def _definition_list(rows: list[tuple[str, str]], width: int) -> str:
    """Two indented columns; a long term puts its text on the next line."""
    first_col = min(max(len(term) for term, _ in rows), 30) + 2
    hanging = " " * (first_col + 2)
    out = []
    for term, text in rows:
        lines = _wrap_paragraphs(text, max(width - first_col - 2, 10)).splitlines()
        gap = " " * (first_col - len(term)) if len(term) <= first_col - 2 else "\n" + hanging
        out.append(f"  {term}{gap}{lines[0]}\n")
        out.extend(f"{hanging}{line}\n" for line in lines[1:])
    return "".join(out)


def _short_help(doc: str, limit: int) -> str:
    """The first sentence of ``doc``, or as many words as fit ``limit`` and "..."."""
    words = doc.split("\n\n")[0].split()
    total = 0
    for i, word in enumerate(words):
        total += len(word) + (i > 0)
        if total > limit:
            break
        if word[-1] == ".":
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += 3
    while i > 0:
        total -= len(words[i]) + 1
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."


def _help_screen(path: str, pieces: str, doc: str, sections) -> str:
    from textwrap import dedent

    width = _help_width()
    first, _, rest = doc.partition("\n")
    text = _wrap_paragraphs(f"{first.strip()}\n{dedent(rest)}".strip(), width, "  ")
    out = [_usage_line(path, pieces, width), "\n\n", text, "\n"]
    for heading, rows in sections:
        out += ["\n", f"{heading}:\n", _definition_list(rows, width)]
    return "".join(out).rstrip("\n")


def _command_help(command: _Command, path: str) -> str:
    rows = [*(option.help_row() for option in command.options), _HELP_ROW]
    return _help_screen(path, "[OPTIONS]", command.fn.__doc__, [("Options", rows)])


def _top_level_help(prog_name: str) -> str:
    names = sorted(COMMANDS)
    limit = _help_width() - 6 - max(map(len, names))
    commands = [(name, _short_help(COMMANDS[name].fn.__doc__, limit)) for name in names]
    sections = [("Options", [_VERSION_ROW, _HELP_ROW]), ("Commands", commands)]
    return _help_screen(prog_name, _TOP_LEVEL_PIECES, _TOP_LEVEL, sections)


def _verify(text: str) -> _Option:
    return _option("--verify", None, text, default=False)


_STATS = dict(convert=_Choice(("bose", "fermi")), default="fermi")
_STATE = _option("--state", str, "Source level: nu_R,nu_rho,lambda,partition.", required=True)


@_command(
    "chartable",
    _option(
        "--group",
        _Choice(("sn", "snz2")),
        "Plain permutation group or its parity double.",
        default="snz2",
    ),
)
def chartable_cmd(n: int, group: str):
    """Print the character table, sector characters appended for snz2."""
    from .characters import character_table_sn, character_table_snz2

    if group == "sn":
        table = character_table_sn(n)
        class_names = [c.label() for c in table.classes]
        irrep_names = [p.label() for p in table.irreps]
        extra_rows = []
    else:
        from .snippet import sector_rep_characters

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
    from .partitions import partitions_of

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
    _option("--max-energy", _non_negative, "Largest shell excitation X.", required=True),
    _verify(
        "Cross-check each shell against explicit permutation matrices for n <= 5 "
        "and X <= 8 (the rest is reported as skipped); exit 3 on a mismatch."
    ),
)
def reduce_shell_cmd(n: int, max_energy: int, verify: bool):
    """Irrep content of every oscillator shell up to X = MAX_ENERGY."""
    from .oscillator import shell_reduction

    return _reduction_table(
        n, max_energy, verify, shell_reduction, _verify_shells, "X", "shell reduction"
    )


def _verify_shells(n: int, rows: list[list[int]]) -> None:
    from .oracle import SHELL_N_LIMIT, SHELL_X_LIMIT, explicit_shell_rep

    if n > SHELL_N_LIMIT:
        _warn(f"verify: skipped (guard n <= {SHELL_N_LIMIT})")
        return
    for x, *counts in rows[: SHELL_X_LIMIT + 1]:
        if explicit_shell_rep(n, x)[1].counts != tuple(counts):
            raise ConsistencyError(f"shell oracle disagrees at n={n}, x={x}")
    if len(rows) > SHELL_X_LIMIT + 1:
        _warn(f"verify: shells above X={SHELL_X_LIMIT} skipped (guard)")


@_command(
    "reduce-lambda",
    _option("--max-lambda", _non_negative, "Largest grand angular momentum.", required=True),
    _verify(
        "Recount each row by Kostka counts and shell subtraction for lambda <= 24 "
        "(later rows are reported as skipped); exit 3 on a mismatch."
    ),
)
def reduce_lambda_cmd(n: int, max_lambda: int, verify: bool):
    """Irrep content of every hyperangular subspace up to MAX_LAMBDA."""
    from .oscillator import lambda_reduction

    return _reduction_table(
        n, max_lambda, verify, lambda_reduction, _verify_lambdas, "lambda", "lambda reduction"
    )


def _verify_lambdas(n: int, rows: list[list[int]]) -> None:
    from .oracle import LAMBDA_LIMIT, subtraction_lambda_reduction

    for lam, *counts in rows[: LAMBDA_LIMIT + 1]:
        if tuple(counts) != subtraction_lambda_reduction(n, lam).counts:
            raise ConsistencyError(f"lambda oracle disagrees at n={n}, lambda={lam}")
    if len(rows) > LAMBDA_LIMIT + 1:
        _warn(f"verify: lambda rows above {LAMBDA_LIMIT} skipped (guard)")


@_command(
    "reduce-snippet",
    _verify(
        "Cross-check characters and reduction against explicit sector matrices "
        "for n <= 6 (skipped above); exit 3 on a mismatch."
    ),
)
def reduce_snippet_cmd(n: int, verify: bool):
    """Parity-labelled irrep content of one hard-core sector space."""
    from .snippet import snippet_reduction

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
    from .snippet import sector_rep_characters, snippet_reduction

    if n > SECTOR_N_LIMIT:
        _warn(f"verify: skipped (guard n <= {SECTOR_N_LIMIT})")
        return
    for parity in ("even", "odd"):
        rep, oracle_reduction = explicit_sector_rep(n, parity)
        if rep.traces != sector_rep_characters(n, parity).values:
            raise ConsistencyError(f"sector characters disagree for n={n}, {parity}")
        if oracle_reduction.counts != snippet_reduction(n, parity).counts:
            raise ConsistencyError(f"sector oracle disagrees for n={n}, {parity}")


def _all_patterns(n: int) -> list[ComponentPattern]:
    from .branching import BOSE, FERMI, distinguishable_pattern, patterns_for

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
    _option("--pattern", str, "Component pattern, e.g. 2,2 (all patterns when omitted)."),
    _option("--stats", help="Exchange statistics for --pattern.", **_STATS),
)
def branch_cmd(n: int, pattern: str | None, stats: str):
    """Multiplicity of each symmetrized component line inside every irrep."""
    from .branching import branch_row
    from .partitions import partitions_of

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
    _option(
        "--by",
        _Choice(("lambda", "shell")),
        "Count states per hyperangular subspace or per whole shell.",
        default="lambda",
    ),
    _option("--max-lambda", _non_negative, "Largest lambda column (--by lambda)."),
    _option("--max-energy", _non_negative, "Largest shell column X (--by shell)."),
)
def degeneracy_table_cmd(n: int, by: str, max_lambda: int | None, max_energy: int | None):
    """Symmetrization-allowed state counts for every component pattern."""
    from .branching import component_degeneracy, cumulative_shell_degeneracy

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
    _option("--k", _integer, "Number of spin components.", required=True),
)
def spin_decompose_cmd(n: int, k: int):
    """Permutation content of the k-component spin space."""
    from .branching import spin_decomposition

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
    _option("--max-energy", _non_negative, "Largest excitation listed.", required=True),
)
def spectrum_cmd(n: int, state: str, max_energy: int):
    """Both exact-limit spectra of the symmetry class containing STATE."""
    from .mapping import G_INF, G_ZERO, GNLabel, level_content, spectrum_by_irrep

    hyper, p = _parse_state(n, state)
    mu = GNLabel(hyper.nu_r, hyper.parity, p)
    if not level_content(n, G_ZERO, hyper.lam)[(p, mu.pi)]:
        raise ValueError(f"irrep {p} does not occur at lam={hyper.lam}")
    if max_energy < hyper.excitation:
        raise ValueError(
            f"--max-energy {max_energy} lies below the state's excitation {hyper.excitation}"
        )
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
    _option("--tau", _integer, "Copy index at the source level.", default=0),
    _option("--component", str, "Subgroup irrep tag echoed in the output, e.g. 1^2x1^2."),
    _option(
        "--ceiling",
        _non_negative,
        "Extra excitation searched above the source (default 4n); "
        "exit 2 when no image lies within it.",
    ),
)
def map_cmd(n: int, state: str, tau: int, component: str | None, ceiling: int | None):
    """Adiabatic hard-core image of a free-limit level."""
    from .mapping import G_ZERO, StateLabel, adiabatic_map

    hyper, p = _parse_state(n, state)
    if component:
        from .branching import branch_multiplicity

        if not branch_multiplicity(p, _parse_component_tag(n, component)):
            raise ValueError(f"irrep {p} holds no {component} component line")
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
    _option("--pattern", str, "Component pattern, e.g. 2,2.", required=True),
    _option("--stats", help="Exchange statistics.", **_STATS),
    _option(
        "--regime",
        _Choice(("g0", "ginf")),
        "Exact limit to search, up to 4n quanta; exit 2 when no level "
        "there admits the pattern.",
        default="g0",
    ),
)
def ground_state_cmd(n: int, pattern: str, stats: str, regime: str):
    """Lowest levels admitting the pattern's symmetrization."""
    from .mapping import ground_state

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
    _option("--irrep", str, "Parity-labelled irrep, e.g. '2^2+'.", required=True),
    _option(
        "--lambda-parity",
        _Choice(("even", "odd")),
        "Hyperangular parity of the seed level.",
        required=True,
    ),
    _option("--component", str, "Project further onto a subgroup line, e.g. 1^2x1^2."),
    _verify(
        "Certify the basis: orthogonality, norms, parity, multiplicity, the "
        "Jucys-Murphy eigenvalues of every label (with --component, the central "
        "sums and exchange signs) and the canonical order; exit 3 on a failure."
    ),
)
def sector_basis_cmd(
    n: int, irrep: str, lambda_parity: str, component: str | None, verify: bool
):
    """Exact symmetrized amplitude vectors over the ordering sectors.

    A block of more than 100,000 amplitudes (multiplicity times dimension
    times n! sectors) is refused with exit 2; every n=6 block fits.
    """
    from .partitions import Partition, irrep_dimension
    from .snippet import snippet_projection_basis, snippet_reduction

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
        from .oracle import verify_sector_basis

        verify_sector_basis(n, lambda_parity, p, pi, vectors, pattern)
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
