"""Command-line front end: tables, spectra, maps and sector bases.

Output is deterministic byte-for-byte across runs.  A command builds its
table once, as rows of cells, and each format streams it once it is built:
text as aligned columns, ``--format csv`` as cells, ``--format json`` as
objects tagged ``"schema": "symtrap/1"``.  Exit codes: 0 success, 2 invalid
input, 3 failed internal consistency check, both before any output; 2 also
when the output cannot be written.  stdout is UTF-8, as ``--output`` is.
"""

import os
import sys
from itertools import chain, islice, repeat
from math import factorial

from . import ConsistencyError, SearchExhaustedError, __version__

SCHEMA = "symtrap/1"

EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

#: Largest sector basis ``sector-basis`` builds, in printed amplitudes.  The
#: largest n=6 block, [321] with 128 vectors of 720, has 92,160; at n=7 the
#: limit admits [7], [61], [21^5] and [1^7] (at most 18 vectors).  It was sized
#: when every chain line paid its own elimination.  Now that a block builds
#: only the candidates it keeps, the [321]+ even call takes about 0.14 s of
#: child CPU and every n=7 block builds in at most about 4 s of CPU ([321^2]
#: and [421], 630 vectors), most within a second; the limit is printed in the
#: command's help, so it is left as it was.
AMPLITUDE_LIMIT = 100_000


def _energy_text(n: int, x: int) -> str:
    return f"E = {2 * x + n}/2 ħω"


def _energy_cell(n: int, x: int) -> str:
    return f"{2 * x + n}/2"


#: Rows converted and written per chunk of text or JSON.
_BLOCK = 4096


def _text_chunks(headers: list[str], rows: list, title: str | None = None):
    """An aligned table, in chunks of lines: the first column left-justified,
    the others right-justified, a dashed rule under the headers, no trailing
    blanks.  The column widths are measured over the whole table first; then
    each block of rows is converted, padded and joined column by column."""
    widths = [max(map(len, map(str, column))) for column in zip(headers, *rows)]
    justify = [str.ljust] + [str.rjust] * (len(widths) - 1)
    if title:
        yield title + "\n"
    lines = chain((headers, ["-" * w for w in widths]), rows)
    while block := list(islice(lines, _BLOCK)):
        padded = [
            map(pad, map(str, column), repeat(width))
            for pad, column, width in zip(justify, zip(*block), widths)
        ]
        yield "".join(line.rstrip() + "\n" for line in map("  ".join, zip(*padded)))


def _json_string(text: str) -> str:
    """``text`` quoted and escaped by ``_json.encode_basestring``, as ``json.dumps(...,
    ensure_ascii=False)`` does; the first call imports it and rebinds this name to it."""
    global _json_string
    from _json import encode_basestring as _json_string

    return _json_string(text)


def _json_value(obj, pad: str) -> str:
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_string(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    if kind is list:
        items = [int.__repr__(v) if type(v) is int else _json_value(v, inner) for v in obj]
        brackets = "[]"
    elif kind is dict:
        items = [f"{_json_string(k)}: {_json_value(v, inner)}" for k, v in obj.items()]
        brackets = "{}"
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not items:
        return brackets
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{pad}{brackets[1]}"


def _json_chunks(head: dict, rows: list, json_row):
    """``json.dumps({**head, "rows": [json_row(row) for row in rows], "schema":
    SCHEMA}, indent=2, ensure_ascii=False) + "\\n"``, byte for byte, in chunks,
    the rows a block at a time; without ``json_row`` the document has no
    ``"rows"``.  Values are dicts with str keys, lists, str, int, bool and
    None, by exact type; any other raises ``TypeError``.  Strings and keys
    are escaped by :func:`_json_string`; the layout is written here, since
    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is given
    (3.10, 3.11), so no call imports ``json`` and only JSON calls load
    ``_json``.  ``tests/test_cli.py::TestJsonWriter`` checks it against
    ``json.dumps`` on generated values, and
    ``TestJsonContract::test_schema_and_round_trip`` on every command's output."""
    items = (f"{_json_string(k)}: {_json_value(v, '  ')}" for k, v in head.items())
    yield "{\n  " + ",\n  ".join(items) + (',\n  "rows": [' if json_row else "")
    if json_row:
        lead = "\n    "
        for start in range(0, len(rows), _BLOCK):
            block = map(json_row, rows[start : start + _BLOCK])
            yield lead + ",\n    ".join(_json_value(row, "    ") for row in block)
            lead = ",\n    "
        yield "\n  ]" if rows else "]"
    yield f',\n  "schema": {_json_value(SCHEMA, "  ")}\n}}\n'


def _emit(handle, fmt: str, n: int, title: str, headers, rows, json_fields, json_row) -> None:
    """Write a command's table (see :func:`_command`) to ``handle`` in ``fmt``."""
    if fmt == "csv":
        # ``csv.writer`` is ``_csv.writer``; its default dialect is excel's.
        from _csv import writer

        out = writer(handle, lineterminator="\n")
        out.writerow(headers)
        out.writerows(rows)
    elif fmt == "text":
        handle.writelines(_text_chunks(headers, rows, title))
    else:
        handle.writelines(_json_chunks({"n": n, **json_fields()}, rows, json_row))


def _write(stream, text: str) -> None:
    stream.write(text)
    stream.flush()


def _drop(stream) -> None:
    """``stream`` cannot be written: the rest is dropped quietly, and so is
    what is still buffered when the process exits."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _to_stdout(write, *args) -> int:
    """``write(sys.stdout, *args)``, flushed: every answer, help and version
    line.  A reader that has gone exits 0 quietly, any other write error,
    an encoding that cannot hold the answer too, 2; either way the rest,
    buffered bytes too, goes to :func:`_drop`."""
    try:
        write(sys.stdout, *args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        code = 0
    except (OSError, UnicodeEncodeError) as exc:
        _warn(f"error: cannot write stdout: {getattr(exc, 'strerror', exc)}")
        code = EXIT_INVALID
    _drop(sys.stdout)
    return code


def _warn(message: str) -> None:
    """``message`` and a newline on stderr: every error, usage and abort
    message.  One that stderr cannot take is dropped; the exit code stands."""
    try:
        _write(sys.stderr, f"{message}\n")
    except OSError:
        _drop(sys.stderr)


def _counts(tokens: list[str], grammar: str) -> tuple[int, ...]:
    """``tokens`` as integers; a token that is not one names the option's ``grammar``."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(grammar) from None


def _parse_state(n: int, text: str) -> "tuple[HypercylindricalLabel, Partition]":
    from .oscillator import HypercylindricalLabel
    from .partitions import Partition

    grammar = "state must be 'nu_R,nu_rho,lambda,partition', e.g. 0,0,1,21"
    tokens = text.split(",")
    if len(tokens) < 4:
        raise ValueError(grammar)
    hyper = HypercylindricalLabel(*_counts(tokens[:3], grammar))
    p = Partition.parse(",".join(tokens[3:]) if len(tokens) > 4 else tokens[3])
    if p.n != n:
        raise ValueError(f"partition {p} does not label an irrep of S_{n}")
    return hyper, p


def _parse_pattern(n: int, pattern: str, stats: str) -> "ComponentPattern":
    from .branching import ComponentPattern

    counts = _counts(pattern.split(","), "pattern must be counts 'k1,k2,...', e.g. 2,2")
    built = ComponentPattern(counts, stats)
    if built.n != n:
        raise ValueError(f"pattern {built} does not describe {n} particles")
    return built


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


class _Option:
    """``flag`` stores ``convert(text)`` as ``dest`` (``flag`` without its
    dashes by default); ``convert`` is None for a flag.

    A converter raises ``ValueError`` with the message a usage error shows.
    Help shows the ``default`` of every option that takes a value.
    """

    __slots__ = ("flag", "dest", "convert", "required", "default", "help")

    def __init__(self, flag: str, convert, help: str, *, dest: str | None = None,
                 required: bool = False, default=None) -> None:
        self.flag, self.convert, self.help = flag, convert, help
        self.dest = dest or flag[2:].replace("-", "_")
        self.required, self.default = required, default

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


class _Command:
    """A command's ``options`` and ``fn(n, **options)``, which returns
    ``(title, headers, rows, json_fields, json_row)`` (see :func:`_command`)."""

    __slots__ = ("options", "fn")

    def __init__(self, options: tuple[_Option, ...], fn) -> None:
        self.options, self.fn = options, fn


#: Every command by name, in the order registered.
COMMANDS: dict[str, _Command] = {}

_N_OPTION = _Option("--n", _particle_number, "Number of particles.", required=True)
_OUTPUT_OPTION = _Option("--output", _writable_path, "Write to a file.")
_FORMAT_OPTION = _Option(
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
    returns ``(title, headers, rows, json_fields, json_row)``: ``rows``, a
    list of rows of cells (records, ints or strs), which text and csv print
    as ``str(cell)``; JSON alone calls ``json_fields()``, the fields after
    ``"n"``, and ``json_row(row)`` (None: no ``"rows"``).  Invalid input
    exits 2, a failed consistency check exits 3, both while the table is
    built; writing it maps only write errors.
    """

    def register(fn):
        COMMANDS[name] = _Command((_N_OPTION, *options, _OUTPUT_OPTION, _FORMAT_OPTION), fn)
        return fn

    return register


def _run(command: _Command, values: dict) -> int:
    n, fmt, output = values.pop("n"), values.pop("fmt"), values.pop("output")
    try:
        table = command.fn(n, **values)
    except ConsistencyError as exc:
        _warn(f"consistency failure: {exc}")
        return EXIT_INCONSISTENT
    except (ValueError, SearchExhaustedError) as exc:
        _warn(f"error: {exc}")
        return EXIT_INVALID
    if not output:
        return _to_stdout(_emit, fmt, n, *table)
    try:
        with open(output, "w", encoding="utf-8") as handle:
            _emit(handle, fmt, n, *table)
    except OSError as exc:
        _warn(f"error: cannot write {output}: {exc.strerror}")
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
        text = f"Error: {self.message}"
        if self.usage:
            path, pieces = self.usage
            hint = f"Try '{path} --help' for help."
            text = f"{_usage_line(path, pieces, _help_width())}\n{hint}\n\n{text}"
        _warn(text)


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
    """The option values of one command call; None when ``--help`` was given."""
    usage = (path, "[OPTIONS]")
    by_flag = {option.flag: option for option in command.options}
    takes_value = {flag: option.convert is not None for flag, option in by_flag.items()}
    given, rest = _scan(args, {**takes_value, "--help": False}, usage, interspersed=True)
    if "--help" in given:
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
            return rest, _to_stdout(_write, f"{prog_name}, version {__version__}\n")
        return rest, _to_stdout(_write, _top_level_help(prog_name) + "\n")
    return rest, None


def _dispatch(prog_name: str, args: list[str]) -> int:
    if not args:
        _warn(_top_level_help(prog_name))
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
    if values is None:
        return _to_stdout(_write, _command_help(command, path) + "\n")
    return _run(command, values)


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
    """The in-process entry: run one command line (``sys.argv[1:]`` by
    default) and exit with its code: 0 success, 2 invalid input, 3 failed
    internal consistency check.  It leaves the garbage collector alone."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        code = _dispatch(prog_name or _program_name(), args)
    except _UsageError as exc:
        exc.show()
        code = EXIT_INVALID
    except KeyboardInterrupt:
        _warn("\nAborted!")
        code = 1
    sys.exit(code)


def entry() -> None:
    """The process entry (``python -m symtrap.cli`` and the ``symtrap``
    script): :func:`main` with stdout in UTF-8 whatever the locale, and the
    cyclic collector off, then an exit that skips interpreter teardown.  A
    standard stream closed at start-up (None) writes into the null device, so
    a closed stdout is treated like a reader that has gone.

    Rows and memo entries form no reference cycles, so collections would
    walk them all for nothing, one each time the heap grows by a quarter.
    Once :func:`main` has written its answer, stdout (a closed one quietly,
    as :func:`_to_stdout` treats it) and stderr are flushed, the ``atexit``
    handlers run and the process leaves by ``os._exit`` with :func:`main`'s
    code, so no call pays for clearing the modules and freeing every row
    and memo entry just before it ends.  A handler that writes must flush
    its own stream.  Any other exception propagates and exits 1 through
    normal shutdown, with its traceback.
    """
    import atexit
    import gc

    sys.stdout = sys.stdout or open(os.devnull, "w")
    sys.stderr = sys.stderr or open(os.devnull, "w")
    sys.stdout.reconfigure(encoding="utf-8")
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop(sys.stdout)
    sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


# --- help screens -------------------------------------------------------------


def _help_width() -> int:
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, first: str = "", later: str = "", **options) -> str:
    import textwrap

    wrapper = textwrap.TextWrapper(
        width, initial_indent=first, subsequent_indent=later, replace_whitespace=False, **options
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
    end = next((i + 1 for i, word in enumerate(words) if word[-1] == "."), len(words))
    options = dict(max_lines=1, placeholder="...", break_on_hyphens=False, break_long_words=False)
    return _wrap(" ".join(words[:end]), limit, **options)


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
    return _Option("--verify", None, text, default=False)


_STATS = dict(convert=_Choice(("bose", "fermi")), default="fermi")
_STATE = _Option("--state", str, "Source level: nu_R,nu_rho,lambda,partition.", required=True)


class _ParityIrrep(tuple):
    """A cell ``(p, pi)``, an irrep of S_n x Z2, printed as ``p.label(pi)``."""

    def __str__(self) -> str:
        return self[0].label(self[1])


def _pattern_fields(pattern) -> dict:
    return {"pattern": list(pattern.counts), "statistics": pattern.statistics}


def _labelled(label_fields, tail: str = "counts"):
    """The JSON row of a label cell, then integers: the label's fields, then ``tail``."""
    return lambda row: {**label_fields(row[0]), tail: row[1:]}


@_command(
    "chartable",
    _Option(
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
        rows = [[p, *values] for p, values in zip(table.irreps, table.values)]
    else:
        from .snippet import sector_rep_characters

        table = character_table_snz2(n)
        class_names = [("i" if inv else "") + c.label() for c, inv in table.classes]
        rows = [[_ParityIrrep(irrep), *values] for irrep, values in zip(table.irreps, table.values)]
        rows += [
            [f"{parity} lambda", *sector_rep_characters(n, parity).values]
            for parity in ("even", "odd")
        ]
    fields = lambda: {
        "group": table.group, "classes": class_names, "class_sizes": list(table.class_sizes)
    }
    json_row = _labelled(lambda irrep: {"irrep": str(irrep)}, "values")
    return f"character table {table.group}", ["irrep", *class_names], rows, fields, json_row


def _reduction_table(n: int, top: int, verify: bool, reduce, removed, column: str, title: str):
    """One row of ``reduce(n, k)`` per ``k`` up to ``top``; ``verify`` recounts every row."""
    from .partitions import partitions_of

    shapes = partitions_of(n)
    reduce(n, top)  # the top row first, so that every other row reads its series
    rows = [[k, *reduce(n, k).counts] for k in range(top + 1)]
    if verify:
        from .oracle import cycle_index_rows

        for (k, *counts), expected in zip(rows, cycle_index_rows(n, top, removed)):
            if tuple(counts) != expected.counts:
                raise ConsistencyError(f"cycle index disagrees at n={n}, {column.lower()}={k}")
    fields = lambda: {"irreps": [list(p.parts) for p in shapes]}
    json_row = _labelled(lambda k: {column.lower(): k})
    return f"{title} n={n}", [column, *map(str, shapes)], rows, fields, json_row


@_command(
    "reduce-shell",
    _Option("--max-energy", _non_negative, "Largest shell excitation X.", required=True),
    _verify("Recount every shell by characters, from the cycle index; exit 3 on a mismatch."),
)
def reduce_shell_cmd(n: int, max_energy: int, verify: bool):
    """Irrep content of every oscillator shell up to X = MAX_ENERGY."""
    from .oscillator import shell_reduction

    return _reduction_table(n, max_energy, verify, shell_reduction, (), "X", "shell reduction")


@_command(
    "reduce-lambda",
    _Option("--max-lambda", _non_negative, "Largest grand angular momentum.", required=True),
    _verify(
        "Recount every row by characters, from the cycle index with the centre of "
        "mass and the hyperradius removed; exit 3 on a mismatch."
    ),
)
def reduce_lambda_cmd(n: int, max_lambda: int, verify: bool):
    """Irrep content of every hyperangular subspace up to MAX_LAMBDA."""
    from .oscillator import lambda_reduction

    return _reduction_table(
        n, max_lambda, verify, lambda_reduction, (1, 2), "lambda", "lambda reduction"
    )


@_command(
    "reduce-snippet",
    _verify(
        "Recount characters and reduction from the sectors each class fixes; "
        "exit 3 on a mismatch."
    ),
)
def reduce_snippet_cmd(n: int, verify: bool):
    """Parity-labelled irrep content of one hard-core sector space."""
    from .snippet import snippet_reduction

    even = snippet_reduction(n, "even")
    odd = snippet_reduction(n, "odd")
    if verify:
        from .characters import character_table_snz2, reduce_class_function
        from .oracle import sector_traces
        from .snippet import sector_rep_characters

        for parity, printed in (("even", even), ("odd", odd)):
            traces = sector_traces(n, parity)
            if traces != sector_rep_characters(n, parity):
                raise ConsistencyError(f"sector characters disagree for n={n}, {parity}")
            if reduce_class_function(traces, character_table_snz2(n)).counts != printed.counts:
                raise ConsistencyError(f"sector oracle disagrees for n={n}, {parity}")
    rows = [[_ParityIrrep(key), e, o] for key, e, o in zip(even.keys, even.counts, odd.counts)]

    def json_row(row):
        (p, pi), e, o = row
        return {"irrep": list(p.parts), "pi": pi, "even": e, "odd": o}

    return f"sector reduction n={n}", ["irrep", "even lambda", "odd lambda"], rows, dict, json_row


def _pattern_table(title: str, patterns, columns: list[str], cells, json_fields):
    """One row per pattern, its ``cells`` in turn, tagged by counts and statistics in JSON."""
    rows = [[pattern, *row] for pattern, row in zip(patterns, cells)]
    return title, ["pattern", *columns], rows, json_fields, _labelled(_pattern_fields)


@_command(
    "branch",
    _Option("--pattern", str, "Component pattern, e.g. 2,2 (all patterns when omitted)."),
    _Option("--stats", help="Exchange statistics for --pattern.", **_STATS),
)
def branch_cmd(n: int, pattern: str | None, stats: str):
    """Multiplicity of each symmetrized component line inside every irrep."""
    from .branching import all_patterns, branch_row
    from .partitions import partitions_of

    shapes = partitions_of(n)
    selected = [_parse_pattern(n, pattern, stats)] if pattern else all_patterns(n)
    return _pattern_table(
        f"subgroup branching n={n}",
        selected,
        map(str, shapes),
        map(branch_row, selected),
        lambda: {"irreps": [list(p.parts) for p in shapes]},
    )


@_command(
    "degeneracy-table",
    _Option(
        "--by",
        _Choice(("lambda", "shell")),
        "Count states per hyperangular subspace or per whole shell.",
        default="lambda",
    ),
    _Option("--max-lambda", _non_negative, "Largest lambda column (--by lambda)."),
    _Option("--max-energy", _non_negative, "Largest shell column X (--by shell)."),
)
def degeneracy_table_cmd(n: int, by: str, max_lambda: int | None, max_energy: int | None):
    """Symmetrization-allowed state counts for every component pattern."""
    from .branching import all_patterns, degeneracy_rows

    axes = {
        "lambda": ("--max-lambda", max_lambda, "lambda"),
        "shell": ("--max-energy", max_energy, "X"),
    }
    flag, top, column_head = axes[by]
    if top is None:
        raise ValueError(f"{flag} is required with --by {by}")
    for axis, (other, value, *_) in axes.items():
        if axis != by and value is not None:
            raise ValueError(f"{other} applies to --by {axis}")
    columns = list(range(top + 1))
    patterns = all_patterns(n)
    return _pattern_table(
        f"component degeneracies n={n} by {by}",
        patterns,
        [f"{column_head}={col}" for col in columns],
        degeneracy_rows(n, by, columns, patterns),
        lambda: {"by": by, "columns": columns},
    )


@_command(
    "spin-decompose",
    _Option("--k", _integer, "Number of spin components.", required=True),
)
def spin_decompose_cmd(n: int, k: int):
    """Permutation content of the k-component spin space."""
    from .branching import spin_decomposition

    title = f"spin decomposition n={n}, k={k}"
    rows = [[p, count] for p, count in spin_decomposition(n, k).items()]
    json_row = lambda row: {"irrep": list(row[0].parts), "multiplicity": row[1]}
    return title, ["irrep", "multiplicity"], rows, lambda: {"k": k}, json_row


@_command(
    "spectrum",
    _STATE,
    _Option("--max-energy", _non_negative, "Largest excitation listed.", required=True),
)
def spectrum_cmd(n: int, state: str, max_energy: int):
    """Both exact-limit spectra of the symmetry class containing STATE."""
    from .mapping import G_INF, G_ZERO, GNLabel, level_content, spectrum_levels

    hyper, p = _parse_state(n, state)
    mu = GNLabel(hyper.nu_r, hyper.parity, p)
    if not level_content(n, G_ZERO, hyper.lam)[(p, mu.pi)]:
        raise ValueError(f"irrep {p} does not occur at lam={hyper.lam}")
    if max_energy < hyper.excitation:
        raise ValueError(
            f"--max-energy {max_energy} lies below the state's excitation {hyper.excitation}"
        )
    energies = [_energy_cell(n, x) for x in range(max_energy + 1)]
    rows = [
        (tag, energies[level.excitation], level, multiplicity)
        for regime, tag in ((G_ZERO, "g=0"), (G_INF, "g=inf"))
        for level, multiplicity in spectrum_levels(n, regime, mu, max_energy)
    ]

    def json_row(row):
        tag, energy, level, multiplicity = row
        level = [level.nu_r, level.nu_rho, level.lam]
        return {"regime": tag, "energy": energy, "level": level, "multiplicity": multiplicity}

    headers = ["regime", "energy", "level", "multiplicity"]
    fields = lambda: {"mu": {"nu_r": mu.nu_r, "pi": mu.pi, "irrep": list(mu.p.parts)}}
    return f"spectrum of {mu}", headers, rows, fields, json_row


@_command(
    "map",
    _STATE,
    _Option("--tau", _integer, "Copy index at the source level.", default=0),
    _Option("--component", str, "Subgroup irrep tag echoed in the output, e.g. 1^2x1^2."),
    _Option(
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
        from .branching import ComponentPattern, branch_multiplicity

        if not branch_multiplicity(p, ComponentPattern.from_tag(component, n)):
            raise ValueError(f"irrep {p} holds no {component} component line")
    source = StateLabel(hyper, p, tau=tau, component=component, regime=G_ZERO)
    result = adiabatic_map(n, source, extra_energy=ceiling)
    target = result.target_hyper
    status = "resolved" if result.resolved else "unresolved"
    note = " convention-ordered" if result.convention_ordered else ""
    line = (
        f"{target.nu_r},{target.nu_rho},{target.lam} "
        f"{result.target_p.label(result.target_pi)} "
        f"dim={result.target_dimension} {status}{note}"
    )
    rows = [
        ["source", source, _energy_text(n, hyper.excitation)],
        ["target", line, _energy_text(n, target.excitation)],
    ]
    fields = lambda: {
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
    return f"adiabatic map n={n}", ["role", "level", "energy"], rows, fields, None


@_command(
    "ground-state",
    _Option("--pattern", str, "Component pattern, e.g. 2,2.", required=True),
    _Option("--stats", help="Exchange statistics.", **_STATS),
    _Option(
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
    rows = [
        [label, _energy_text(n, label.hyper.excitation)]
        for label in ground_state(n, built, regime=regime)
    ]

    def json_row(row):
        label = row[0]
        return {
            "level": [label.hyper.nu_r, label.hyper.nu_rho, label.hyper.lam],
            "irrep": list(label.p.parts),
            "pi": label.pi,
            "tau": label.tau,
            "component": label.component,
            "energy": _energy_cell(n, label.hyper.excitation),
        }

    fields = lambda: {**_pattern_fields(built), "regime": regime}
    return f"ground states {built.label()} at {regime}", ["state", "energy"], rows, fields, json_row


@_command(
    "sector-basis",
    _Option("--irrep", str, "Parity-labelled irrep, e.g. '2^2+'.", required=True),
    _Option(
        "--lambda-parity",
        _Choice(("even", "odd")),
        "Hyperangular parity of the seed level.",
        required=True,
    ),
    _Option("--component", str, "Project further onto a subgroup line, e.g. 1^2x1^2."),
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
    from .partitions import irrep_dimension, parse_parity_irrep
    from .snippet import all_sectors, snippet_projection_basis, snippet_reduction

    p, pi = parse_parity_irrep(irrep)
    pattern = None
    if component:
        from .branching import ComponentPattern

        pattern = ComponentPattern.from_tag(component, n)
    size = snippet_reduction(n, lambda_parity).get((p, pi)) * irrep_dimension(p) * factorial(n)
    if size > AMPLITUDE_LIMIT:
        raise ValueError(
            f"the {p.label(pi)} block at n={n} has {size} amplitudes, "
            f"over the limit of {AMPLITUDE_LIMIT}"
        )
    vectors = snippet_projection_basis(n, lambda_parity, p, pi, component=pattern)
    if verify:
        from .oracle import verify_sector_basis

        verify_sector_basis(n, lambda_parity, p, pi, vectors, pattern)
    headers = ["sector", *[f"v{i + 1}" for i in range(len(vectors))]]
    columns = zip(*(v.amps for v in vectors))
    sector = "%d" * n
    rows = [[sector % q, *amps] for q, amps in zip(all_sectors(n), columns)]
    labels = [str(v.label) if v.label else f"component line {i + 1}" for i, v in enumerate(vectors)]
    fields = lambda: {
        "irrep": list(p.parts),
        "pi": pi,
        "lambda_parity": lambda_parity,
        "component": component,
        "vectors": [
            {"label": label, "amplitudes": list(v.amps), "norm_sq": v.norm_sq}
            for label, v in zip(labels, vectors)
        ],
    }
    title = f"sector basis {p.label(pi)} ({lambda_parity} lambda)"
    if labels:
        title += "\n" + "\n".join(
            f"  v{i + 1}: {label}  norm^2 = {vectors[i].norm_sq}"
            for i, label in enumerate(labels)
        )
    return title, headers, rows, fields, lambda row: row


if __name__ == "__main__":
    entry()
