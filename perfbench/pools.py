"""Fixed invocation pools of the three workloads and the seeded draw from them.

A workload is a list of strata.  Every candidate of one stratum costs about
the same, so a pass draws ``take`` candidates from each stratum and the
pass's total work hardly depends on the seed; the seed varies which
equivalent inputs run, their output format, ``--verify``, which quarter of
the invocations write through ``--output``, and the order.

Inputs avoid behaviour that is planned to change: no negative ranges, which
are to be refused, and no partition label whose exponent is followed by
another digit (``2^21``), whose parsing is to change; such shapes are
written in comma form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("text", "csv", "json")

#: Share of format-taking invocations that write through ``--output``.
OUTPUT_EVERY = 4

#: The seed a plain run uses, and one kept out of all tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Stratum:
    take: int
    candidates: tuple[tuple[str, ...], ...]
    formats: tuple[str, ...] = FORMATS
    #: Whether the draw may add ``--verify``, which leaves stdout unchanged.
    verify: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _stratum(take, lines, **kw) -> Stratum:
    return Stratum(take, tuple(_argv(line) for line in lines), **kw)


def _sector(n: int, irrep: str, parity: str) -> str:
    return f"sector-basis --n {n} --irrep {irrep} --lambda-parity {parity}"


def _sector_classes(n: int, shapes: tuple[str, ...]) -> list[Stratum]:
    """One stratum per (shape, cost class) of the chain-path sector basis.

    An odd seed flips the sign of inversion, so ``p+ even`` and ``p- odd``
    project with the same sign, give the same vectors and cost the same;
    likewise ``p- even`` and ``p+ odd``.
    """
    out = []
    for shape in shapes:
        for sign, other in (("+", "-"), ("-", "+")):
            pair = (_sector(n, shape + sign, "even"), _sector(n, shape + other, "odd"))
            out.append(_stratum(1, pair, verify=True))
    return out


# Deep free-limit sweeps at n=6-8: the oscillator layer and the Kostka counts
# it calls do nearly all the work, and no sector basis or linalg call occurs.
# Faster shell and hyperangular reductions show here and nowhere else.
FREE_LIMIT = Workload(
    "free-limit",
    (
        _stratum(1, ["reduce-lambda --n 8 --max-lambda 40"]),
        _stratum(1, ["reduce-lambda --n 6 --max-lambda 30"]),
        _stratum(1, ["reduce-shell --n 8 --max-energy 24"]),
        _stratum(1, ["degeneracy-table --n 7 --by lambda --max-lambda 24"]),
        _stratum(1, ["degeneracy-table --n 7 --by shell --max-energy 24"]),
        _stratum(
            1,
            [
                "spectrum --n 8 --state 0,0,2,71 --max-energy 30",
                "spectrum --n 8 --state 0,0,2,62 --max-energy 30",
                "spectrum --n 8 --state 0,0,1,71 --max-energy 30",
            ],
        ),
        _stratum(1, ["map --n 8 --state 0,0,2,71", "map --n 8 --state 0,0,2,62"]),
        _stratum(1, ["map --n 7 --state 0,0,2,61", "map --n 7 --state 0,0,2,52"]),
        _stratum(1, ["ground-state --n 8 --pattern 4,4 --stats fermi --regime ginf"]),
        _stratum(
            1,
            [
                "ground-state --n 8 --pattern 4,4 --stats fermi",
                "ground-state --n 8 --pattern 5,3 --stats bose",
                "ground-state --n 7 --pattern 4,3 --stats fermi",
                "ground-state --n 7 --pattern 2,2,2,1 --stats bose",
            ],
        ),
    ),
)

# The sector-basis chain path (no --component): snippet and linalg do all the
# work and oscillator is never called, so a faster sector basis shows here
# and a faster free limit does not.  Left out because one call exceeds the
# pass budget (single-run times recorded in ROADMAP.md): n=6 [321]+ even (>120 s),
# [42]+ even (23 s), [3^2]+ even (11 s), [51]+- (7-10 s).  The change that
# makes them fast adds them back.
HARD_CORE_BASIS = Workload(
    "hard-core-basis",
    (
        _stratum(1, [_sector(6, "21^4+", "even"), _sector(6, "21^4-", "odd")], verify=True),
        _stratum(1, [_sector(6, "2^3+", "even"), _sector(6, "2^3-", "odd")], verify=True),
        _stratum(
            1,
            [_sector(6, "6-", "even"), _sector(6, "6+", "odd"),
             _sector(6, "6+", "even"), _sector(6, "6-", "odd")],
            verify=True,
        ),
        _stratum(1, [_sector(6, "1^6+", "even"), _sector(6, "1^6-", "odd")], verify=True),
        *_sector_classes(5, ("5", "41", "32", "31^2", "2,2,1", "21^3", "1^5")),
    ),
)

# Many short calls of every command at n=3-8 in all formats.  Start-up is
# most of each call and oscillator and snippet are used only shallowly (low
# lambda, the component path), so work moved into import or eager
# precomputation to speed the deep sweeps shows here as a loss.
QUICK_QUERIES = Workload(
    "quick-queries",
    (
        _stratum(1, ["--help"], formats=()),
        _stratum(
            5,
            [f"chartable --n {n} --group {g}" for n in range(3, 9) for g in ("sn", "snz2")],
        ),
        _stratum(
            4,
            [f"branch --n {n}" for n in range(3, 9)]
            + [
                "branch --n 4 --pattern 2,2 --stats fermi",
                "branch --n 5 --pattern 3,2 --stats bose",
                "branch --n 6 --pattern 3,3 --stats fermi",
                "branch --n 7 --pattern 4,3 --stats bose",
                "branch --n 8 --pattern 4,4 --stats fermi",
                "branch --n 8 --pattern 2,2,2,2 --stats bose",
            ],
        ),
        _stratum(
            3,
            [f"spin-decompose --n {n} --k {k}" for n in range(3, 9) for k in (2, 3, 4)],
        ),
        _stratum(3, [f"reduce-snippet --n {n}" for n in range(3, 9)]),
        _stratum(
            2,
            [f"reduce-snippet --n {n} --verify" for n in range(3, 7)],
        ),
        _stratum(
            2,
            [f"reduce-shell --n {n} --max-energy {x} --verify" for n in (3, 4, 5) for x in (4, 6, 8)],
        ),
        _stratum(
            2,
            [f"reduce-lambda --n {n} --max-lambda {lam}" for n in (3, 4, 5, 6) for lam in (8, 12)],
        ),
        _stratum(
            1,
            [f"reduce-shell --n {n} --max-energy 8" for n in (6, 7, 8)],
        ),
        _stratum(
            2,
            [f"degeneracy-table --n {n} --by lambda --max-lambda 8" for n in (3, 4, 5, 6)]
            + [f"degeneracy-table --n {n} --by shell --max-energy 6" for n in (3, 4, 5, 6)],
        ),
        _stratum(
            1,
            [
                "map --n 3 --state 0,0,1,21",
                "map --n 3 --state 0,0,3,3",
                "map --n 3 --state 0,0,2,21 --component 1^2",
                "map --n 4 --state 0,0,2,2^2",
                "map --n 4 --state 0,0,2,31",
                "map --n 4 --state 0,0,3,21^2",
            ],
        ),
        _stratum(
            1,
            [
                "map --n 5 --state 0,0,2,32",
                "map --n 5 --state 0,0,2,41",
                "map --n 6 --state 0,0,1,51",
                "map --n 6 --state 0,0,2,42",
            ],
        ),
        _stratum(
            3,
            [
                "spectrum --n 3 --state 0,0,1,21 --max-energy 12",
                "spectrum --n 4 --state 0,0,2,2^2 --max-energy 12",
                "spectrum --n 4 --state 0,0,3,21^2 --max-energy 10",
                "spectrum --n 5 --state 0,0,2,32 --max-energy 12",
                "spectrum --n 5 --state 0,0,3,31^2 --max-energy 10",
                "spectrum --n 6 --state 0,0,2,42 --max-energy 12",
            ],
        ),
        _stratum(
            4,
            [
                "ground-state --n 3 --pattern 2,1 --stats fermi",
                "ground-state --n 3 --pattern 2,1 --stats bose --regime ginf",
                "ground-state --n 4 --pattern 2,2 --stats fermi",
                "ground-state --n 4 --pattern 2,2 --stats fermi --regime ginf",
                "ground-state --n 4 --pattern 3,1 --stats bose",
                "ground-state --n 5 --pattern 3,2 --stats fermi",
                "ground-state --n 5 --pattern 2,2,1 --stats bose --regime ginf",
                "ground-state --n 6 --pattern 3,3 --stats fermi --regime ginf",
                "ground-state --n 6 --pattern 4,2 --stats bose",
            ],
        ),
        _stratum(
            1,
            [
                _sector(4, "2^2+", "even") + " --component 1^2x1^2",
                _sector(4, "31+", "odd") + " --component 1^2x1^2",
                _sector(4, "31-", "even") + " --component 2x2",
            ],
        ),
        _stratum(
            1,
            [
                _sector(5, "32+", "even") + " --component 1^2x1^2",
                _sector(5, "41+", "odd") + " --component 1^3x1^2",
                _sector(5, "32-", "odd") + " --component 3x2",
            ],
        ),
    ),
)

WORKLOADS = {w.name: w for w in (FREE_LIMIT, HARD_CORE_BASIS, QUICK_QUERIES)}


@dataclass(frozen=True)
class Invocation:
    """One drawn CLI call; ``output`` means it writes through ``--output``."""

    base: tuple[str, ...]
    fmt: str | None
    verify: bool
    output: bool

    @property
    def key(self) -> str:
        """The expected-output key: argv without the drawn ``--verify`` and
        ``--output``, neither of which changes the bytes produced."""
        return " ".join(pool_argv(self.base, self.fmt))

    def argv(self, output_path: str | None = None) -> list[str]:
        args = pool_argv(self.base, self.fmt)
        if self.verify and "--verify" not in args:
            args.append("--verify")
        if self.output:
            args += ["--output", output_path]
        return args


def pool_argv(base: tuple[str, ...], fmt: str | None) -> list[str]:
    args = list(base)
    if fmt is not None:
        args += ["--format", fmt]
    return args


def draw(workload: Workload, seed: int) -> list[Invocation]:
    """The invocation list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload.name}/{seed}")
    drawn = []
    for stratum in workload.strata:
        for base in rng.sample(stratum.candidates, stratum.take):
            fmt = rng.choice(stratum.formats) if stratum.formats else None
            verify = stratum.verify and rng.random() < 0.5
            drawn.append((base, fmt, verify))
    rng.shuffle(drawn)
    out = []
    with_format = 0
    for base, fmt, verify in drawn:
        output = False
        if fmt is not None:
            output = with_format % OUTPUT_EVERY == OUTPUT_EVERY - 1
            with_format += 1
        out.append(Invocation(base, fmt, verify, output))
    return out


def pool_keys(workload: Workload) -> list[tuple[tuple[str, ...], str | None]]:
    """Every (base argv, format) a draw can produce, in a fixed order."""
    out = []
    for stratum in workload.strata:
        for base in stratum.candidates:
            for fmt in stratum.formats or (None,):
                out.append((base, fmt))
    return out
