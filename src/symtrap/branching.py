"""Symmetrization counting for multi-component bosons and fermions.

A component pattern records how many particles sit in each distinguishable
spin component.  Physical states must carry the fully symmetric (bosons)
or fully antisymmetric (fermions) line of the corresponding Young
subgroup, and the number of such lines inside an S_n irrep is a Kostka
count.  Each pattern's counts over all irreps form one memoized row, read
off one Pieri sweep that adds a horizontal strip per component (Macdonald,
I.5).  Every degeneracy and ground-state search reads that row; the tests
check it against ``characters.kostka``, and the slower subgroup character
inner product lives in ``oracle`` as the cross-check.

A pattern's line is named by its tag, one partition label per component
joined by ``x``: a row ``[k]`` for bosons, a column ``[1^k]`` for fermions.
``ComponentPattern.subgroup_tag`` prints it and ``from_tag`` reads it back.
"""

from functools import lru_cache
from math import prod
from operator import mul

from .errors import ConsistencyError
from .partitions import MultiplicityVector, Partition, Record, partitions_of

BOSE = "bose"
FERMI = "fermi"


class ComponentPattern(Record):
    """Occupation numbers of the spin components plus exchange statistics.

    Patterns are canonicalized to non-increasing order; ``(1, 3)`` and
    ``(3, 1)`` describe the same physics.
    """

    __slots__ = _fields = ("counts", "statistics")

    def __init__(self, counts: tuple[int, ...], statistics: str = FERMI) -> None:
        counts = tuple(sorted((int(c) for c in counts), reverse=True))
        if not counts or any(c <= 0 for c in counts):
            raise ValueError(f"component counts must be positive: {counts}")
        if statistics not in (BOSE, FERMI):
            raise ValueError(f"statistics must be {BOSE!r} or {FERMI!r}")
        self._assign(counts, statistics)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def distinguishable(self) -> bool:
        return all(c == 1 for c in self.counts)

    def content(self) -> tuple[int, ...]:
        """One symbol per particle: component index repeated per occupancy."""
        return tuple(i for i, c in enumerate(self.counts) for _ in range(c))

    def label(self) -> str:
        body = "".join(str(c) for c in self.counts)
        if self.counts[0] > 9:
            body = ",".join(str(c) for c in self.counts)
        if self.distinguishable:
            return f"({body})"
        return f"({body})_" + ("B" if self.statistics == BOSE else "F")

    def subgroup_tag(self) -> str:
        """The one-dimensional subgroup irrep this pattern selects, e.g. ``[1^2]x[1^2]``."""
        rows = self.statistics == BOSE
        return "x".join(Partition((c,) if rows else (1,) * c).label() for c in self.counts)

    @classmethod
    def from_tag(cls, text: str, n: int) -> "ComponentPattern":
        """Inverse of :meth:`subgroup_tag`: blocks by ``Partition.parse``, a row bosonic and a
        column fermionic, padded with singlets to ``n``; all singlets give the Bose pattern."""
        counts, kinds = [], set()
        for block in text.split("x"):
            try:
                shape = Partition.parse(block)
            except ValueError:
                shape = None
            if shape is None or 1 not in (len(shape), shape.parts[0]):
                raise ValueError(f"cannot parse component tag {text!r}")
            counts.append(shape.n)
            if shape.n > 1:
                kinds.add(BOSE if len(shape) == 1 else FERMI)
            if len(kinds) > 1:
                raise ValueError(f"component tag {text!r} mixes symmetric and antisymmetric blocks")
        if sum(counts) > n:
            raise ValueError(f"component tag {text!r} involves more than {n} particles")
        if not kinds:
            return distinguishable_pattern(n)
        return cls((*counts, *(1,) * (n - sum(counts))), kinds.pop())

    def __str__(self) -> str:
        return self.label()


@lru_cache(maxsize=None)
def _pieri_sweep(counts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Kostka number at weight ``counts`` of every shape, keyed by its parts: each
    count adds every horizontal strip of its size to every shape (row ``i > 0``
    grows by at most ``row[i-1] - row[i]``) and the ways to each shape are summed."""
    row = {(): 1}
    for size in counts:
        grown: dict[tuple[int, ...], int] = {}
        for shape, ways in row.items():
            rows, heads = (*shape, 0), [((), size)]
            for i, r in enumerate(rows):
                cap = rows[i - 1] - r if i else size
                heads = [(h + (r + k,), rest - k) for h, rest in heads for k in range(min(rest, cap) + 1)]
            for h, rest in heads:
                if not rest:
                    key = h if h[-1] else h[:-1]
                    grown[key] = grown.get(key, 0) + ways
        row = grown
    return row


def branch_multiplicity(p: Partition, pattern: ComponentPattern) -> int:
    """Copies of the pattern's symmetrized line in the restriction of ``p``.

    Counts the fully symmetric (Bose) or fully antisymmetric (Fermi) irrep
    of the Young subgroup S_{N1} x S_{N2} x ... inside ``p`` restricted to
    it; by Frobenius reciprocity this is a Kostka number, of ``p`` itself
    for bosons and of the conjugate shape for fermions.
    """
    if p.n != pattern.n:
        raise ValueError(f"irrep of {p.n} cannot host a pattern of {pattern.n} particles")
    shape = p if pattern.statistics == BOSE else p.conjugate()
    return _pieri_sweep(pattern.counts).get(shape.parts, 0)


@lru_cache(maxsize=None)
def branch_row(pattern: ComponentPattern) -> tuple[int, ...]:
    """:func:`branch_multiplicity` of every irrep of S_n, in ``partitions_of`` order:
    the pattern's Pieri sweep read at ``p`` for bosons and at the conjugate of
    ``p`` for fermions; the tests check it against ``characters.kostka``."""
    sweep = _pieri_sweep(pattern.counts)
    shapes = partitions_of(pattern.n)
    if pattern.statistics == FERMI:
        shapes = (p.conjugate() for p in shapes)
    return tuple(sweep.get(shape.parts, 0) for shape in shapes)


def component_degeneracy(n: int, lam: int, pattern: ComponentPattern) -> int:
    """States obeying the pattern's symmetrization in one hyperangular subspace."""
    return degeneracy_rows(n, "lambda", [lam], [pattern])[0][0]


def cumulative_shell_degeneracy(n: int, x: int, pattern: ComponentPattern) -> int:
    """States obeying the pattern's symmetrization in the whole shell ``x``."""
    return degeneracy_rows(n, "shell", [x], [pattern])[0][0]


def degeneracy_rows(n: int, by: str, columns, patterns) -> list[list[int]]:
    """:func:`component_degeneracy` (``by="lambda"``) or :func:`cumulative_shell_degeneracy`
    (``by="shell"``) of each pattern at each column: each column's S_n content and
    each pattern's branching row are read once, and a cell is their dot product."""
    from . import oscillator

    rows = []
    for pattern in patterns:
        if pattern.n != n:
            raise ValueError(f"pattern {pattern} does not describe {n} particles")
        rows.append(branch_row(pattern))
    reduce = {"lambda": oscillator.lambda_reduction, "shell": oscillator.shell_reduction}[by]
    contents = [reduce(n, k).counts for k in columns]
    return [[sum(map(mul, content, row)) for content in contents] for row in rows]


def _hook_content_count(shape: tuple[int, ...], k: int) -> int:
    """Semistandard tableaux of ``shape`` with entries in 1..k."""
    numerator = prod(k + j - i for i, row in enumerate(shape) for j in range(row))
    denominator = prod(Partition(shape).hook_lengths())
    count, rem = divmod(numerator, denominator)
    if rem:
        raise ArithmeticError(f"hook content count is not integral for {shape}, k={k}")
    return count


@lru_cache(maxsize=None)
def spin_decomposition(n: int, k: int) -> MultiplicityVector:
    """S_n content of the spin space of ``n`` particles with ``k`` components.

    The multiplicity of a shape is its number of semistandard fillings with
    entries in 1..k, zero whenever the shape has more than ``k`` rows; the
    dimensions add up to ``k**n``.
    """
    if n < 2:
        raise ValueError(f"need at least two particles, got n={n}")
    if k < 1:
        raise ValueError(f"need at least one spin component, got k={k}")
    shapes = partitions_of(n)
    result = MultiplicityVector(shapes, tuple(_hook_content_count(s.parts, k) for s in shapes))
    if result.total_dimension() != k**n:
        raise ConsistencyError(f"spin decomposition does not fill the {k}^{n} spin space")
    return result


def patterns_for(n: int, statistics: str) -> tuple[ComponentPattern, ...]:
    """All component patterns of ``n`` particles with the given statistics,
    ordered like the partition list; the all-singlet pattern is excluded."""
    return tuple(
        ComponentPattern(p.parts, statistics)
        for p in partitions_of(n)
        if p.parts != (1,) * n
    )


def distinguishable_pattern(n: int) -> ComponentPattern:
    return ComponentPattern((1,) * n, BOSE)


def all_patterns(n: int) -> tuple[ComponentPattern, ...]:
    """Every pattern of ``n`` particles in table order: Bose, Fermi, distinguishable."""
    return (*patterns_for(n, BOSE), *patterns_for(n, FERMI), distinguishable_pattern(n))
