"""Symmetrization counting for multi-component bosons and fermions.

A component pattern records how many particles sit in each distinguishable
spin component.  Physical states must carry the fully symmetric (bosons)
or fully antisymmetric (fermions) line of the corresponding Young
subgroup, and the number of such lines inside an S_n irrep is a Kostka
count.  Each pattern's counts over all irreps form one memoized row,
which every degeneracy and ground-state search reads; the slower subgroup
character inner product lives in ``oracle`` as the cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .characters import kostka
from .errors import ConsistencyError
from .oscillator import lambda_reduction, shell_reduction
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
        blocks = []
        for c in self.counts:
            if c == 1:
                blocks.append("[1]")
            elif self.statistics == BOSE:
                blocks.append(f"[{c}]")
            else:
                blocks.append(f"[1^{c}]")
        return "x".join(blocks)

    def __str__(self) -> str:
        return self.label()


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
    return kostka(shape, pattern.content())


@lru_cache(maxsize=None)
def branch_row(pattern: ComponentPattern) -> tuple[int, ...]:
    """:func:`branch_multiplicity` of every irrep of S_n, in ``partitions_of`` order."""
    return tuple(branch_multiplicity(p, pattern) for p in partitions_of(pattern.n))


def _degeneracy(n: int, reduce, k: int, pattern: ComponentPattern) -> int:
    """The S_n content ``reduce(n, k)`` dotted with the pattern's branching row."""
    if pattern.n != n:
        raise ValueError(f"pattern {pattern} does not describe {n} particles")
    return sum(c * b for c, b in zip(reduce(n, k).counts, branch_row(pattern)))


def component_degeneracy(n: int, lam: int, pattern: ComponentPattern) -> int:
    """States obeying the pattern's symmetrization in one hyperangular subspace."""
    return _degeneracy(n, lambda_reduction, lam, pattern)


def cumulative_shell_degeneracy(n: int, x: int, pattern: ComponentPattern) -> int:
    """States obeying the pattern's symmetrization in the whole shell ``x``."""
    return _degeneracy(n, shell_reduction, x, pattern)


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
