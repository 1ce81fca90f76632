"""Sector basis at hard-core repulsion: characters, reduction, projected vectors.

Each level built on an antisymmetric seed splits into n! degenerate
states, one per ordering sector ``x_{p1} > x_{p2} > ... > x_{pN}``.
Amplitudes are recorded against the positive per-sector functions, so a
permutation simply relabels sectors while parity inversion reverses each
ordering and carries a global sign: the seed's hyperangular parity times
the sign of the reversal permutation.  With that convention the totally
antisymmetric combination shows the familiar alternating signs.

Characters are evaluated combinatorially per conjugacy class; full
matrices are materialized only in the oracle module, which also holds the
explicit group action on amplitude vectors and the invariance check of
the bases built here.  The hard-core levels themselves are listed by
``mapping.enumerate_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iter_product
from math import factorial

from .branching import BOSE, ComponentPattern, branch_multiplicity
from .characters import (
    ClassFunction,
    character_table_snz2,
    sn_character,
)
from .errors import ConsistencyError
from .linalg import dot, gram_schmidt, select_independent
from .partitions import (
    MultiplicityVector,
    Partition,
    class_sign,
    class_size,
    irrep_dimension,
)

Sector = tuple[int, ...]

PARITY_CHOICES = ("even", "odd")


@lru_cache(maxsize=None)
def all_sectors(n: int) -> tuple[Sector, ...]:
    """The n! ordering sectors in lexicographic order."""
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _sector_index(n: int) -> dict:
    return {p: i for i, p in enumerate(all_sectors(n))}


@lru_cache(maxsize=None)
def _cycle_type(perm: Sector) -> Partition:
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x - 1]
            length += 1
        lengths.append(length)
    return Partition(tuple(sorted(lengths, reverse=True)))


def _apply(c: Sector, p: Sector) -> Sector:
    """Relabel the ordering ``p`` by the permutation ``c``."""
    return tuple(c[x - 1] for x in p)


def reversal_cycle_type(n: int) -> Partition:
    """Cycle type of the ordering reversal, the only non-identity class
    whose parity-doubled character can be nonzero."""
    return Partition((2,) * (n // 2) + (1,) * (n % 2))


def _check_parity(lambda_parity: str) -> None:
    if lambda_parity not in PARITY_CHOICES:
        raise ValueError(f"lambda_parity must be 'even' or 'odd', got {lambda_parity!r}")


def _inversion_sign(n: int, lambda_parity: str) -> int:
    """Global sign of the parity-inversion matrix on the sector basis."""
    _check_parity(lambda_parity)
    seed = 1 if lambda_parity == "even" else -1
    reversal = -1 if (n // 2) % 2 else 1
    return seed * reversal


def sector_rep_characters(n: int, lambda_parity: str) -> ClassFunction:
    """Traces of the sector representation on each class of S_n x Z2.

    The identity contributes n!; every other pure permutation moves all
    sectors, so its trace vanishes.  Composed with inversion, only the
    class of the ordering reversal survives and its trace equals the
    centralizer order times the global inversion sign.
    """
    table = character_table_snz2(n)
    reversal = reversal_cycle_type(n)
    sign = _inversion_sign(n, lambda_parity)
    identity = Partition((1,) * n)
    values = []
    for cycle_type, inverted in table.classes:
        if not inverted:
            values.append(factorial(n) if cycle_type == identity else 0)
        elif cycle_type == reversal:
            values.append(sign * (factorial(n) // class_size(reversal)))
        else:
            values.append(0)
    return ClassFunction(table.group, table.classes, tuple(values))


@lru_cache(maxsize=None)
def snippet_reduction(n: int, lambda_parity: str) -> MultiplicityVector:
    """Multiplicity of each parity-labelled irrep in one n!-fold sector space."""
    from .characters import reduce_class_function

    return reduce_class_function(sector_rep_characters(n, lambda_parity), character_table_snz2(n))


@dataclass(frozen=True)
class SnippetIrrepLabel:
    """Position of a projected vector: irrep, parity, copy and component index."""

    p: Partition
    pi: int
    tau: int
    j: int

    def __str__(self) -> str:
        sign = "+" if self.pi > 0 else "-"
        return f"[{self.p.compact()}]{sign} tau={self.tau} j={self.j}"


@dataclass(frozen=True)
class SectorVector:
    """Exact amplitudes over the n! sectors, in lexicographic sector order.

    Amplitudes are primitive integers; the squared norm is tracked
    separately so no square roots ever appear.
    """

    n: int
    amps: tuple[int, ...]
    norm_sq: int
    label: SnippetIrrepLabel | None = None

    def items(self):
        return zip(all_sectors(self.n), self.amps)


def _isotypic_column(n, lambda_parity, p, pi, q):
    """Column of the (unnormalized) isotypic projector at the sector ``q``."""
    index = _sector_index(n)
    inv_sign = _inversion_sign(n, lambda_parity)
    col = [0] * factorial(n)
    reversed_q = q[::-1]
    for c in all_sectors(n):
        chi = sn_character(p, _cycle_type(c))
        if not chi:
            continue
        col[index[_apply(c, q)]] += chi
        col[index[_apply(c, reversed_q)]] += pi * chi * inv_sign
    return col


def _chain_project(n: int, m: int, shape: Partition, vec):
    """Project onto the ``shape`` isotypic of the subgroup permuting 1..m."""
    index = _sector_index(n)
    out = [0] * len(vec)
    for sub in permutations(range(1, m + 1)):
        chi = sn_character(shape, _cycle_type(sub))
        if not chi:
            continue
        c = sub + tuple(range(m + 1, n + 1))
        for amp, q in zip(vec, all_sectors(n)):
            if amp:
                out[index[_apply(c, q)]] += chi * amp
    return out


def _pattern_project(n: int, pattern: ComponentPattern, vec):
    """Project onto the pattern's symmetrized line of its Young subgroup."""
    index = _sector_index(n)
    starts = []
    base = 1
    for c in pattern.counts:
        starts.append(base)
        base += c
    block_perms = []
    for start, count in zip(starts, pattern.counts):
        block_perms.append(list(permutations(range(start, start + count))))
    out = [0] * len(vec)
    for combo in iter_product(*block_perms):
        c = [0] * n
        eps = 1
        for start, block in zip(starts, combo):
            for offset, value in enumerate(block):
                c[start - 1 + offset] = value
            if pattern.statistics != BOSE:
                eps *= class_sign(_cycle_type(tuple(v - start + 1 for v in block)))
        c = tuple(c)
        for amp, q in zip(vec, all_sectors(n)):
            if amp:
                out[index[_apply(c, q)]] += eps * amp
    return out


@lru_cache(maxsize=None)
def _standard_chains(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition chains from ``shape`` down to (1), one per standard tableau."""
    if sum(shape) == 1:
        return (((1,),),)
    chains = []
    for i in range(len(shape)):
        if shape[i] and (i + 1 == len(shape) or shape[i] > shape[i + 1]):
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            for chain in _standard_chains(tuple(smaller)):
                chains.append((shape,) + chain)
    return tuple(sorted(chains))


def snippet_projection_basis(
    n: int,
    lambda_parity: str,
    p: Partition,
    pi: int,
    component: ComponentPattern | None = None,
) -> list[SectorVector]:
    """Orthogonal exact basis of the ``(p, pi)`` isotypic sector subspace.

    Without ``component`` the isotypic block is split to individual irrep
    components via the subgroup chain S_{n-1} > ... > S_2, whose joint
    eigenlines are unique; the result is ``mult * dim`` mutually orthogonal
    primitive integer vectors labelled by copy ``tau`` and component ``j``.
    With ``component`` the block is instead intersected with the pattern's
    symmetrized line, as needed for multi-component states.

    A zero multiplicity yields an empty list.
    """
    _check_parity(lambda_parity)
    if pi not in (1, -1):
        raise ValueError(f"pi must be +1 or -1, got {pi}")
    if p.n != n:
        raise ValueError(f"irrep {p} does not belong to S_{n}")
    mult = snippet_reduction(n, lambda_parity)[(p, pi)]
    if mult == 0:
        return []
    dim = irrep_dimension(p)
    sectors = all_sectors(n)

    def isotypic_columns():
        for q in sectors:
            yield _isotypic_column(n, lambda_parity, p, pi, q)

    span = select_independent(isotypic_columns(), limit=mult * dim)
    if len(span) != mult * dim:
        raise ConsistencyError(f"isotypic block of {p} has unexpected rank")

    if component is not None:
        if component.n != n:
            raise ValueError(f"pattern {component} does not describe {n} particles")
        expected = mult * branch_multiplicity(p, component)
        if expected == 0:
            return []
        projected = [_pattern_project(n, component, v) for v in span]
        basis = select_independent(projected, limit=expected)
        if len(basis) != expected:
            raise ConsistencyError(f"component projection of {p} has unexpected rank")
        vectors = gram_schmidt(basis)
        vectors.sort(key=lambda v: next(i for i, a in enumerate(v) if a))
        return [SectorVector(n, v, dot(v, v)) for v in vectors]

    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        vectors = span
        for shape in chain[1:-1]:
            m = sum(shape)
            vectors = [_chain_project(n, m, Partition(shape), v) for v in vectors]
        basis = select_independent(vectors, limit=mult)
        if len(basis) != mult:
            raise ConsistencyError(f"chain component of {p} has unexpected rank")
        ortho = gram_schmidt(basis)
        ortho.sort(key=lambda v: next(i for i, a in enumerate(v) if a))
        for tau, v in enumerate(ortho):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out
