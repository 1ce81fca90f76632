"""Sector basis at hard-core repulsion: characters, reduction, projected vectors.

Each level built on an antisymmetric seed splits into n! degenerate
states, one per ordering sector ``x_{p1} > x_{p2} > ... > x_{pN}``.
Amplitudes are recorded against the positive per-sector functions, so a
permutation simply relabels sectors while parity inversion reverses each
ordering and carries a global sign: the seed's hyperangular parity times
the sign of the reversal permutation.  With that convention the totally
antisymmetric combination shows the familiar alternating signs.

Characters are evaluated combinatorially per conjugacy class.  The
chain-adapted bases come from Jucys-Murphy filters on per-n index tables
of the transpositions; full matrices and subgroup sums are materialized
only in the oracle module, which also holds the explicit group action on
amplitude vectors, the invariance check of the bases built here and a
rebuild of them by subgroup sums.  The hard-core levels themselves are
listed by ``mapping.enumerate_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iter_product
from math import factorial
from operator import add, itemgetter

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
def _index_tables(n: int):
    """Index tables of the S_n action on sector amplitudes, built on first use.

    ``jm[k]`` holds one getter per transposition ``t = (i k)``, ``i < k``,
    returning ``(t . v)[j] = v[idx[j]]`` for every sector ``j``, so the
    Jucys-Murphy element ``X_k`` is the sum of their results;
    ``reversal[j]`` indexes sector ``j`` read backwards.
    """
    # Sectors as byte strings, so that relabelling is one bytes.translate.
    sectors = [bytes(q) for q in all_sectors(n)]
    index = {q: j for j, q in enumerate(sectors)}

    def transposition(i: int, k: int):
        swap = bytes.maketrans(bytes((i, k)), bytes((k, i)))
        return itemgetter(*(index[q.translate(swap)] for q in sectors))

    jm = {k: tuple(transposition(i, k) for i in range(1, k)) for k in range(2, n + 1)}
    reversal = tuple(index[q[::-1]] for q in sectors)
    return jm, reversal


def _jm_factors(chain: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """Factors ``(k, c)`` of the filter ``prod_k prod_{c != c_k} (X_k - c)``.

    ``chain`` runs from the shape of S_n down to (1).  Box ``k`` has content
    ``c_k``; ``c`` runs over the contents of the other addable corners of
    the shape of S_{k-1}, the other eigenvalues ``X_k`` can take there
    (Okounkov & Vershik, *Selecta Math.* 2 (1996)).
    """
    n = len(chain)
    factors = []
    for k in range(2, n + 1):
        smaller = (*chain[n - k + 1], 0)
        larger = (*chain[n - k], 0)
        row = next(i for i, (a, b) in enumerate(zip(smaller, larger)) if a != b)
        corners = [i for i in range(len(smaller)) if i == 0 or smaller[i - 1] > smaller[i]]
        factors += [(k, smaller[i] - i) for i in corners if i != row]
    return factors


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
    components along the subgroup chain S_n > S_{n-1} > ... > S_2: the
    component ``j`` of the ``j``-th standard tableau (in ``_standard_chains``
    order) is the joint eigenspace of the Jucys-Murphy elements X_2..X_n
    with that tableau's contents, cut out by filters on the index tables.
    The result is ``mult * dim`` mutually orthogonal primitive integer
    vectors labelled by copy ``tau`` and component ``j``.  With
    ``component`` the block is instead intersected with the pattern's
    symmetrized line, as needed for multi-component states.

    A zero multiplicity yields an empty list.
    """
    _check_parity(lambda_parity)
    if pi not in (1, -1):
        raise ValueError(f"pi must be +1 or -1, got {pi}")
    if p.n != n:
        raise ValueError(f"irrep {p} does not belong to S_{n}")
    if component is not None and component.n != n:
        raise ValueError(f"pattern {component} does not describe {n} particles")
    mult = snippet_reduction(n, lambda_parity)[(p, pi)]
    if mult == 0:
        return []
    if component is not None:
        return _component_basis(n, lambda_parity, p, pi, mult, component)

    # Each standard chain's filter maps e_q + pi*s*e_{rev q}, in sector
    # order, to a fixed nonzero multiple of its projection onto the chain's
    # Gelfand-Tsetlin line, so the greedy pass keeps the same sectors as
    # one over the projected isotypic columns.  The dim chain lines are
    # independent, so the per-chain rank checks together also check the
    # rank of the whole isotypic block.
    jm, reversal = _index_tables(n)
    sign = pi * _inversion_sign(n, lambda_parity)
    size = len(reversal)

    def filtered(factors):
        for q in range(size):
            v = [0] * size
            v[q] = 1
            v[reversal[q]] += sign
            for k, c in factors:
                image = [-c * a for a in v]
                for move in jm[k]:
                    image = list(map(add, image, move(v)))
                v = image
            yield v

    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        basis = select_independent(filtered(_jm_factors(chain)), limit=mult)
        if len(basis) != mult:
            raise ConsistencyError(f"chain component of {p} has unexpected rank")
        for tau, v in enumerate(_orthogonal(basis)):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out


def _orthogonal(basis) -> list[tuple[int, ...]]:
    """Primitive Gram-Schmidt of ``basis``, ordered by first nonzero sector."""
    vectors = gram_schmidt(basis)
    vectors.sort(key=lambda v: next(i for i, a in enumerate(v) if a))
    return vectors


def _component_basis(n, lambda_parity, p, pi, mult, component) -> list[SectorVector]:
    """The isotypic block intersected with the pattern's symmetrized line."""
    expected = mult * branch_multiplicity(p, component)
    if expected == 0:
        return []
    dim = irrep_dimension(p)
    columns = (_isotypic_column(n, lambda_parity, p, pi, q) for q in all_sectors(n))
    span = select_independent(columns, limit=mult * dim)
    if len(span) != mult * dim:
        raise ConsistencyError(f"isotypic block of {p} has unexpected rank")
    projected = [_pattern_project(n, component, v) for v in span]
    basis = select_independent(projected, limit=expected)
    if len(basis) != expected:
        raise ConsistencyError(f"component projection of {p} has unexpected rank")
    return [SectorVector(n, v, dot(v, v)) for v in _orthogonal(basis)]
