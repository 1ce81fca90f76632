"""Sector basis at hard-core repulsion: characters, reduction, projected vectors.

Each level built on an antisymmetric seed splits into n! degenerate
states, one per ordering sector ``x_{p1} > x_{p2} > ... > x_{pN}``.
Amplitudes are recorded against the positive per-sector functions, so a
permutation simply relabels sectors while parity inversion reverses each
ordering and carries a global sign: the seed's hyperangular parity times
the sign of the reversal permutation.  With that convention the totally
antisymmetric combination shows the familiar alternating signs.

Characters are evaluated combinatorially per conjugacy class.  Each basis
block is one group-algebra element applied to the candidates
``e_q + pi*s*e_{rev q}``; only its column at the identity sector is built,
on per-n index tables of the transpositions (the only S_n action here),
and every candidate is read off that column by right reindexing.  The
block is the first candidates with a nonzero Gram-Schmidt residual,
orthogonalized by that same pass.  Full
matrices, tuple relabelling and subgroup sums live only in the oracle
module, with the certificate of these bases and their rebuild by subgroup
sums.  The hard-core levels are listed by ``mapping.enumerate_levels``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from operator import add, itemgetter, sub

from .branching import BOSE, ComponentPattern, branch_multiplicity
from .characters import ClassFunction, character_table_snz2, sn_character
from .errors import ConsistencyError
from .linalg import dot, gram_schmidt
from .partitions import (
    MultiplicityVector,
    Partition,
    Record,
    class_size,
    irrep_dimension,
    parity_irreps,
)

Sector = tuple[int, ...]

PARITY_CHOICES = ("even", "odd")


@lru_cache(maxsize=None)
def all_sectors(n: int) -> tuple[Sector, ...]:
    """The n! ordering sectors in lexicographic order."""
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _cycle_type(perm: Sector) -> Partition:
    seen = set()
    lengths = []
    for x in perm:
        length = 0
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        if length:
            lengths.append(length)
    return Partition(tuple(sorted(lengths, reverse=True)))


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
    """Multiplicity of each parity-labelled irrep in one n!-fold sector space.

    Only two classes carry a nonzero sector character (see
    :func:`sector_rep_characters`), so the inner product with ``(p, pi)``
    collapses to ``(f_p + pi * s * chi_p(w0)) / 2``: ``f_p`` the dimension,
    ``s`` the inversion sign and ``w0`` the reversal.  No table is built.
    """
    sign = _inversion_sign(n, lambda_parity)
    reversal = reversal_cycle_type(n)
    keys = parity_irreps(n)
    counts = []
    for p, pi in keys:
        count, odd = divmod(irrep_dimension(p) + pi * sign * sn_character(p, reversal), 2)
        if odd or count < 0:
            raise ConsistencyError(f"sector reduction of {p} is not integral")
        counts.append(count)
    return MultiplicityVector(keys, tuple(counts))


class SnippetIrrepLabel(Record):
    """Position of a projected vector: the irrep ``p``, its parity ``pi``
    (+1 or -1), the rank ``tau`` (from 0) of the vector's first sector
    within its line, and the chain component ``j`` (from 1), the line of
    the ``j``-th standard tableau.  The vectors sharing one ``tau`` do not
    yet span an irreducible copy."""

    __slots__ = _fields = ("p", "pi", "tau", "j")

    def __str__(self) -> str:
        sign = "+" if self.pi > 0 else "-"
        return f"[{self.p.compact()}]{sign} tau={self.tau} j={self.j}"


class SectorVector(Record):
    """Exact amplitudes over the n! sectors, in lexicographic sector order.

    Amplitudes are primitive integers; the squared norm is tracked
    separately so no square roots ever appear.
    """

    __slots__ = _fields = ("n", "amps", "norm_sq", "label")

    def __init__(
        self,
        n: int,
        amps: tuple[int, ...],
        norm_sq: int,
        label: SnippetIrrepLabel | None = None,
    ) -> None:
        self._assign(n, amps, norm_sq, label)

    def items(self):
        return zip(all_sectors(self.n), self.amps)


@lru_cache(maxsize=None)
def _index_tables(n: int):
    """Index tables of the S_n action on sector amplitudes, built on first use.

    ``jm[k]`` holds one getter per transposition ``t = (i k)``, ``i < k``,
    returning ``(t . v)[j] = v[idx[j]]`` for every sector ``j``, so the
    Jucys-Murphy element ``X_k`` is the sum of their results.  The getters
    ``reversal`` and ``inverse`` read every sector backwards and at its
    inverse permutation.
    """
    # Sectors as byte strings, so that relabelling is one bytes.translate.
    sectors = [bytes(q) for q in all_sectors(n)]
    index = {q: j for j, q in enumerate(sectors)}
    identity = sectors[0]

    def transposition(i: int, k: int):
        swap = bytes.maketrans(bytes((i, k)), bytes((k, i)))
        return itemgetter(*(index[q.translate(swap)] for q in sectors))

    jm = {k: tuple(transposition(i, k) for i in range(1, k)) for k in range(2, n + 1)}
    reversal = itemgetter(*(index[q[::-1]] for q in sectors))
    inverse = itemgetter(*(index[identity.translate(bytes.maketrans(q, identity))] for q in sectors))
    return jm, reversal, inverse


def _right_reindex(n: int, q: Sector, v):
    """``R_q v`` for the right reindex ``R_q: e_h -> e_{h q}``, which commutes
    with every left action.

    Inverting every sector swaps right and left: ``R_q = inverse . L_{q^-1} .
    inverse``.  Peeling ``h = q`` from ``k = n`` down, each ``(h(k) k)`` is
    swapped out of ``h`` and applied to ``v``, giving ``q^-1`` as a product
    of transposition getters.
    """
    if q == all_sectors(n)[0]:
        return v
    jm, _, inverse = _index_tables(n)
    v = inverse(v)
    h = [0, *q]
    for k in range(n, 1, -1):
        j = h[k]
        if j != k:
            v = jm[k][j - 1](v)
            h[h.index(k)] = j
            h[k] = k
    return inverse(v)


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
    with that tableau's contents, cut out by the filter ``prod (X_k - c)``.
    The result is ``mult * dim`` mutually orthogonal primitive integer
    vectors labelled by ``tau`` (first-sector rank in the line) and ``j``.  With
    ``component`` the block is instead intersected with the pattern's
    symmetrized line, as needed for multi-component states: the isotypic
    projector's character column times the signed Young-subgroup sum.

    Each block is the first candidates in sector order with a nonzero
    Gram-Schmidt residual, orthogonalized by that same pass.  A sector
    whose residual vanishes maps into the span of earlier kept ones, so the
    projected isotypic columns would keep the same sectors.  A zero
    multiplicity yields an empty list.
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
    jm = _index_tables(n)[0]
    sign = pi * _inversion_sign(n, lambda_parity)
    if component is not None:
        expected = mult * branch_multiplicity(p, component)
        if expected == 0:
            return []
        chi = [sn_character(p, _cycle_type(s)) for s in all_sectors(n)]
        w = _act(chi, _young_factors(component, jm))
        basis = _block(n, w, sign, expected, f"component projection of {p}")
        return [SectorVector(n, v, dot(v, v)) for v in basis]
    # The dim chain lines are independent, so the per-chain rank checks
    # together also check the rank of the whole isotypic block.
    unit = [1] + [0] * (factorial(n) - 1)
    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        w = _act(unit, [(-c, 1, jm[k]) for k, c in _jm_factors(chain)])
        for tau, v in enumerate(_block(n, w, sign, mult, f"chain component of {p}")):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out


def _act(v, factors):
    """Apply ``prod (c + s * sum(moves))`` to ``v``, one ``(c, s, moves)`` at a time."""
    for c, s, moves in factors:
        step = add if s > 0 else sub
        image = [c * a for a in v]
        for move in moves:
            image = list(map(step, image, move(v)))
        v = image
    return v


def _young_factors(pattern: ComponentPattern, jm):
    """Factors of the pattern's Young-subgroup sum, signed for fermions.

    A block on ``start..end`` sums to ``prod_k (1 + s * sum_{start<=i<k} (i k))``
    over ``start < k <= end`` (coset factorization), with ``s = -1`` for
    fermions so that every element carries its sign.
    """
    s = 1 if pattern.statistics == BOSE else -1
    factors = []
    start = 1
    for count in pattern.counts:
        factors += [(1, s, jm[k][start - 1 :]) for k in range(start + 1, start + count)]
        start += count
    return factors


def _block(n, w, sign, limit, what) -> list[tuple[int, ...]]:
    """Gram-Schmidt over the candidates ``R_q w + sign * R_{rev q} w`` in
    sector order, stopping at the ``limit``-th nonzero residual.
    ``R_{rev q} w`` is ``R_q w`` reversed.

    The results come out ordered by first nonzero sector.  Every candidate
    is a column of one self-adjoint element that squares to a multiple of
    itself, so ``<c_r, v> = C v[r]`` for every ``v`` in the block; a
    residual, orthogonal to every earlier candidate, starts at its own."""
    flip = _index_tables(n)[1]
    step = add if sign > 0 else sub

    def candidates():
        for q in all_sectors(n):
            u = _right_reindex(n, q, w)
            yield list(map(step, u, flip(u)))

    basis = gram_schmidt(candidates(), limit=limit)
    if len(basis) != limit:
        raise ConsistencyError(f"{what} has unexpected rank")
    return basis
