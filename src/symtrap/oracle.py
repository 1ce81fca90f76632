"""Brute-force routes, used only for cross-checking.

These builders materialize the actual (signed) permutation matrices that
the production code deliberately avoids, take traces, and decompose them
with the character tables; the shell and hyperangular reductions are also
recounted combinatorially, by Kostka counts over excitation multisets and a
subtraction recursion over shells, and the subgroup branching by a
character inner product over the Young subgroup.  The same signed
permutations check that a sector basis is invariant under the group
(``verify_sector_basis``) and rebuild it by subgroup character sums
(``subgroup_chain_basis``).  They are orders of magnitude slower than the
production paths and guarded by hard limits; they run from the test suite
and behind the CLI ``--verify`` flag, never in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as iter_product
from math import factorial, prod

# ``perfbench/traced_cli.py`` imports ``symtrap.cli`` and this module, then
# wraps the functions of every layer it finds in ``sys.modules``, mapping
# included; since the CLI imports its layers on demand, this import keeps
# mapping loaded for it.  ROADMAP item 4 (tracing inside the package)
# retires this pin.
from . import mapping  # noqa: F401
from .branching import BOSE, FERMI, ComponentPattern
from .characters import (
    ClassFunction,
    character_table_sn,
    character_table_snz2,
    kostka,
    reduce_class_function,
    sn_character,
)
from .errors import ConsistencyError
from .linalg import dot, matrix_rank, select_independent
from .partitions import (
    MultiplicityVector,
    Partition,
    class_sign,
    class_size,
    irrep_dimension,
    partitions_into_max_parts,
    partitions_of,
)
from .snippet import (
    SectorVector,
    SnippetIrrepLabel,
    _cycle_type,
    _inversion_sign,
    _orthogonal,
    _standard_chains,
    all_sectors,
    snippet_reduction,
)

SHELL_N_LIMIT = 5
SHELL_X_LIMIT = 8
SECTOR_N_LIMIT = 6
#: Largest particle number whose sector bases are rebuilt by subgroup sums.
CHAIN_N_LIMIT = 5
#: Largest grand angular momentum recounted by the Kostka route, which
#: enumerates every partition of every shell up to it (p(24) = 1575).
LAMBDA_LIMIT = 24


def _apply(c: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel the ordering ``p`` by the permutation ``c``."""
    return tuple(c[x - 1] for x in p)


@lru_cache(maxsize=None)
def _sector_index(n: int) -> dict:
    return {p: i for i, p in enumerate(all_sectors(n))}


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation matrix, stored as image index and sign per column."""

    images: tuple[int, ...]
    signs: tuple[int, ...]

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        images = tuple(self.images[j] for j in other.images)
        signs = tuple(s * self.signs[j] for j, s in zip(other.images, other.signs))
        return SignedPerm(images, signs)

    def apply(self, vec) -> list:
        """The matrix times the column vector ``vec``."""
        out = [0] * len(vec)
        for amp, row, s in zip(vec, self.images, self.signs):
            out[row] += s * amp
        return out

    def trace(self) -> int:
        return sum(s for i, (j, s) in enumerate(zip(self.images, self.signs)) if i == j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images)) and all(
            s == 1 for s in self.signs
        )

    def dense_rows(self) -> list[tuple[int, ...]]:
        size = len(self.images)
        rows = [[0] * size for _ in range(size)]
        for col, (row, s) in enumerate(zip(self.images, self.signs)):
            rows[row][col] = s
        return [tuple(r) for r in rows]


@dataclass(frozen=True)
class ExplicitRep:
    """An explicit matrix representation with its per-class traces."""

    group: str
    dimension: int
    basis: tuple
    generators: tuple[tuple[str, SignedPerm], ...]
    classes: tuple
    traces: tuple[int, ...]


@lru_cache(maxsize=None)
def kostka_shell_reduction(n: int, x: int) -> MultiplicityVector:
    """Shell content by Kostka counts: each way of distributing ``x`` quanta
    over ``n`` particles contributes the Kostka count of its multiset."""
    shapes = partitions_of(n)
    totals = [0] * len(shapes)
    for quanta in partitions_into_max_parts(x, n):
        content = (0,) * (n - len(quanta)) + tuple(sorted(quanta))
        for i, shape in enumerate(shapes):
            totals[i] += kostka(shape, content)
    return MultiplicityVector(shapes, tuple(totals))


@lru_cache(maxsize=None)
def subtraction_lambda_reduction(n: int, lam: int) -> MultiplicityVector:
    """Hyperangular content from the Kostka shell at ``x = lam`` minus every
    subspace with smaller grand angular momentum; there are
    ``(lam - l)//2 + 1`` centre-of-mass/hyperradial copies of each lower ``l``."""
    result = kostka_shell_reduction(n, lam)
    for lower in range(lam):
        copies = (lam - lower) // 2 + 1
        result = result - subtraction_lambda_reduction(n, lower).scaled(copies)
    return result


def branch_multiplicity_by_characters(p: Partition, pattern: ComponentPattern) -> int:
    """``branching.branch_multiplicity`` through the subgroup character inner product."""
    if p.n != pattern.n:
        raise ValueError(f"irrep of {p.n} cannot host a pattern of {pattern.n} particles")
    blocks = pattern.counts
    order = prod(factorial(b) for b in blocks)
    total = 0
    for combo in iter_product(*[partitions_of(b) for b in blocks]):
        size = prod(class_size(c) for c in combo)
        merged = Partition(tuple(sorted((part for c in combo for part in c.parts), reverse=True)))
        chi = sn_character(p, merged)
        eps = 1
        if pattern.statistics == FERMI:
            eps = prod(class_sign(c) for c in combo)
        total += size * eps * chi
    count, rem = divmod(total, order)
    if rem or count < 0:
        raise ConsistencyError(f"subgroup reduction of {p} by {pattern} is not integral")
    return count


def _class_representative(cycle_type: Partition) -> tuple[int, ...]:
    """One-line form of a permutation with the given cycle type."""
    image = list(range(1, cycle_type.n + 1))
    start = 0
    for length in cycle_type.parts:
        for offset in range(length):
            image[start + offset] = start + 1 + (offset + 1) % length
        start += length
    return tuple(image)


def _shell_basis(n: int, x: int) -> tuple[tuple[int, ...], ...]:
    """All n-tuples of non-negative quanta summing to x, lexicographic."""

    def rec(slots: int, remaining: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(slots - 1, remaining - first):
                yield (first, *rest)

    return tuple(sorted(rec(n, x)))


def _shell_action(c: tuple[int, ...], basis, index) -> SignedPerm:
    inverse = [0] * len(c)
    for slot, value in enumerate(c):
        inverse[value - 1] = slot
    images = []
    for state in basis:
        moved = tuple(state[inverse[i]] for i in range(len(c)))
        images.append(index[moved])
    return SignedPerm(tuple(images), (1,) * len(basis))


def explicit_shell_rep(n: int, x: int) -> tuple[ExplicitRep, MultiplicityVector]:
    """Coordinate-permutation representation on one oscillator shell.

    Decomposed by trace inner products; the production shell reduction must
    agree with the returned multiplicities.
    """
    if not (2 <= n <= SHELL_N_LIMIT and 0 <= x <= SHELL_X_LIMIT):
        raise ValueError(
            f"shell oracle guards: 2 <= n <= {SHELL_N_LIMIT}, 0 <= x <= {SHELL_X_LIMIT}"
        )
    basis = _shell_basis(n, x)
    index = {state: i for i, state in enumerate(basis)}
    table = character_table_sn(n)
    traces = tuple(
        _shell_action(_class_representative(c), basis, index).trace() for c in table.classes
    )
    generators = tuple(
        (f"s{i}", _shell_action(_adjacent(n, i), basis, index)) for i in range(1, n)
    )
    rep = ExplicitRep(table.group, len(basis), basis, generators, table.classes, traces)
    reduction = reduce_class_function(
        ClassFunction(table.group, table.classes, traces), table
    )
    return rep, reduction


def _adjacent(n: int, i: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return tuple(image)


@lru_cache(maxsize=None)
def _sector_action(n: int, c: tuple[int, ...], inverted: int, sign: int) -> SignedPerm:
    index = _sector_index(n)
    images = []
    for q in all_sectors(n):
        target = q[::-1] if inverted else q
        images.append(index[_apply(c, target)])
    signs = (sign if inverted else 1,) * len(images)
    return SignedPerm(tuple(images), signs)


def explicit_sector_rep(n: int, lambda_parity: str) -> tuple[ExplicitRep, MultiplicityVector]:
    """Matrices of the sector representation for one seed parity.

    Every matrix is a signed permutation; the traces must equal the
    combinatorial sector characters and the decomposition the production
    snippet reduction.
    """
    if not 2 <= n <= SECTOR_N_LIMIT:
        raise ValueError(f"sector oracle guard: 2 <= n <= {SECTOR_N_LIMIT}")
    table = character_table_snz2(n)
    sign = _inversion_sign(n, lambda_parity)
    traces = tuple(
        _sector_action(n, _class_representative(c), inverted, sign).trace()
        for c, inverted in table.classes
    )
    generators = tuple(
        (f"s{i}", _sector_action(n, _adjacent(n, i), 0, sign)) for i in range(1, n)
    ) + (("inversion", _sector_action(n, tuple(range(1, n + 1)), 1, sign)),)
    rep = ExplicitRep(
        table.group, factorial(n), all_sectors(n), generators, table.classes, traces
    )
    reduction = reduce_class_function(
        ClassFunction(table.group, table.classes, traces), table
    )
    return rep, reduction


def _isotypic_columns(n: int, lambda_parity: str, p: Partition, pi: int):
    """Columns, in sector order, of ``sum_c chi_p(c) U(c) (1 + pi U(inversion))``,
    the explicitly summed projector onto the ``(p, pi)`` isotypic."""
    sign = _inversion_sign(n, lambda_parity)
    inversion = _sector_action(n, tuple(range(1, n + 1)), 1, sign)
    terms = [
        (sn_character(p, _cycle_type(c)), _sector_action(n, c, 0, sign)) for c in all_sectors(n)
    ]
    for q in range(factorial(n)):
        col = [0] * factorial(n)
        for chi, g in terms:
            col[g.images[q]] += chi
        yield [a + pi * b for a, b in zip(col, inversion.apply(col))]


def explicit_isotypic_rank(n: int, lambda_parity: str, p: Partition, pi: int) -> int:
    """Rank of the explicitly summed projector onto the ``(p, pi)`` isotypic."""
    if not 2 <= n <= SHELL_N_LIMIT:
        raise ValueError(f"projector rank guard: 2 <= n <= {SHELL_N_LIMIT}")
    return matrix_rank(_isotypic_columns(n, lambda_parity, p, pi))


def verify_shell_homomorphism(n: int, x: int, pairs: int = 20, seed: int = 0) -> None:
    """Check U(a) @ U(b) == U(ab) on random pairs for the shell action."""
    import random

    rng = random.Random(seed)
    basis = _shell_basis(n, x)
    index = {state: i for i, state in enumerate(basis)}
    for _ in range(pairs):
        a = tuple(rng.sample(range(1, n + 1), n))
        b = tuple(rng.sample(range(1, n + 1), n))
        left = _shell_action(a, basis, index) @ _shell_action(b, basis, index)
        right = _shell_action(_apply(a, b), basis, index)
        if left != right:
            raise ConsistencyError(f"shell action is not a homomorphism for n={n}, x={x}")


def verify_sector_homomorphism(
    n: int, lambda_parity: str, pairs: int = 20, seed: int = 0
) -> None:
    """Check U(g) @ U(h) == U(gh) on random doubled-group pairs, plus that
    inversion squares to the identity and is central."""
    import random

    rng = random.Random(seed)
    sign = _inversion_sign(n, lambda_parity)
    identity = tuple(range(1, n + 1))
    inversion = _sector_action(n, identity, 1, sign)
    if not (inversion @ inversion).is_identity():
        raise ConsistencyError(f"sector inversion does not square to 1 for n={n}")
    for _ in range(pairs):
        a = tuple(rng.sample(range(1, n + 1), n))
        b = tuple(rng.sample(range(1, n + 1), n))
        inv_a, inv_b = rng.randrange(2), rng.randrange(2)
        left = _sector_action(n, a, inv_a, sign) @ _sector_action(n, b, inv_b, sign)
        product = _apply(a, b)
        right = _sector_action(n, product, (inv_a + inv_b) % 2, sign)
        if left != right:
            raise ConsistencyError(
                f"sector action is not a homomorphism for n={n}, {lambda_parity}"
            )
        pure = _sector_action(n, a, 0, sign)
        if pure @ inversion != inversion @ pure:
            raise ConsistencyError(f"sector inversion is not central for n={n}")


def verify_sector_basis(
    n: int,
    lambda_parity: str,
    pi: int,
    vectors,
    component: ComponentPattern | None = None,
) -> None:
    """Check a ``snippet_projection_basis`` result with explicit signed permutations.

    The vectors must be pairwise orthogonal with the stored squared norms.
    A chain-path basis must span a space that the adjacent transpositions
    and inversion map into itself: the image ``g v`` lies in the span
    exactly when sum_b (b . g v)^2 / |b|^2 equals |v|^2 (Bessel equality
    for an orthogonal basis).  Component vectors are not S_n-invariant;
    instead inversion must act as ``pi`` and every adjacent transposition
    inside one component block as the pattern's sign (+1 Bose, -1 Fermi).
    """
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            if dot(a.amps, b.amps) != 0:
                raise ConsistencyError("sector basis vectors are not orthogonal")
        if dot(a.amps, a.amps) != a.norm_sq:
            raise ConsistencyError("sector vector norm bookkeeping is wrong")
    sign = _inversion_sign(n, lambda_parity)
    inversion = _sector_action(n, tuple(range(1, n + 1)), 1, sign)
    if component is None:
        actions = [_sector_action(n, _adjacent(n, i), 0, sign) for i in range(1, n)]
        for v in vectors:
            for g in actions + [inversion]:
                image = g.apply(v.amps)
                if sum(Fraction(dot(b.amps, image) ** 2, b.norm_sq) for b in vectors) != v.norm_sq:
                    raise ConsistencyError("sector basis is not invariant under S_n x Z2")
        return
    exchange = 1 if component.statistics == BOSE else -1
    eigen = [(inversion, pi)]
    start = 1
    for count in component.counts:
        for i in range(start, start + count - 1):
            eigen.append((_sector_action(n, _adjacent(n, i), 0, sign), exchange))
        start += count
    for v in vectors:
        for g, value in eigen:
            if g.apply(v.amps) != [value * a for a in v.amps]:
                raise ConsistencyError(f"component vector is not an eigenvector of {component}")


def _weighted_sum(terms, vec) -> list:
    """``sum weight * g vec`` over the ``(weight, g)`` pairs in ``terms``."""
    out = [0] * len(vec)
    for weight, g in terms:
        if weight:
            out = [a + weight * b for a, b in zip(out, g.apply(vec))]
    return out


def _subgroup_projector(n: int, shape: tuple[int, ...], sign: int):
    """Character projector of the ``shape`` isotypic of S_m on 1..m, m = |shape|."""
    m = sum(shape)
    rest = tuple(range(m + 1, n + 1))
    return [
        (sn_character(Partition(shape), _cycle_type(sub)), _sector_action(n, sub + rest, 0, sign))
        for sub in permutations(range(1, m + 1))
    ]


def _young_projector(n: int, pattern: ComponentPattern, sign: int):
    """Sum over the pattern's Young subgroup, signed for fermions."""
    blocks = []
    start = 1
    for count in pattern.counts:
        blocks.append(list(permutations(range(start, start + count))))
        start += count
    terms = []
    for combo in iter_product(*blocks):
        c = tuple(v for block in combo for v in block)
        eps = class_sign(_cycle_type(c)) if pattern.statistics == FERMI else 1
        terms.append((eps, _sector_action(n, c, 0, sign)))
    return terms


def subgroup_chain_basis(
    n: int,
    lambda_parity: str,
    p: Partition,
    pi: int,
    component: ComponentPattern | None = None,
) -> list[SectorVector]:
    """``snippet.snippet_projection_basis`` rebuilt from explicit subgroup sums.

    The ``(p, pi)`` isotypic block is spanned by the first independent
    columns, in sector order, of the projector
    ``sum_c chi_p(c) U(c) (1 + pi U(inversion))``.  Without ``component``
    each standard chain's copies come from projecting that span with the
    character projectors of S_{n-1} > ... > S_2 along the chain; with it,
    from the sum over the pattern's Young subgroup.  Every sum runs over
    all subgroup elements, so this is guarded to ``n <= CHAIN_N_LIMIT``.
    """
    if not 2 <= n <= CHAIN_N_LIMIT:
        raise ValueError(f"subgroup chain guard: 2 <= n <= {CHAIN_N_LIMIT}")
    mult = snippet_reduction(n, lambda_parity)[(p, pi)]
    if mult == 0:
        return []
    dim = irrep_dimension(p)
    span = select_independent(_isotypic_columns(n, lambda_parity, p, pi), limit=mult * dim)
    if len(span) != mult * dim:
        raise ConsistencyError(f"isotypic block of {p} has unexpected rank")
    sign = _inversion_sign(n, lambda_parity)

    def projected(projectors):
        for v in span:
            for terms in projectors:
                v = _weighted_sum(terms, v)
            yield v

    # No limit below: the kept count is the rank, an independent check of
    # the multiplicities the production route stops at.
    if component is not None:
        basis = select_independent(projected([_young_projector(n, component, sign)]))
        return [SectorVector(n, v, dot(v, v)) for v in _orthogonal(basis)]
    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        projectors = [_subgroup_projector(n, shape, sign) for shape in chain[1:-1]]
        basis = select_independent(projected(projectors))
        for tau, v in enumerate(_orthogonal(basis)):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out
