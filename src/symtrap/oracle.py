"""Brute-force routes, used only for cross-checking.

These builders materialize the actual (signed) permutation matrices that
the production code deliberately avoids, take traces, and decompose them
with the character tables; the shell and hyperangular reductions are also
recounted combinatorially, by Kostka counts over excitation multisets and a
subtraction recursion over shells, and the subgroup branching by a
character inner product over the Young subgroup.  A sector basis is
certified by ``verify_sector_basis`` from the Jucys-Murphy elements, sums
of the oracle's transposition actions, and the order of first sectors, in
O(N n^2 n!) for N vectors; ``subgroup_chain_basis`` rebuilds it by
subgroup character sums over whole groups, as the tests' reference.  The
oracle builds its own actions, by relabelling sectors, and shares no
action code with ``snippet``.  Its whole-group sums are guarded by hard
limits; it runs from the test suite and behind the CLI ``--verify`` flag,
never in production.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product as iter_product, repeat
from math import factorial, gcd, prod
from operator import add, itemgetter, mul

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
from .linalg import dot, gram_schmidt
from .partitions import (
    MultiplicityVector,
    Partition,
    Record,
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
def _sector_codes(n: int):
    """The sectors as byte strings, the same reversed, and the index of each."""
    codes = [bytes(q) for q in all_sectors(n)]
    return codes, [q[::-1] for q in codes], {q: i for i, q in enumerate(codes)}


class SignedPerm(Record):
    """A signed permutation matrix: per column, its image index in ``images``
    and its sign (+1 or -1) in ``signs``."""

    __slots__ = _fields = ("images", "signs")

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        images = tuple(self.images[j] for j in other.images)
        signs = tuple(s * self.signs[j] for j, s in zip(other.images, other.signs))
        return SignedPerm(images, signs)

    def apply(self, vec) -> list:
        """The matrix times the column vector ``vec``."""
        gather, signs = _gather(self)
        return list(map(mul, signs, gather(vec)))

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


@lru_cache(maxsize=None)
def _gather(m: SignedPerm):
    """Row ``r`` of ``m`` times a vector is ``sign * vec[col]`` for the one
    column ``col`` that ``m`` sends to ``r``: the getter of those columns,
    in row order, and their signs."""
    cols = sorted(range(len(m.images)), key=m.images.__getitem__)
    # An itemgetter of one index returns the item, not a tuple.
    gather = itemgetter(*cols) if len(cols) > 1 else itemgetter(slice(None))
    return gather, tuple(m.signs[col] for col in cols)


class ExplicitRep(Record):
    """An explicit matrix representation: ``(name, SignedPerm)`` generators
    and the trace on each of ``classes``."""

    __slots__ = _fields = ("group", "dimension", "basis", "generators", "classes", "traces")


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
    return rep, reduce_class_function(ClassFunction(rep.group, rep.classes, rep.traces), table)


def _adjacent(n: int, i: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return tuple(image)


@lru_cache(maxsize=None)
def _sector_action(n: int, c: tuple[int, ...], inverted: int, sign: int) -> SignedPerm:
    """Sector ``q`` goes to ``c`` relabelling ``q`` (reversed first when
    ``inverted``); the relabelling is one byte translation per sector."""
    codes, reversed_codes, index = _sector_codes(n)
    table = bytes((0, *c, *range(n + 1, 256)))
    images = tuple([index[q.translate(table)] for q in (reversed_codes if inverted else codes)])
    return SignedPerm(images, (sign if inverted else 1,) * len(images))


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
    return rep, reduce_class_function(ClassFunction(rep.group, rep.classes, rep.traces), table)


def _isotypic_columns(n: int, lambda_parity: str, p: Partition, pi: int):
    """Columns, in sector order, of ``sum_c chi_p(c) U(c) (1 + pi U(inversion))``,
    the explicitly summed projector onto the ``(p, pi)`` isotypic."""
    sign = _inversion_sign(n, lambda_parity)
    inversion = _sector_action(n, tuple(range(1, n + 1)), 1, sign)
    sectors = all_sectors(n)
    chi = {c: sn_character(p, _cycle_type(c)) for c in sectors}
    # U(c) e_q = e_{c q}, so entry t of column q is chi_p(t q^-1): t read
    # at the positions q^-1.
    for q in sectors:
        inverse = sorted(range(n), key=q.__getitem__)
        col = list(map(chi.__getitem__, map(itemgetter(*inverse), sectors)))
        yield list(map(add, col, map(mul, repeat(pi), inversion.apply(col))))


def explicit_isotypic_rank(n: int, lambda_parity: str, p: Partition, pi: int) -> int:
    """Rank of the explicitly summed projector onto the ``(p, pi)`` isotypic."""
    if not 2 <= n <= SHELL_N_LIMIT:
        raise ValueError(f"projector rank guard: 2 <= n <= {SHELL_N_LIMIT}")
    return len(gram_schmidt(_isotypic_columns(n, lambda_parity, p, pi)))


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


@lru_cache(maxsize=None)
def _jucys_murphy(n: int) -> dict[int, tuple]:
    """``jm[k]`` holds the getters of ``U((i k))``, ``i < k``, whose results
    sum to ``X_k v``.  A transposition is an involution, so the sectors it
    sends each sector to are also the ones it gathers from.  Only the
    adjacent ``s = (k-1 k)`` are relabelled; ``(i k) = s (i k-1) s`` is
    composed from index tuples."""
    swaps: list[tuple[int, ...]] = []
    jm = {}
    for k in range(2, n + 1):
        s = _sector_action(n, _adjacent(n, k - 1), 0, 1).images
        gather = itemgetter(*s)
        swaps = [itemgetter(*gather(t))(s) for t in swaps] + [s]
        jm[k] = tuple(itemgetter(*t) for t in swaps)
    return jm


def _x(moves, vec) -> list:
    """``X_k vec`` for the getters ``moves`` of ``X_k``."""
    image = moves[0](vec)
    for move in moves[1:]:
        image = map(add, image, move(vec))
    return list(image)


def _contents(chain: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """``(k, c_k)`` for k = 2..n: the content (column minus row) of the box
    holding ``k`` in the standard tableau that ``chain`` grows."""
    n = len(chain)
    out = []
    for k in range(2, n + 1):
        larger, smaller = chain[n - k], (*chain[n - k + 1], 0)
        row = next(i for i, (a, b) in enumerate(zip(larger, smaller)) if a != b)
        out.append((k, larger[row] - 1 - row))
    return out


def _content_sums(p: Partition) -> tuple[int, int]:
    """The sums of the contents of the boxes of ``p`` and of their squares:
    the scalars by which the central ``sum_k X_k`` and ``sum_k X_k^2`` act
    on the ``p`` isotypic (Jucys 1974; Murphy 1981)."""
    contents = [col - row for row, length in enumerate(p.parts) for col in range(length)]
    return sum(contents), sum(c * c for c in contents)


def _sector_multiplicity(n: int, sign: int, p: Partition, pi: int) -> int:
    """Multiplicity of ``(p, pi)`` among the sectors, from the oracle's own
    trace ``t`` of the reversal composed with inversion: the sector
    character vanishes elsewhere except at the identity, so it is
    ``(n! f_p + pi |R| chi_p(w0) t) / (2 n!)`` for the reversal class R."""
    reversal = _cycle_type(tuple(range(n, 0, -1)))
    t = _sector_action(n, _class_representative(reversal), 1, sign).trace()
    total = factorial(n) * irrep_dimension(p)
    total += pi * class_size(reversal) * sn_character(p, reversal) * t
    mult, rem = divmod(total, 2 * factorial(n))
    if rem or mult < 0:
        raise ConsistencyError(f"sector multiplicity of {p} is not integral")
    return mult


def _check_canonical(line, irrep: str) -> None:
    """The one orthogonal basis of the line's span that the elimination
    gives: first nonzero sectors strictly increase, so every vector is zero
    at each earlier one's first sector, and every vector is primitive with
    a positive leading entry."""
    last = -1
    for v in line:
        first = v.amps.index(next(filter(None, v.amps)))
        if first <= last:
            raise ConsistencyError(
                f"subgroup sums give another basis for {irrep}: first sectors do not increase"
            )
        if v.amps[first] < 0 or gcd(*v.amps) != 1:
            raise ConsistencyError(
                f"subgroup sums give another basis for {irrep}: "
                "a vector is not primitive with a positive leading entry"
            )
        last = first


def verify_sector_basis(
    n: int,
    lambda_parity: str,
    p: Partition,
    pi: int,
    vectors,
    component: ComponentPattern | None = None,
) -> None:
    """Certify that ``vectors`` is the ``snippet_projection_basis`` of ``(p, pi)``.

    Every action is the oracle's own sector relabelling, with the
    Jucys-Murphy elements ``X_k = sum_{i<k} U((i k))``.  The vectors must be
    pairwise orthogonal, nonzero and carry their squared norms.  Without
    ``component`` each must be labelled ``(p, pi, tau, j)`` and satisfy
    ``X_k v = c_k v`` for k = 2..n, ``c_k`` the content of the box holding
    k in the ``j``-th standard tableau (in ``_standard_chains`` order); with
    it, ``sum_k X_k`` and ``sum_k X_k^2``, which are central, must act as
    the sums of the contents and of their squares over the boxes of ``p``
    (these two sums separate every partition for n <= 8), and every
    adjacent transposition inside one pattern block as the pattern's sign.
    Inversion must act as ``pi``.  The multiplicity ``m`` is the oracle's
    own (``_sector_multiplicity``): a chain basis holds the labels
    ``tau = 0..m-1`` times ``j = 1..f_p`` in ``(tau, j)`` order, a component
    basis ``m`` times the pattern's branching multiplicity vectors.

    So each chain line ``j`` (or the whole component list) is an orthogonal
    basis of one m-dimensional space W, and a basis of W whose first
    nonzero sectors strictly increase is unique up to scale; primitive
    amplitudes with a positive leading entry fix the scale
    (``_check_canonical``).  The elimination in ``snippet._block`` yields
    exactly that basis, and so does ``subgroup_chain_basis``: this accepts
    the bytes the rebuild would compare, and nothing else, in
    O(N n^2 n!) for N vectors, plus the orthogonality within each line.
    """
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            # Two chain lines are orthogonal once their Jucys-Murphy check
            # below passes: each X_k is symmetric, and two tableaux of one
            # shape differ in some content.
            if component is None and a.label and b.label and a.label.j != b.label.j:
                continue
            if dot(a.amps, b.amps) != 0:
                raise ConsistencyError("sector basis vectors are not orthogonal")
        if dot(a.amps, a.amps) != a.norm_sq:
            raise ConsistencyError("sector vector norm bookkeeping is wrong")
        if a.norm_sq <= 0:
            raise ConsistencyError("sector basis holds a zero vector")
    irrep = f"{p}{'+' if pi > 0 else '-'}"
    sign = _inversion_sign(n, lambda_parity)
    mult = _sector_multiplicity(n, sign, p, pi)
    dim = irrep_dimension(p)
    jm = _jucys_murphy(n)
    eigen = [(_sector_action(n, tuple(range(1, n + 1)), 1, sign), pi)]
    if component is None:
        contents = [_contents(chain) for chain in _standard_chains(p.parts)]
        for v in vectors:
            label = v.label
            if label is None or label.p != p or not 1 <= label.j <= dim:
                raise ConsistencyError(
                    f"sector basis is not invariant under S_n: a vector carries no {p} label"
                )
            for k, c in contents[label.j - 1]:
                if _x(jm[k], v.amps) != [c * a for a in v.amps]:
                    raise ConsistencyError(
                        f"sector basis is not invariant under S_n: "
                        f"X_{k} does not act on {label} as its content {c}"
                    )
    else:
        sums = _content_sums(p)
        for v in vectors:
            ones = squares = [0] * len(v.amps)
            for moves in jm.values():
                image = _x(moves, v.amps)
                ones = list(map(add, ones, image))
                squares = list(map(add, squares, _x(moves, image)))
            if [ones, squares] != [[s * a for a in v.amps] for s in sums]:
                raise ConsistencyError(f"sector vector is not in the {p} isotypic block")
        exchange = 1 if component.statistics == BOSE else -1
        start = 1
        for size in component.counts:
            for i in range(start, start + size - 1):
                eigen.append((_sector_action(n, _adjacent(n, i), 0, sign), exchange))
            start += size
    what = f"inversion ({pi:+d})" + (f" and {component}" if component else "")
    for v in vectors:
        for g, value in eigen:
            if g.apply(v.amps) != [value * a for a in v.amps]:
                raise ConsistencyError(f"sector vector is not an eigenvector of {what}")
    if component is not None:
        expected = mult * branch_multiplicity_by_characters(p, component)
        if len(vectors) != expected:
            raise ConsistencyError(
                f"sector basis has {len(vectors)} vectors, the {irrep} line of "
                f"{component} holds {expected}"
            )
        _check_canonical(vectors, irrep)
        return
    labels = [SnippetIrrepLabel(p, pi, tau, j) for tau in range(mult) for j in range(1, dim + 1)]
    if len(vectors) != len(labels) or set(labels) != {v.label for v in vectors}:
        raise ConsistencyError(
            f"sector basis is not invariant under S_n: {len(vectors)} vectors for "
            f"multiplicity {mult} and dimension {dim} of {irrep}"
        )
    if [v.label for v in vectors] != labels:
        raise ConsistencyError(f"subgroup sums give another basis for {irrep}: labels out of order")
    for j in range(dim):
        _check_canonical(vectors[j::dim], irrep)


def _by_first_sector(vectors) -> list[tuple[int, ...]]:
    """``vectors`` sorted by the index of their first nonzero sector."""
    return sorted(vectors, key=lambda v: next(i for i, a in enumerate(v) if a))


def _weighted_sum(terms, vec) -> list:
    """``sum weight * g vec`` over the ``(weight, g)`` pairs in ``terms``."""
    out = [0] * len(vec)
    for weight, g in terms:
        if weight:
            out = list(map(add, out, map(mul, repeat(weight), g.apply(vec))))
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
    span = gram_schmidt(_isotypic_columns(n, lambda_parity, p, pi), limit=mult * dim)
    if len(span) != mult * dim:
        raise ConsistencyError(f"isotypic block of {p} has unexpected rank")
    sign = _inversion_sign(n, lambda_parity)
    # No limit below: the kept count is the rank, an independent check of
    # the multiplicities the production route stops at.
    if component is not None:
        young = _young_projector(n, component, sign)
        basis = gram_schmidt([_weighted_sum(young, v) for v in span])
        return [SectorVector(n, v, dot(v, v)) for v in _by_first_sector(basis)]
    # The span projected along each chain prefix, made once for all the
    # tableaux that share the prefix.
    along = {(): span}

    def along_chain(shapes):
        if shapes not in along:
            terms = _subgroup_projector(n, shapes[-1], sign)
            along[shapes] = [_weighted_sum(terms, v) for v in along_chain(shapes[:-1])]
        return along[shapes]

    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        basis = gram_schmidt(along_chain(chain[1:-1]))
        for tau, v in enumerate(_by_first_sector(basis)):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out
