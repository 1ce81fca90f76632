"""The tests' slow reference routes: explicit matrices, recounts and rebuilds.

These builders materialize the actual (signed) permutation matrices that
the package deliberately avoids, count their fixed points, and decompose
the traces with the character tables.  Shell contents are recounted by
Kostka counts, from a strip recursion that is the shape-by-shape reference
of the package's Pieri sweep (``strip_kostka``), and hyperangular contents
by a subtraction over shells; the sector representation is built as
explicit signed-permutation generators, and sector bases are rebuilt by
subgroup character sums over whole groups (``subgroup_chain_basis``).  No
command runs any of this: what ``--verify`` runs lives in
``symtrap.oracle``, and the explicit sector actions here are built from the
oracle's own sector relabelling (``_relabelled``), so they share no action
code with ``snippet``.  The explicit elimination does reuse ``snippet``'s
actions: every candidate of a block built and reduced by a fraction-free
Gram-Schmidt of the tests' own (``eliminated_block``), with each chain
line from its own filter (``per_line_chain_basis``), the reference of the
package's selection from Gram entries and of its stepped line columns.
The explicit shell matrices and the whole-group sums are guarded.
The level order that spectra and the map walk one triple at a time is
stated here for every level at once (``enumerate_levels``), and ground
states are read off it by the first admitting excitation
(``first_admitting_levels``).
"""

from functools import lru_cache
from itertools import permutations, product as iter_product, repeat
from math import factorial
from operator import add, itemgetter, mul, sub

from symtrap import ConsistencyError, mapping
from symtrap.branching import FERMI, ComponentPattern, branch_multiplicity
from symtrap.characters import (
    ClassFunction,
    character_table_sn,
    character_table_snz2,
    reduce_class_function,
    sn_character,
)
from symtrap.linalg import dot, primitive
from symtrap.oscillator import HypercylindricalLabel
from symtrap.oracle import (
    _adjacent,
    _class_representative,
    _relabelled,
    _sector_codes,
    sector_traces,
)
from symtrap.partitions import (
    MultiplicityVector,
    Partition,
    Record,
    class_sign,
    irrep_dimension,
    partitions_into_max_parts,
    partitions_of,
)
from symtrap.snippet import (
    SectorVector,
    SnippetIrrepLabel,
    _act,
    _cycle_type,
    _index_tables,
    _inversion_sign,
    _jm_factors,
    _right_reindex,
    _standard_chains,
    _young_factors,
    all_sectors,
    snippet_reduction,
)

SHELL_N_LIMIT = 5
SHELL_X_LIMIT = 8
#: Largest particle number whose sector bases are rebuilt by subgroup sums.
CHAIN_N_LIMIT = 5


def _apply(c: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel the ordering ``p`` by the permutation ``c``."""
    return tuple(c[x - 1] for x in p)


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


def _strip_predecessors(shape: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Shapes obtained from ``shape`` by removing a horizontal strip of ``size``."""
    m = len(shape)
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == m:
            if remaining == 0:
                trimmed = prefix
                while trimmed and trimmed[-1] == 0:
                    trimmed = trimmed[:-1]
                out.append(trimmed)
            return
        low = shape[i + 1] if i + 1 < m else 0
        for kept in range(shape[i], low - 1, -1):
            removed = shape[i] - kept
            if removed > remaining:
                break
            rec(i + 1, remaining - removed, prefix + (kept,))

    rec(0, size, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _strip_kostka(shape: tuple[int, ...], weights: tuple[int, ...]) -> int:
    if not shape:
        return 1 if not weights else 0
    if not weights:
        return 0
    total = 0
    for predecessor in _strip_predecessors(shape, weights[-1]):
        total += _strip_kostka(predecessor, weights[:-1])
    return total


def strip_kostka(shape: Partition, content) -> int:
    """``characters.kostka`` shape by shape, by a recursion that removes one
    horizontal strip per weight, the last weight first, rather than by the
    package's Pieri sweep."""
    values = tuple(content)
    weights = tuple(values.count(v) for v in sorted(set(values)))
    return _strip_kostka(shape.parts, weights)


@lru_cache(maxsize=None)
def kostka_shell_reduction(n: int, x: int) -> MultiplicityVector:
    """Shell content by Kostka counts: each way of distributing ``x`` quanta
    over ``n`` particles contributes the Kostka count of its multiset."""
    shapes = partitions_of(n)
    totals = [0] * len(shapes)
    for quanta in partitions_into_max_parts(x, n):
        content = (0,) * (n - len(quanta)) + tuple(sorted(quanta))
        for i, shape in enumerate(shapes):
            totals[i] += strip_kostka(shape, content)
    return MultiplicityVector(shapes, tuple(totals))


@lru_cache(maxsize=None)
def subtraction_lambda_reduction(n: int, lam: int) -> MultiplicityVector:
    """Hyperangular content from the Kostka shell at ``x = lam`` minus every
    subspace with smaller grand angular momentum; there are
    ``(lam - l)//2 + 1`` centre-of-mass/hyperradial copies of each lower ``l``."""
    counts = kostka_shell_reduction(n, lam).counts
    for lower in range(lam):
        copies = (lam - lower) // 2 + 1
        counts = tuple(map(sub, counts, subtraction_lambda_reduction(n, lower).scaled(copies).counts))
    return MultiplicityVector(partitions_of(n), counts)


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


@lru_cache(maxsize=None)
def _sector_action(n: int, c: tuple[int, ...], inverted: int, sign: int) -> SignedPerm:
    """Sector ``q`` goes to ``c`` relabelling ``q`` (reversed first when ``inverted``)."""
    index = _sector_codes(n)[2]
    images = tuple(map(index.__getitem__, _relabelled(n, c, inverted)))
    return SignedPerm(images, (sign if inverted else 1,) * len(images))


def explicit_sector_rep(n: int, lambda_parity: str) -> tuple[ExplicitRep, MultiplicityVector]:
    """Signed-permutation matrices of the sector representation for one seed
    parity, with the :func:`sector_traces` and their reduction."""
    traces = sector_traces(n, lambda_parity)
    sign = _inversion_sign(n, lambda_parity)
    generators = tuple(
        (f"s{i}", _sector_action(n, _adjacent(n, i), 0, sign)) for i in range(1, n)
    ) + (("inversion", _sector_action(n, tuple(range(1, n + 1)), 1, sign)),)
    group, classes = traces.group, traces.classes
    rep = ExplicitRep(group, factorial(n), all_sectors(n), generators, classes, traces.values)
    return rep, reduce_class_function(traces, character_table_snz2(n))


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


def gram_schmidt(vectors, limit: int | None = None) -> list[tuple[int, ...]]:
    """Exact Gram-Schmidt, fraction-free, returning primitive integer vectors.

    A vector is reduced against each earlier result ``b`` by
    cross-multiplication, ``row = |b|^2 row - (b.row) b``, a nonzero multiple
    of the rational projection step, and kept small by dividing out the gcd
    of its entries (Bareiss, *Math. Comp.* 22 (1968)), so the primitive
    results equal those of rational Gram-Schmidt.  A vector whose residual
    is zero lies in the span of the earlier ones and is dropped.  Once a
    positive ``limit`` of vectors is kept, no further vector is drawn.
    """
    out: list[tuple[int, ...]] = []
    norms: list[int] = []
    for row in vectors:
        for b, norm in zip(out, norms):
            coeff = dot(b, row)
            if coeff:
                row = primitive([norm * a - coeff * x for a, x in zip(row, b)])
        if any(row):
            row = primitive(row)
            out.append(row)
            norms.append(dot(row, row))
            if len(out) == limit:
                break
    return out


def candidates(n: int, w, sign: int):
    """Every candidate ``R_q w + sign * R_{q w0} w`` of the column ``w``, in
    sector order: ``w`` reindexed on the right by each sector ``q``, plus
    ``sign`` times the same reversed."""
    flip = _index_tables(n)[1]
    for q in all_sectors(n):
        u = _right_reindex(n, q, w)
        yield [a + sign * b for a, b in zip(u, flip(u))]


def eliminated_block(n: int, w, sign: int, limit: int) -> list[tuple[int, ...]]:
    """The first ``limit`` candidates of ``w`` with a nonzero Gram-Schmidt
    residual, orthogonalized: every candidate is built and eliminated."""
    return gram_schmidt(candidates(n, w, sign), limit=limit)


def chain_column(n: int, chain) -> list[int]:
    """The Jucys-Murphy filter of ``chain``'s standard tableau, applied to
    the identity sector."""
    jm = _index_tables(n)[0]
    unit = [1] + [0] * (factorial(n) - 1)
    return _act(unit, [(-c, 1, jm[k]) for k, c in _jm_factors(chain)])


def component_column(n: int, p: Partition, pattern: ComponentPattern) -> list[int]:
    """The isotypic character column of ``p`` times the pattern's signed
    Young-subgroup sum."""
    chi = [sn_character(p, _cycle_type(s)) for s in all_sectors(n)]
    return _act(chi, _young_factors(pattern, _index_tables(n)[0]))


def per_line_chain_basis(n: int, lambda_parity: str, p: Partition, pi: int) -> list[SectorVector]:
    """The chain path of ``snippet.snippet_projection_basis``, one line at a time.

    Every line is built from scratch with the package's own actions: the
    Jucys-Murphy filter of its standard tableau applied at the identity
    sector, then every candidate built and eliminated.  The package steps
    each line's column from a neighbour's and builds only the candidates
    it keeps, which must give the same bytes.
    """
    mult = snippet_reduction(n, lambda_parity)[(p, pi)]
    if mult == 0:
        return []
    sign = pi * _inversion_sign(n, lambda_parity)
    out = []
    for j, chain in enumerate(_standard_chains(p.parts), start=1):
        block = eliminated_block(n, chain_column(n, chain), sign, mult)
        if len(block) != mult:
            raise ConsistencyError(f"chain component of {p} has unexpected rank")
        for tau, v in enumerate(block):
            out.append(SectorVector(n, v, dot(v, v), SnippetIrrepLabel(p, pi, tau, j)))
    out.sort(key=lambda sv: (sv.label.tau, sv.label.j))
    return out


def eliminated_component_basis(
    n: int, lambda_parity: str, p: Partition, pi: int, pattern: ComponentPattern
) -> list[SectorVector]:
    """The component path of ``snippet.snippet_projection_basis`` with every
    candidate built and eliminated."""
    expected = snippet_reduction(n, lambda_parity)[(p, pi)] * branch_multiplicity(p, pattern)
    if expected == 0:
        return []
    sign = pi * _inversion_sign(n, lambda_parity)
    block = eliminated_block(n, component_column(n, p, pattern), sign, expected)
    if len(block) != expected:
        raise ConsistencyError(f"component projection of {p} has unexpected rank")
    return [SectorVector(n, v, dot(v, v)) for v in block]


def enumerate_levels(n: int, regime: str, e_max: int):
    """Every level of one exact limit with excitation at most ``e_max``.

    Yields ``(label, content)`` ordered by excitation, then ``lam``, then
    ``nu_rho``, with ``content`` the ``mapping.level_content`` of the level;
    hard-core levels without an antisymmetric seed do not exist and are
    not listed.  Each ``lam``'s content is read once, when the walk first
    reaches it.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be non-negative, got {e_max}")
    contents = []
    for x in range(e_max + 1):
        contents.append(mapping.level_content(n, regime, x))
        for lam, content in enumerate(contents):
            if any(content.counts):
                for nu_rho in range((x - lam) // 2 + 1):
                    yield HypercylindricalLabel(x - lam - 2 * nu_rho, nu_rho, lam), content


def first_admitting_levels(n: int, pattern: ComponentPattern, regime: str, e_max: int):
    """``mapping.ground_state`` read off :func:`enumerate_levels`: every irrep
    copy admitting ``pattern`` at the lowest excitation that has one, in
    level order, or ``[]`` when none lies within ``e_max``."""
    admitted = {p for p in partitions_of(n) if branch_multiplicity(p, pattern)}
    tag = pattern.subgroup_tag()
    found = []
    for hyper, content in enumerate_levels(n, regime, e_max):
        if found and hyper.excitation > found[0].hyper.excitation:
            break
        for (p, pi), mult in content.items():
            if mult and p in admitted:
                sign = pi if regime == mapping.G_INF else None
                found.extend(mapping.StateLabel(hyper, p, tau, sign, tag, regime) for tau in range(mult))
    return found
