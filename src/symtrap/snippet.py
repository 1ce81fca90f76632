"""Sector basis at hard-core repulsion: characters, reduction, projected vectors.

Each level built on an antisymmetric seed splits into n! degenerate
states, one per ordering sector ``x_{p1} > x_{p2} > ... > x_{pN}``.
Amplitudes are recorded against the positive per-sector functions, so a
permutation simply relabels sectors while parity inversion reverses each
ordering and carries a global sign: the seed's hyperangular parity times
the sign of the reversal permutation.  With that convention the totally
antisymmetric combination shows the familiar alternating signs.

Characters are evaluated combinatorially per conjugacy class.  Every
block is one selection (``_block``) from one group-algebra element,
applied to the candidates ``e_q + pi*s*e_{rev q}``; only its column at the
identity sector is built, on per-n index tables of the transpositions (the
only S_n action here), and a candidate is read off that column by right
reindexing.  The element is self-adjoint and squares to a multiple of
itself, so the Gram entries of the candidates are lookups in that column
and in the vectors already kept: the block is the first candidates with a
nonzero Gram-Schmidt residual, orthogonalized, and no other candidate is
built.  A chain block has one element per line.  The root line's is the
first standard tableau's Jucys-Murphy filter; every other line's comes
from a built neighbour's by one seminormal step, the adjacent
transposition that swaps the two tableaux (Young's seminormal form),
applied to the column on both sides.  A component block's element is the
isotypic character column times the pattern's signed Young-subgroup sum.
The certificate of these bases, what ``sector-basis --verify`` runs, lives
in ``oracle`` with its own actions; full matrices, the rebuild by subgroup
sums and every candidate built and eliminated are the tests' references,
in ``tests/reference_routes.py``.
The hard-core level contents are read by ``mapping.level_content``.
"""

from functools import lru_cache
from itertools import permutations, repeat
from math import factorial, gcd, lcm
from operator import add, itemgetter, mul, sub

from . import ConsistencyError
from .characters import ClassFunction, character_table_snz2, sn_character
from .linalg import dot, primitive
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
        return f"{self.p.label(self.pi)} tau={self.tau} j={self.j}"


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


@lru_cache(maxsize=None)
def _index_tables(n: int):
    """Index tables of the S_n action on sector amplitudes, built on first use.

    ``jm[k]`` holds one getter per transposition ``t = (i k)``, ``i < k``,
    returning ``(t . v)[j] = v[idx[j]]`` for every sector ``j``, so the
    Jucys-Murphy element ``X_k`` is the sum of their results.  The getters
    ``reversal`` and ``inverse`` read every sector backwards and at its
    inverse permutation; ``rank`` gives a sector's index from its bytes.
    """
    # Sectors as byte strings, so that relabelling is one bytes.translate,
    # mapped over all of them at once.
    sectors = list(map(bytes, all_sectors(n)))
    rank = dict(zip(sectors, range(len(sectors)))).__getitem__
    identity = sectors[0]
    # Only the adjacent s = (k-1 k) are relabelled; (i k) = s (i k-1) s
    # reads idx[j] = s[t[s[j]]] off the index tuples.
    jm = {}
    row: list[tuple[int, ...]] = []
    for k in range(2, n + 1):
        swap = bytes.maketrans(bytes((k - 1, k)), bytes((k, k - 1)))
        s = tuple(map(rank, map(bytes.translate, sectors, repeat(swap))))
        gather = itemgetter(*s)
        row = [itemgetter(*gather(t))(s) for t in row] + [s]
        jm[k] = tuple(itemgetter(*t) for t in row)
    reversal = itemgetter(*map(rank, map(itemgetter(slice(None, None, -1)), sectors)))
    inverse = itemgetter(
        *map(rank, map(identity.translate, map(bytes.maketrans, sectors, repeat(identity))))
    )
    return jm, reversal, inverse, rank


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
    jm, _, inverse, _ = _index_tables(n)
    v = inverse(v)
    h = [0, *q]
    for k in range(n, 1, -1):
        j = h[k]
        if j != k:
            v = jm[k][j - 1](v)
            h[h.index(k)] = j
            h[k] = k
    return inverse(v)


def _grown_rows(chain: tuple[tuple[int, ...], ...]):
    """``(smaller, row)`` for box k = 2..n: ``chain`` (from the shape of S_n
    down to (1)) adds box ``k`` to ``smaller``, the zero-padded shape of
    S_{k-1}, in ``row``; its content is ``smaller[row] - row``."""
    n = len(chain)
    for k in range(2, n + 1):
        smaller = (*chain[n - k + 1], 0)
        larger = (*chain[n - k], 0)
        yield smaller, next(i for i, (a, b) in enumerate(zip(smaller, larger)) if a != b)


def _contents(chain: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Contents ``(c_1, ..., c_n)`` of the boxes of the chain's standard tableau."""
    return (0, *(smaller[row] - row for smaller, row in _grown_rows(chain)))


def _jm_factors(chain: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """Factors ``(k, c)`` of the filter ``prod_k prod_{c != c_k} (X_k - c)``.

    ``chain`` runs from the shape of S_n down to (1).  Box ``k`` has content
    ``c_k``; ``c`` runs over the contents of the other addable corners of
    the shape of S_{k-1}, the other eigenvalues ``X_k`` can take there
    (Okounkov & Vershik, *Selecta Math.* 2 (1996)).
    """
    factors = []
    for k, (smaller, row) in enumerate(_grown_rows(chain), start=2):
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
    component: "ComponentPattern | None" = None,
) -> list[SectorVector]:
    """Orthogonal exact basis of the ``(p, pi)`` isotypic sector subspace.

    Without ``component`` the isotypic block is split to individual irrep
    components along the subgroup chain S_n > S_{n-1} > ... > S_2: the
    line ``j`` of the ``j``-th standard tableau (in ``_standard_chains``
    order) is the joint eigenspace of the Jucys-Murphy elements X_2..X_n
    with that tableau's contents.  Each line is one :func:`_block` of its
    own filter column.  The root line's (``j = 1``) is the filter
    ``prod (X_k - c)`` applied at the identity sector.  Every other tableau
    is reached breadth first by an admissible ``s_k = (k k+1)``, whose
    axial distance ``r = c_{k+1} - c_k`` has ``|r| >= 2``, and its column
    is the parent's multiplied by ``r s_k - 1`` on both sides
    (:func:`_stepped_column`).  The result is ``mult * dim`` mutually
    orthogonal primitive integer vectors labelled by ``tau`` (first-sector
    rank in the line) and ``j``, in ``(tau, j)`` order; the vectors sharing
    one ``tau`` do not yet span an irreducible copy.  With ``component``
    the block is instead intersected with the pattern's symmetrized line,
    as needed for multi-component states: the isotypic projector's
    character column times the signed Young-subgroup sum, one
    :func:`_block` as well.

    A block is the first candidates in sector order with a nonzero
    Gram-Schmidt residual, orthogonalized, the bytes of eliminating every
    candidate.  A sector whose residual vanishes maps into the span of
    earlier kept ones, so the projected isotypic columns would keep the
    same sectors.  A zero multiplicity yields an empty list.
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
        from .branching import branch_multiplicity

        expected = mult * branch_multiplicity(p, component)
        if expected == 0:
            return []
        chi = [sn_character(p, _cycle_type(s)) for s in all_sectors(n)]
        w = _act(chi, _young_factors(component, jm))
        basis = _block(n, w, sign, expected, f"component projection of {p}")
        return [SectorVector(n, v, dot(v, v)) for v in basis]
    # The dim chain lines are independent, so the per-line rank checks
    # together also check the rank of the whole isotypic block.
    chains = _standard_chains(p.parts)
    contents = [_contents(chain) for chain in chains]
    position = {c: j for j, c in enumerate(contents)}
    what = f"chain component of {p}"
    unit = [1] + [0] * (factorial(n) - 1)
    root = _act(unit, [(-c, 1, jm[k]) for k, c in _jm_factors(chains[0])])
    columns = [root] + [None] * (len(chains) - 1)
    reached = [0]
    for j in reached:
        c = contents[j]
        for k in range(1, n):
            r = c[k] - c[k - 1]
            if abs(r) < 2:
                continue
            t = position[(*c[: k - 1], c[k], c[k - 1], *c[k + 1 :])]
            if columns[t] is None:
                columns[t] = _stepped_column(n, columns[j], r, k)
                reached.append(t)
    lines = [_block(n, w, sign, mult, what) for w in columns]
    return [
        SectorVector(n, line[tau], dot(line[tau], line[tau]), SnippetIrrepLabel(p, pi, tau, j))
        for tau in range(mult)
        for j, line in enumerate(lines, start=1)
    ]


def _stepped_column(n, w, r, k) -> tuple[int, ...]:
    """The filter column of the line of ``s T``, from the column ``w`` of ``T``.

    ``s = (k k+1)`` and ``r = c_{k+1} - c_k`` is its axial distance in
    ``T``, with ``|r| >= 2``.  By Young's seminormal form ``r s - 1`` carries
    the line of ``T`` onto that of ``s T``, so ``(r s - 1) a (r s - 1)`` is a
    multiple of ``s T``'s filter when ``a`` is ``T``'s: its column is ``w``
    multiplied by ``r s - 1`` on the right (a right reindex), then on the
    left (an index getter), made primitive.
    """
    s = list(range(1, n + 1))
    s[k - 1], s[k] = k + 1, k
    u = list(map(sub, map(mul, _right_reindex(n, tuple(s), w), repeat(r)), w))
    return primitive(list(map(sub, map(mul, _index_tables(n)[0][k + 1][-1](u), repeat(r)), u)))


def _act(v, factors):
    """Apply ``prod (c + s * sum(moves))`` to ``v``, one ``(c, s, moves)`` at a time."""
    for c, s, moves in factors:
        step = add if s > 0 else sub
        image = [c * a for a in v]
        for move in moves:
            image = list(map(step, image, move(v)))
        v = image
    return v


def _young_factors(pattern: "ComponentPattern", jm):
    """Factors of the pattern's Young-subgroup sum, signed for fermions.

    A block on ``start..end`` sums to ``prod_k (1 + s * sum_{start<=i<k} (i k))``
    over ``start < k <= end`` (coset factorization), with ``s = -1`` for
    fermions so that every element carries its sign.
    """
    from .branching import BOSE

    s = 1 if pattern.statistics == BOSE else -1
    factors = []
    start = 1
    for count in pattern.counts:
        factors += [(1, s, jm[k][start - 1 :]) for k in range(start + 1, start + count)]
        start += count
    return factors


def _block(n, w, sign, limit, what) -> list[tuple[int, ...]]:
    """The first ``limit`` candidates ``c_q = R_q w + sign * R_{q w0} w``, in
    sector order, with a nonzero Gram-Schmidt residual, orthogonalized.

    ``R_{q w0} w`` is ``R_q w`` reversed.  ``w`` is the column at the
    identity sector of a self-adjoint ``a`` with ``a^2 = kappa a``, so
    ``c_q = a (1 + sign J) e_q``, ``J`` the reversal, and every Gram entry
    is a lookup: ``<c_q, x> = rho x[q]`` for each ``x`` in the block, with
    ``rho = 2 kappa = 2 |w|^2 / w[0]``; in particular ``<c_q, c_r> = rho
    (w[q r^-1] + sign w[q w0 r^-1])``.  The residual ``r`` of ``c_q``
    against the kept ``b_i`` has ``|r|^2 = rho r[q]`` and ``r[q] = c_q[q] -
    rho sum_i b_i[q]^2 / |b_i|^2``, ``c_q[q] = w[0] + sign w[q w0 q^-1]``,
    so a candidate is built only once it is known to be kept; it is then
    combined with the ``b_i`` by the coefficients ``rho b_i[q] / |b_i|^2``
    over their common denominator, and made primitive.  The results are
    the primitive vectors of eliminating every candidate, ordered by first
    nonzero sector (a residual, orthogonal to every earlier candidate,
    starts at its own).  Each is checked to be nonzero and orthogonal to
    the earlier ones: for a column of the wrong element the lookups are not
    Gram entries, and the combinations are not residuals.
    """
    _, flip, _, rank = _index_tables(n)
    identity = bytes(range(1, n + 1))
    step = add if sign > 0 else sub
    num, den = 2 * dot(w, w), w[0]
    g = gcd(num, den)
    num, den = num // g, den // g
    basis: list[tuple[int, ...]] = []
    norms: list[int] = []
    # den * scale * r[q] = den * scale * c_q[q] - num * sum_i weights[i] b_i[q]^2,
    # with scale the lcm of the norms and weights[i] = scale / |b_i|^2.
    scale, weights = 1, []
    for q, sector in enumerate(all_sectors(n)):
        # q w0 q^-1 swaps q(i) and q(n+1-i): the identity relabelled from q
        # to q reversed.
        code = bytes(sector)
        c_qq = step(w[0], w[rank(identity.translate(bytes.maketrans(code, code[::-1])))])
        entries = [b[q] for b in basis]
        if den * scale * c_qq == num * sum(map(mul, map(mul, entries, entries), weights)):
            continue
        terms = []
        for e, b, norm in zip(entries, basis, norms):
            if e:
                g = gcd(num * e, den * norm)
                terms.append((num * e // g, den * norm // g, b))
        common = lcm(*(d for _, d, _ in terms))
        u = _right_reindex(n, sector, w)
        row = list(map(mul, map(step, u, flip(u)), repeat(common)))
        for c, d, b in terms:
            row = list(map(sub, row, map(mul, b, repeat(c * (common // d)))))
        v = primitive(row)
        if not any(v) or any(dot(v, b) for b in basis):
            raise ConsistencyError(f"the {what} is not orthogonal")
        basis.append(v)
        if len(basis) == limit:
            return basis
        norms.append(dot(v, v))
        scale = lcm(*norms)
        weights = [scale // norm for norm in norms]
    raise ConsistencyError(f"{what} has unexpected rank")
