"""Sector basis at hard-core repulsion: characters, reduction, projected vectors.

Each level built on an antisymmetric seed splits into n! degenerate
states, one per ordering sector ``x_{p1} > x_{p2} > ... > x_{pN}``.
Amplitudes are recorded against the positive per-sector functions, so a
permutation simply relabels sectors while parity inversion reverses each
ordering and carries a global sign: the seed's hyperangular parity times
the sign of the reversal permutation.  With that convention the totally
antisymmetric combination shows the familiar alternating signs.

Characters are evaluated combinatorially per conjugacy class.  A chain
block is built in three steps.  The root line, that of the first standard
tableau, is one group-algebra element (the tableau's Jucys-Murphy filter)
applied to the candidates ``e_q + pi*s*e_{rev q}``; only its column at the
identity sector is built, on per-n index tables of the transpositions (the
only S_n action here), and every candidate is read off that column by right
reindexing.  The line is the first candidates with a nonzero Gram-Schmidt
residual, orthogonalized by that same pass.  Every other line is reached
from a built neighbour by one seminormal step, the adjacent transposition
that swaps the two tableaux (Young's seminormal form), which carries the
neighbour's vectors onto an orthogonal basis of the new line.  Last, the
vectors that elimination would have kept are re-selected inside that span,
from the first sectors where it has full rank, so every line has the bytes
of its own elimination.  A component block is one elimination of its own
element's candidates.  The certificate of these bases, what
``sector-basis --verify`` runs, lives in ``oracle`` with its own actions;
full matrices, the rebuild by subgroup sums and the chain lines eliminated
one at a time are the tests' references, in ``tests/reference_routes.py``.
The hard-core levels are listed by ``mapping.enumerate_levels``.
"""

from functools import lru_cache
from itertools import islice, permutations, repeat
from math import factorial, lcm
from operator import add, itemgetter, mul, sub

from .characters import ClassFunction, character_table_snz2, sn_character
from .errors import ConsistencyError
from .linalg import dot, gram_schmidt, independent, primitive
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
    with that tableau's contents.  It is built in three steps.  The root
    line (``j = 1``) is cut out by the filter ``prod (X_k - c)`` and
    eliminated.  Every other tableau is reached breadth first by an
    admissible ``s_k = (k k+1)``, whose axial distance ``r = c_{k+1} - c_k``
    has ``|r| >= 2``: the new line is spanned by ``r s_k(u) - u`` over the
    parent line's ``u``.  Within that span the vectors are re-selected as
    the elimination would have kept them (:func:`_seminormal_line`).  The
    result is ``mult * dim`` mutually orthogonal primitive integer vectors
    labelled by ``tau`` (first-sector rank in the line) and ``j``, in
    ``(tau, j)`` order; the vectors sharing one ``tau`` do not yet span an
    irreducible copy.  With ``component`` the block is instead intersected
    with the pattern's symmetrized line, as needed for multi-component
    states: the isotypic projector's character column times the signed
    Young-subgroup sum.

    An eliminated block is the first candidates in sector order with a
    nonzero Gram-Schmidt residual, orthogonalized by that same pass.  A
    sector whose residual vanishes maps into the span of earlier kept ones,
    so the projected isotypic columns would keep the same sectors.  A zero
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
    lines = [_block(n, root, sign, mult, what)] + [None] * (len(chains) - 1)
    reached = [0]
    for j in reached:
        c = contents[j]
        for k in range(1, n):
            r = c[k] - c[k - 1]
            if abs(r) < 2:
                continue
            t = position[(*c[: k - 1], c[k], c[k - 1], *c[k + 1 :])]
            if lines[t] is None:
                lines[t] = _seminormal_line(lines[j], r, jm[k + 1][-1], what)
                reached.append(t)
    return [
        SectorVector(n, line[tau], dot(line[tau], line[tau]), SnippetIrrepLabel(p, pi, tau, j))
        for tau in range(mult)
        for j, line in enumerate(lines, start=1)
    ]


def _seminormal_line(line, r, swap, what) -> list[tuple[int, ...]]:
    """The chain line of ``s T``, built from the line ``line`` of ``T``.

    ``swap`` is ``s = (k k+1)`` and ``r = c_{k+1} - c_k`` its axial distance
    in ``T``, with ``|r| >= 2``.  By Young's seminormal form
    ``b = r s(u) - u`` carries each ``u`` of the line into the line of
    ``s T``, and ``<b_x, b_y> = (r^2 - 1) <u_x, u_y>``, so the images of the
    orthogonal ``u_i`` are orthogonal; that is checked.  The block that
    :func:`_block` would eliminate depends only on its span: every
    candidate is proportional to ``P e_q``, ``P`` the projector onto the
    span of the ``b_i``.  So the first sectors ``q`` whose rows
    ``(b_1[q], ..., b_m[q])`` are independent are the ones it keeps, and
    ``P e_q``, proportional to ``sum_i (L / |b_i|^2) b_i[q] b_i`` with ``L``
    the lcm of the ``|b_i|^2``, are orthogonalized as there.
    """
    images = [_seminormal_image(u, r, swap) for u in line]
    norms = [dot(b, b) for b in images]
    if not all(norms) or any(
        dot(images[x], images[y]) for x in range(len(images)) for y in range(x)
    ):
        raise ConsistencyError(f"seminormal images in the {what} are not orthogonal")
    if len(images) == 1:
        return [primitive(images[0])]
    pivots = [q for q, _ in islice(independent(zip(*images)), len(images))]
    scale = lcm(*norms)
    weights = [scale // norm for norm in norms]
    columns = []
    for q in pivots:
        column = [0] * len(images[0])
        for weight, b in zip(weights, images):
            if b[q]:
                column = list(map(add, column, map(mul, b, repeat(weight * b[q]))))
        columns.append(column)
    basis = gram_schmidt(columns, limit=len(images))
    if len(basis) != len(images):
        raise ConsistencyError(f"{what} has unexpected rank")
    return basis


def _seminormal_image(u, r, swap) -> list[int]:
    """``r s(u) - u`` for the step ``s = swap`` at axial distance ``r``."""
    return [r * a - b for a, b in zip(swap(u), u)]


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
