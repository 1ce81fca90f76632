"""Independent recounts behind the CLI ``--verify`` flag.

Everything here is what a ``--verify`` call runs, and it shares no route
with the builders it checks.  Shell and hyperangular contents are recounted
from Polya's cycle index (``cycle_index_rows``), the sector characters by
counting the sectors each class fixes (``sector_traces``), and subgroup
branching by a character inner product over the Young subgroup
(``branch_multiplicity_by_characters``).  ``verify_sector_basis``
certifies a sector basis from the Jucys-Murphy elements, inversion, the
in-block exchanges and the order of first sectors, in O(N n^2 n!) for N
vectors.  The oracle builds its own actions, by relabelling sectors, reads
each one as an index getter, and shares no action code with ``snippet``.
The tests' slower references (explicit signed-permutation matrices, Kostka
and subtraction recounts, and the sector basis rebuilt by subgroup sums)
live in ``tests/reference_routes.py``.
"""

from functools import lru_cache
from itertools import product as iter_product, repeat
from math import factorial, gcd, prod
from operator import add, eq, itemgetter

from . import ConsistencyError
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
    reduce_class_function,
    sn_character,
)
from .linalg import dot
from .partitions import (
    MultiplicityVector,
    Partition,
    class_sign,
    class_size,
    irrep_dimension,
    partitions_of,
)
from .snippet import (
    SnippetIrrepLabel,
    _cycle_type,
    _standard_chains,
    all_sectors,
)


@lru_cache(maxsize=None)
def _sector_codes(n: int):
    """The sectors as byte strings, the same reversed, and the index of each."""
    codes = [bytes(q) for q in all_sectors(n)]
    return codes, [q[::-1] for q in codes], {q: i for i, q in enumerate(codes)}


def cycle_index_rows(n: int, top: int, removed: tuple[int, ...] = ()) -> list[MultiplicityVector]:
    """Shells 0..``top`` by characters: a permutation of cycle type c fixes
    ``[q^k] prod_(l in c) 1/(1 - q^l)`` degree-k monomials (Polya's cycle
    index).  Each ``(1 - q^i)``, i in ``removed``, takes out an S_n-invariant
    ladder; ``(1, 2)``, centre of mass and hyperradius, leaves the
    hyperangular character.  Shares nothing with ``oscillator``'s series."""
    table = character_table_sn(n)
    columns = []
    for c in table.classes:
        coeffs = [1] + [0] * top
        for i in removed:
            for k in range(top, i - 1, -1):
                coeffs[k] -= coeffs[k - i]
        for length in c.parts:
            for k in range(length, top + 1):
                coeffs[k] += coeffs[k - length]
        columns.append(coeffs)
    return [
        reduce_class_function(ClassFunction(table.group, table.classes, values), table)
        for values in zip(*columns)
    ]


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


def _adjacent(n: int, i: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return tuple(image)


def _relabelled(n: int, c: tuple[int, ...], inverted: int):
    """``c`` relabelling each sector (reversed first when ``inverted``), as codes."""
    codes, reversed_codes, _ = _sector_codes(n)
    table = bytes((0, *c, *range(n + 1, 256)))
    return map(bytes.translate, reversed_codes if inverted else codes, repeat(table))


def _images(n: int, c: tuple[int, ...], inverted: int) -> tuple[int, ...]:
    """The index of the sector that ``c`` (after reversal when ``inverted``)
    sends each sector to.  For an involution these are also the sectors each
    one gathers from, so their ``itemgetter`` is the action on amplitudes."""
    index = _sector_codes(n)[2]
    return tuple(map(index.__getitem__, _relabelled(n, c, inverted)))


@lru_cache(maxsize=None)
def _fixed_sectors(n: int, c: tuple[int, ...], inverted: int) -> int:
    """The sectors that ``c`` (after reversal when ``inverted``) fixes: its
    trace on the sectors, up to the inversion sign."""
    return sum(map(eq, _relabelled(n, c, inverted), _sector_codes(n)[0]))


def _global_sign(n: int, lambda_parity: str) -> int:
    """Sign of inversion on the sectors, from its definition: the seed's, +1
    or -1 for an ``even`` or ``odd`` seed, times the sign of the reversal."""
    if lambda_parity not in ("even", "odd"):
        raise ValueError(f"lambda parity must be 'even' or 'odd', got {lambda_parity!r}")
    seed = 1 if lambda_parity == "even" else -1
    return seed * class_sign(_cycle_type(tuple(range(n, 0, -1))))


def sector_traces(n: int, lambda_parity: str) -> ClassFunction:
    """The sector character for one seed parity, counted: the sectors each
    class fixes, signed on the inverted classes; no matrix is built."""
    table = character_table_snz2(n)
    sign = _global_sign(n, lambda_parity)
    traces = tuple(
        (sign if inverted else 1) * _fixed_sectors(n, _class_representative(c), inverted)
        for c, inverted in table.classes
    )
    return ClassFunction(table.group, table.classes, traces)


@lru_cache(maxsize=None)
def _inversion(n: int):
    """The getter of inversion, which reverses every sector: ``U(inversion) v``
    is the inversion sign times its result."""
    return itemgetter(*_images(n, tuple(range(1, n + 1)), 1))


@lru_cache(maxsize=None)
def _jucys_murphy(n: int) -> dict[int, tuple]:
    """``jm[k]`` holds the getters of ``U((i k))``, ``i < k`` in order, whose
    results sum to ``X_k v``; the last is the adjacent ``(k-1 k)``.  Only the
    adjacent ``s = (k-1 k)`` are relabelled; ``(i k) = s (i k-1) s`` is
    composed from index tuples."""
    swaps: list[tuple[int, ...]] = []
    jm = {}
    for k in range(2, n + 1):
        s = _images(n, _adjacent(n, k - 1), 0)
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
    t = sign * _fixed_sectors(n, _class_representative(reversal), 1)
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
                f"the {irrep} basis is not canonical: first sectors do not increase"
            )
        if v.amps[first] < 0 or gcd(*v.amps) != 1:
            raise ConsistencyError(
                f"the {irrep} basis is not canonical: "
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

    Every action is the oracle's own sector relabelling, read by index
    getters, with the Jucys-Murphy elements ``X_k = sum_{i<k} U((i k))``.
    The vectors must be pairwise orthogonal, nonzero and carry their squared
    norms.  Without ``component`` each must be labelled ``(p, pi, tau, j)``
    and satisfy ``X_k v = c_k v`` for k = 2..n, ``c_k`` the content of the
    box holding k in the ``j``-th standard tableau (in ``_standard_chains``
    order); with it, ``sum_k X_k`` and ``sum_k X_k^2``, which are central,
    must act as the sums of the contents and of their squares over the
    boxes of ``p`` (these two sums separate every partition for n <= 8),
    and every adjacent transposition inside one pattern block as the
    pattern's sign.  Inversion must act as ``pi``.  The multiplicity ``m``
    is the oracle's own (``_sector_multiplicity``): a chain basis holds the
    labels ``tau = 0..m-1`` times ``j = 1..f_p`` in ``(tau, j)`` order, a
    component basis ``m`` times the pattern's branching multiplicity
    vectors.

    So each chain line ``j`` (or the whole component list) is an orthogonal
    basis of one m-dimensional space W, and a basis of W whose first
    nonzero sectors strictly increase is unique up to scale; primitive
    amplitudes with a positive leading entry fix the scale
    (``_check_canonical``).  The selection in ``snippet._block`` yields
    exactly that basis, and so does the tests' rebuild by subgroup sums
    (``subgroup_chain_basis`` in ``tests/reference_routes.py``): this
    accepts the bytes the rebuild would compare, and nothing else, in
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
    irrep = p.label(pi)
    sign = _global_sign(n, lambda_parity)
    mult = _sector_multiplicity(n, sign, p, pi)
    dim = irrep_dimension(p)
    jm = _jucys_murphy(n)
    # Each involution's getter and the value its result must be times ``v``:
    # the eigenvalue times the action's sign (inversion carries ``sign``).
    eigen = [(_inversion(n), sign * pi)]
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
                # The adjacent (i i+1) is the last transposition of X_{i+1}.
                eigen.append((jm[i + 1][-1], exchange))
            start += size
    what = f"inversion ({pi:+d})" + (f" and {component}" if component else "")
    for v in vectors:
        for gather, value in eigen:
            if list(gather(v.amps)) != [value * a for a in v.amps]:
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
        raise ConsistencyError(f"the {irrep} basis is not canonical: labels out of order")
    for j in range(dim):
        _check_canonical(vectors[j::dim], irrep)
