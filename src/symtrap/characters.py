"""Character tables of S_n and S_n x Z2, class-function reduction, Kostka counts.

Characters are generated by the Murnaghan-Nakayama rim-hook recursion, so
every entry is an exact integer.  Tables are built once per group order,
validated against the orthogonality relations, cached, and never mutated
afterwards; concurrent readers need no locking.  Kostka counts are read off
the Pieri sweep of ``branching``.
"""

from functools import lru_cache
from math import factorial
from operator import mul

from . import ConsistencyError
from .partitions import (
    TABLE_LIMIT,
    MultiplicityVector,
    Partition,
    Record,
    class_size,
    parity_irreps,
    partitions_of,
)


class NotACharacterError(ValueError):
    """A class function failed to reduce to non-negative integer multiplicities."""


@lru_cache(maxsize=None)
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on beta numbers (first-column hooks)."""
    if not shape:  # ``sum(shape) == sum(cycles)`` on every call, so no cycles are left
        return 1
    hook, rest = cycles[0], cycles[1:]
    m = len(shape)
    beta = tuple(shape[i] + m - 1 - i for i in range(m))
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - hook
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_shape = tuple(v - (m - 1 - i) for i, v in enumerate(new_beta))
        while new_shape and new_shape[-1] == 0:
            new_shape = new_shape[:-1]
        total += (-1) ** height * _mn(new_shape, rest)
    return total


def sn_character(shape: Partition, cycle_type: Partition) -> int:
    """Character of the irrep ``shape`` on the class ``cycle_type``."""
    if shape.n != cycle_type.n:
        raise ValueError("shape and cycle type must partition the same n")
    return _mn(shape.parts, cycle_type.parts)


class CharacterTable(Record):
    """Integer character table with a fixed class and irrep ordering.

    ``values`` holds one row per irrep, one integer per class, and
    ``class_sizes`` one size per class.  For plain S_n the classes are cycle
    types and the irreps partitions.  For S_n x Z2 both are doubled: classes
    become ``(cycle type, inverted)`` with ``inverted`` 0 or 1, and irreps
    ``(partition, parity)`` with parity +1 or -1, in ``parity_irreps`` order;
    the inverted half of a row is the pure half times the parity.
    """

    __slots__ = _fields = ("group", "order", "classes", "class_sizes", "irreps", "values")


class ClassFunction(Record):
    """An integer value per conjugacy class, aligned with a table's classes."""

    __slots__ = _fields = ("group", "classes", "values")


def _check_table_n(n: int) -> None:
    if not 2 <= n <= TABLE_LIMIT:
        raise ValueError(f"character tables are generated for 2 <= n <= {TABLE_LIMIT}, got {n}")


def _validate_orthogonality(table: CharacterTable) -> None:
    """Squareness and the row relation, on each unordered pair (the form is symmetric).

    For a square table the row relation X W X^T = |G| I, with W the class
    sizes, makes X invertible and gives the column relation
    X^T X = |G| W^-1 exactly, so only a missing or extra row needs its own
    check.
    """
    rows, sizes, order = table.values, table.class_sizes, table.order
    if len(rows) != len(sizes) or any(len(row) != len(sizes) for row in rows):
        raise ConsistencyError(f"character table of {table.group} is not square")
    for i, row in enumerate(rows):
        weighted = tuple(map(mul, sizes, row))
        for j in range(i, len(rows)):
            if sum(map(mul, weighted, rows[j])) != (order if i == j else 0):
                raise ConsistencyError(f"row orthogonality fails for {table.group}")


@lru_cache(maxsize=None)
def character_table_sn(n: int) -> CharacterTable:
    """The full character table of S_n, identity class first."""
    _check_table_n(n)
    irreps = partitions_of(n)
    classes = tuple(reversed(partitions_of(n)))
    values = tuple(
        tuple(sn_character(shape, cls) for cls in classes) for shape in irreps
    )
    table = CharacterTable(
        group=f"S{n}",
        order=factorial(n),
        classes=classes,
        class_sizes=tuple(class_size(c) for c in classes),
        irreps=irreps,
        values=values,
    )
    _validate_orthogonality(table)
    return table


@lru_cache(maxsize=None)
def character_table_snz2(n: int) -> CharacterTable:
    """The character table of S_n x Z2 obtained by doubling the S_n table."""
    base = character_table_sn(n)
    classes = tuple((c, inverted) for inverted in (0, 1) for c in base.classes)
    rows = dict(zip(base.irreps, base.values))
    values = tuple(rows[p] + tuple(pi * v for v in rows[p]) for p, pi in parity_irreps(n))
    table = CharacterTable(
        group=f"S{n}xZ2",
        order=2 * factorial(n),
        classes=classes,
        class_sizes=base.class_sizes + base.class_sizes,
        irreps=parity_irreps(n),
        values=values,
    )
    _validate_orthogonality(table)
    return table


def reduce_class_function(f: ClassFunction, table: CharacterTable) -> MultiplicityVector:
    """Multiplicity of each irrep of ``table`` in a representation character.

    Raises :class:`NotACharacterError` when any multiplicity comes out
    negative or fractional, or when the dimensions do not add up.
    """
    if f.classes != table.classes:
        raise ValueError("class function is not aligned with the table's classes")
    counts = []
    for row in table.values:
        inner = sum(s * chi * v for s, chi, v in zip(table.class_sizes, row, f.values))
        count, rem = divmod(inner, table.order)
        if rem or count < 0:
            raise NotACharacterError(
                f"class function is not a representation character of {table.group}"
            )
        counts.append(count)
    dim_sum = sum(c * row[0] for c, row in zip(counts, table.values))
    if dim_sum != f.values[0]:
        raise NotACharacterError(
            f"multiplicities account for dimension {dim_sum}, expected {f.values[0]}"
        )
    return MultiplicityVector(table.irreps, tuple(counts))


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Read off the Pieri sweep of ``weights``; a Kostka number does not
    depend on the order of the weights."""
    from .branching import _pieri_sweep

    return _pieri_sweep(weights).get(shape, 0)


def kostka(shape: Partition, content) -> int:
    """Fillings of ``shape`` by the multiset ``content``, weakly increasing
    along rows and strictly increasing down columns.

    Equivalently, the multiplicity of the irrep ``shape`` in the permutation
    module on distinct arrangements of ``content``.
    """
    values = tuple(content)
    if len(values) != shape.n:
        raise ValueError(
            f"content has {len(values)} entries but the shape has {shape.n} boxes"
        )
    weights = []
    for v in sorted(set(values)):
        weights.append(values.count(v))
    return _kostka(shape.parts, tuple(weights))
