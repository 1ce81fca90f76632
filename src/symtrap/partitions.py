"""Integer partitions, Young diagrams and conjugacy-class primitives.

A partition of n labels both an irreducible representation of the
symmetric group S_n (as a Young diagram) and a conjugacy class (as a
cycle type).  Partitions are enumerated in reverse-lexicographic order,
``[n]`` first and ``[1^n]`` last, so emitted tables line up without a
permutation step.

``Partition.label`` prints ``[21^2]`` and ``Partition.parse`` reads it back;
an irrep of S_n x Z2 adds a parity suffix, ``label(pi)`` printing ``[21^2]+``
or ``[21^2]-`` and :func:`parse_parity_irrep` reading it.

Everything is exact integer arithmetic on immutable values; the
functions are pure and safe to call concurrently.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from operator import attrgetter

#: Largest n for which character tables are generated, and so the largest
#: particle number the command line accepts.  Everything stays exact for
#: larger n, but nothing in this package needs it.
TABLE_LIMIT = 8


class Record:
    """Base of the immutable value records of this package.

    A subclass names its fields, in constructor order, in ``_fields`` and
    in ``__slots__``; ``__init__`` binds positional, then keyword arguments
    to them.  A subclass that normalizes, checks or has defaults stores its
    fields with :meth:`_assign` from its own ``__init__``.  Equality (within
    one class only), hashing, ``repr`` and pickling all read the tuple of
    fields, and setting or deleting an attribute raises ``AttributeError``.
    Nothing is generated at class creation, so defining a record costs
    nothing at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __init__(self, *values, **named) -> None:
        fields, name = self._fields, self.__class__.__name__
        if len(values) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(values)} were given")
        try:
            values += tuple(named.pop(field) for field in fields[len(values) :])
        except KeyError as missing:
            raise TypeError(f"{name} is missing field {missing}") from None
        if named:
            raise TypeError(f"{name} got unexpected or repeated fields {', '.join(named)}")
        self._assign(*values)

    def _assign(self, *values) -> None:
        """Store the fields, in ``_fields`` order; only an ``__init__`` calls this."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Partition(Record):
    """A partition of a positive integer, stored as non-increasing parts."""

    _fields = ("parts",)
    __slots__ = (*_fields, "_hash")  # ``_hash`` is ``hash((parts,))``, not a field

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = tuple(int(v) for v in parts)
        self._assign(parts)
        object.__setattr__(self, "_hash", hash((parts,)))
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(v <= 0 for v in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (rows and columns exchanged)."""
        width = self.parts[0]
        return Partition(tuple(sum(1 for v in self.parts if v > j) for j in range(width)))

    def hook_lengths(self) -> tuple[int, ...]:
        """Hook length of every box, row by row."""
        conj = self.conjugate().parts
        return tuple(
            row - j + conj[j] - i - 1 for i, row in enumerate(self.parts) for j in range(row)
        )

    def compact(self) -> str:
        """Exponent notation without brackets, e.g. ``21^2`` for (2, 1, 1).

        Parts and exponents are single digits; beyond 9 the comma form
        ``10,1`` is used (``10,`` for one part), so ``parse`` reads every
        label back.
        """
        counts = sorted(Counter(self.parts).items(), reverse=True)
        if self.parts[0] > 9 or any(count > 9 for _, count in counts):
            text = ",".join(str(v) for v in self.parts)
            return text + "," if len(self.parts) == 1 else text
        return "".join(str(value) if count == 1 else f"{value}^{count}" for value, count in counts)

    def label(self, pi: int | None = None) -> str:
        """``[21^2]``, or the S_n x Z2 irrep ``[21^2]+`` / ``[21^2]-`` at parity ``pi``."""
        suffix = "" if pi is None else "+" if pi > 0 else "-"
        return f"[{self.compact()}]{suffix}"

    def __str__(self) -> str:
        return self.label()

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse ``21^2``, ``211`` or ``2,1,1`` (brackets optional).

        In exponent form every part and every exponent is one digit, so
        ``2^21`` is (2, 2, 1).
        """
        body = text.strip().strip("[]")
        if not body:
            raise ValueError(f"cannot parse partition from {text!r}")
        if "," in body:
            tokens = body.split(",")
            if not tokens[-1]:
                tokens.pop()
            return cls(tuple(int(tok) for tok in tokens))
        # A digit, then optionally ``^`` and a digit, repeated; a digit is
        # any Unicode decimal digit (``str.isdecimal``), which ``int`` reads.
        parts: list[int] = []
        pos = 0
        while pos < len(body) and body[pos].isdecimal():
            exp, step = 1, 1
            if body[pos + 1 : pos + 2] == "^" and body[pos + 2 : pos + 3].isdecimal():
                exp, step = int(body[pos + 2]), 3
            parts.extend([int(body[pos])] * exp)
            pos += step
        if pos != len(body) or not parts:
            raise ValueError(f"cannot parse partition from {text!r}")
        return cls(tuple(sorted(parts, reverse=True)))


def parse_parity_irrep(text: str) -> tuple[Partition, int]:
    """Parse ``[21^2]+`` or ``21^2-`` into ``(p, pi)``, the inverse of ``p.label(pi)``."""
    text = text.strip()
    pi = {"+": 1, "-": -1}.get(text[-1:])
    if pi is None:
        raise ValueError("irrep needs a parity suffix, e.g. '2^2+' or '21^2-'")
    return Partition.parse(text[:-1]), pi


#: A partition of n read as cycle lengths of a conjugacy class of S_n.
CycleType = Partition


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, reverse-lexicographic: [n] first, [1^n] last."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return tuple(Partition(t) for t in _partition_tuples(n, n))


@lru_cache(maxsize=None)
def partitions_into_max_parts(n: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of ``n`` with at most ``max_parts`` parts, as raw tuples.

    ``n = 0`` yields the single empty tuple.
    """
    if n < 0 or max_parts < 0:
        raise ValueError("n and max_parts must be non-negative")
    if n == 0:
        return ((),)
    out = []
    for t in _partition_tuples(n, n):
        if len(t) <= max_parts:
            out.append(t)
    return tuple(out)


@lru_cache(maxsize=None)
def parity_irreps(n: int) -> tuple[tuple[Partition, int], ...]:
    """The irreps ``(p, pi)`` of S_n x Z2: every partition at +1, then every
    partition at -1, the one order of every parity-labelled table and vector."""
    return tuple((p, pi) for pi in (1, -1) for p in partitions_of(n))


@lru_cache(maxsize=None)
def irrep_dimension(p: Partition) -> int:
    """Number of standard Young tableaux of shape ``p`` (hook lengths)."""
    hooks = prod(p.hook_lengths())
    dim, rem = divmod(factorial(p.n), hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} does not divide {p.n}!")
    return dim


def class_size(cycle_type: CycleType) -> int:
    """Number of elements of S_n with the given cycle type."""
    z = 1
    for length, mult in Counter(cycle_type.parts).items():
        z *= length**mult * factorial(mult)
    return factorial(cycle_type.n) // z


def class_sign(cycle_type: CycleType) -> int:
    """Sign of any permutation with the given cycle type."""
    return -1 if (cycle_type.n - len(cycle_type.parts)) % 2 else 1


class MultiplicityVector(Record):
    """Integer multiplicities attached to an ordered family of irrep keys.

    Keys are either partitions or ``(partition, parity)`` pairs; the order
    is fixed by whoever builds the vector and is preserved by arithmetic.
    Lookup scans the keys, in linear time, for the key's first occurrence;
    a caller that reads every slot zips ``keys`` with ``counts`` instead.
    """

    __slots__ = _fields = ("keys", "counts")

    def __init__(self, keys: tuple, counts: tuple[int, ...]) -> None:
        keys, counts = tuple(keys), tuple(int(c) for c in counts)
        self._assign(keys, counts)
        if len(keys) != len(counts):
            raise ValueError("keys and counts must have equal length")

    def __getitem__(self, key) -> int:
        try:
            return self.counts[self.keys.index(key)]
        except ValueError:
            raise ValueError(f"{key!r} is not a key of this vector") from None

    def get(self, key, default: int = 0) -> int:
        try:
            return self[key]
        except ValueError:
            return default

    def items(self):
        return zip(self.keys, self.counts)

    def min_count(self) -> int:
        return min(self.counts)

    def _binary(self, other: "MultiplicityVector", op) -> "MultiplicityVector":
        if self.keys != other.keys:
            raise ValueError("multiplicity vectors are over different keys")
        return MultiplicityVector(self.keys, tuple(op(a, b) for a, b in zip(self.counts, other.counts)))

    def __add__(self, other: "MultiplicityVector") -> "MultiplicityVector":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "MultiplicityVector") -> "MultiplicityVector":
        return self._binary(other, lambda a, b: a - b)

    def scaled(self, factor: int) -> "MultiplicityVector":
        return MultiplicityVector(self.keys, tuple(factor * c for c in self.counts))

    def total_dimension(self) -> int:
        """Sum of count times irrep dimension over all keys."""
        total = 0
        for key, count in self.items():
            p = key[0] if isinstance(key, tuple) else key
            total += count * irrep_dimension(p)
        return total
