"""Exact integer vectors, sized for desk problems.

Nothing normalizes with square roots: orthogonal bases are kept as
primitive integer vectors, and callers track squared norms separately.
The package's one selection of independent vectors, the sector blocks of
``snippet._block``, reads its Gram entries off the block's own vectors;
the tests keep an explicit fraction-free Gram-Schmidt as its reference.
"""

from itertools import repeat
from math import gcd
from operator import floordiv, mul


def dot(u, v):
    return sum(map(mul, u, v))


def primitive(vec) -> tuple[int, ...]:
    """Scale an integer vector to coprime entries with positive leading entry."""
    g = gcd(*vec)
    if next(filter(None, vec), 0) < 0:
        g = -g
    if g in (0, 1):
        return tuple(vec)
    return tuple(map(floordiv, vec, repeat(g)))
