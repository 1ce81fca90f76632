"""Exact dense linear algebra over the integers, sized for desk problems.

The one elimination is Gram-Schmidt, fraction-free: a vector is reduced
against each earlier result ``b`` by cross-multiplication,
``row = |b|^2 row - (b.row) b``, and kept small by dividing out the gcd of
its entries (Bareiss, *Math. Comp.* 22 (1968)), so no rational arithmetic
appears.  A vector whose residual is zero lies in the span of the earlier
ones and is dropped, so the same pass selects independent vectors and
orthogonalizes them.  Nothing normalizes with square roots either:
orthogonal bases are returned as primitive integer vectors and callers
track squared norms separately.
"""

from __future__ import annotations

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


def gram_schmidt(vectors, limit: int | None = None) -> list[tuple[int, ...]]:
    """Orthogonalize exactly, returning primitive integer vectors.

    Each earlier result ``b`` is removed by ``row = |b|^2 row - (b.row) b``,
    a nonzero multiple of the rational projection step, so the primitive
    results equal those of rational Gram-Schmidt.  A vector with a zero
    residual is dropped; once a positive ``limit`` of vectors is kept, no
    further vector is drawn from ``vectors``.
    """
    out: list[tuple[int, ...]] = []
    norms: list[int] = []
    for row in vectors:
        for basis, norm in zip(out, norms):
            coeff = dot(basis, row)
            if coeff:
                row = primitive([norm * a - coeff * b for a, b in zip(row, basis)])
        if any(row):
            row = primitive(row)
            out.append(row)
            norms.append(dot(row, row))
            if len(out) == limit:
                break
    return out
