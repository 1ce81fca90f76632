"""Exact dense linear algebra over the integers, sized for desk problems.

Vectors are sequences of ints.  Elimination is fraction-free: a row is
reduced by cross-multiplication, ``row = b[p]*row - row[p]*b``, and kept
small by dividing out the gcd of its entries (Bareiss, *Math. Comp.* 22
(1968)), so no rational arithmetic appears.  Nothing normalizes with
square roots either: orthogonal bases are returned as primitive integer
vectors and callers track squared norms separately.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def primitive(vec) -> tuple[int, ...]:
    """Scale an integer vector to coprime entries with positive leading entry."""
    g = gcd(*vec)
    if next((a for a in vec if a), 0) < 0:
        g = -g
    if g in (0, 1):
        return tuple(vec)
    return tuple(a // g for a in vec)


class _Echelon:
    """Incremental row echelon form used for independence testing."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    def residual(self, row):
        for pivot, basis_row in zip(self.pivots, self.rows):
            factor = row[pivot]
            if factor:
                scale = basis_row[pivot]
                row = primitive([scale * a - factor * b for a, b in zip(row, basis_row)])
        return row

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True when it enlarged the span."""
        row = self.residual(vec)
        for i, a in enumerate(row):
            if a:
                self.rows.append(row)
                self.pivots.append(i)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def select_independent(vectors, limit: int | None = None) -> list:
    """Greedily keep vectors that enlarge the span, in the given order."""
    ech = _Echelon()
    kept = []
    for vec in vectors:
        if ech.add(vec):
            kept.append(vec)
            if limit is not None and len(kept) == limit:
                break
    return kept


def matrix_rank(rows) -> int:
    ech = _Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def gram_schmidt(vectors) -> list[tuple[int, ...]]:
    """Orthogonalize exactly, returning primitive integer vectors.

    Each earlier vector ``b`` is removed by ``row = |b|^2 row - (b.row) b``,
    a nonzero multiple of the rational projection step, so the primitive
    results equal those of rational Gram-Schmidt.
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
    return out
