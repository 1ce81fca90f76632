"""Exact elimination against a rational reference.

The tests' fraction-free Gram-Schmidt (``reference_routes.gram_schmidt``),
which eliminates every candidate of a sector block, and the package's
selection from Gram entries (``snippet._block``), which builds only the
candidates it keeps, must both give the primitive vectors of rational
Gram-Schmidt.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from symtrap import ConsistencyError
from symtrap.branching import all_patterns
from symtrap.linalg import dot, primitive
from symtrap.partitions import partitions_of
from symtrap.snippet import _block, _standard_chains

from reference_routes import candidates, chain_column, component_column, gram_schmidt

#: Deterministic draws and no example database, so every run checks the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def matrices(draw):
    """Small integer matrices with many dependent rows, zero rows included."""
    width = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    combos = draw(st.lists(st.tuples(entries, entries), max_size=4))
    for a, b in combos:
        if len(rows) >= 2:
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return [tuple(r) for r in rows]


def _residual(basis, vec):
    row = [Fraction(a) for a in vec]
    for b in basis:
        pivot = next(i for i, a in enumerate(b) if a)
        if row[pivot]:
            factor = row[pivot] / b[pivot]
            row = [a - factor * c for a, c in zip(row, b)]
    return row


def reference_kept(rows):
    """Indices of the rows that enlarge the span, by rational elimination."""
    basis, kept = [], []
    for i, vec in enumerate(rows):
        row = _residual(basis, vec)
        if any(row):
            basis.append(row)
            kept.append(i)
    return kept


def reference_primitive(row):
    """Coprime integers with positive leading entry along a rational vector."""
    denom = lcm(*(a.denominator for a in row))
    ints = [int(a * denom) for a in row]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return tuple(a // g for a in ints)


def reference_gram_schmidt(rows):
    """Rational Gram-Schmidt, each result scaled to primitive integers."""
    ortho = []
    for vec in rows:
        row = [Fraction(a) for a in vec]
        for b in ortho:
            coeff = dot(b, row) / dot(b, b)
            row = [a - coeff * c for a, c in zip(row, b)]
        if any(row):
            ortho.append(row)
    return [reference_primitive(row) for row in ortho]


class TestAgainstRationalReference:
    @PROPERTY
    @given(matrices())
    def test_gram_schmidt_limit_keeps_the_same_rows(self, rows):
        expected = reference_gram_schmidt(rows)
        for limit in range(1, len(expected) + 1):
            assert gram_schmidt(iter(rows), limit=limit) == expected[:limit]

    @PROPERTY
    @given(matrices())
    def test_gram_schmidt_rank(self, rows):
        assert len(gram_schmidt(rows)) == len(reference_kept(rows))

    @PROPERTY
    @given(matrices())
    def test_gram_schmidt(self, rows):
        ortho = gram_schmidt(rows)
        assert ortho == reference_gram_schmidt(rows)
        for i, a in enumerate(ortho):
            assert next(x for x in a if x) > 0
            for b in ortho[i + 1 :]:
                assert dot(a, b) == 0


def test_limit_stops_drawing_after_the_last_kept_vector():
    drawn = []

    def rows():
        for row in [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]:
            drawn.append(row)
            yield row

    assert gram_schmidt(rows(), limit=2) == [(1, 0, 0), (0, 1, 0)]
    assert drawn == [(1, 0, 0), (2, 0, 0), (0, 1, 0)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_selection_is_rational_gram_schmidt(n):
    """Every chain-line and component column, at both signs: the selection
    keeps exactly what rational Gram-Schmidt of all candidates keeps, and
    asking for one vector more than the rank fails."""
    columns = []
    for p in partitions_of(n):
        columns += [chain_column(n, chain) for chain in _standard_chains(p.parts)]
        columns += [component_column(n, p, pattern) for pattern in all_patterns(n)]
    for w in dict.fromkeys(map(tuple, filter(any, columns))):
        for sign in (1, -1):
            expected = reference_gram_schmidt(candidates(n, w, sign))
            if not expected:
                continue
            assert _block(n, w, sign, len(expected), "block") == expected
            with pytest.raises(ConsistencyError, match="block has unexpected rank"):
                _block(n, w, sign, len(expected) + 1, "block")


def test_primitive():
    assert primitive((0, -4, 6, 0)) == (0, 2, -3, 0)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((3, 5)) == (3, 5)
