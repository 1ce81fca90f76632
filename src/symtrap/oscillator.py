"""Non-interacting bookkeeping: shells, hyperangular spaces, their S_n content.

Energies are carried as exact rationals in trap units; the zero-point
offset n/2 makes every energy a half-integer, so nothing here ever touches
floating point.  Shell and hyperangular reductions are read off one
truncated power series per irrep, built from Stanley's q-hook formula for
the fake degree (EC2, Cor. 7.21.5); one series is kept per particle number
and first factor, the longest built so far, and every row read from it is
checked against the shell or hyperangular dimension in one place.  The
brute-force route, Kostka counts over excitation multisets followed by a
subtraction recursion over shells, is the tests' reference, in
``tests/reference_routes.py``; ``--verify`` recounts every row from Polya's
cycle index in ``oracle``.
"""

from functools import lru_cache
from math import comb

from . import ConsistencyError
from .partitions import MultiplicityVector, Record, partitions_of


class HypercylindricalLabel(Record):
    """Centre-of-mass, hyperradial and hyperangular excitation numbers."""

    __slots__ = _fields = ("nu_r", "nu_rho", "lam")

    def __init__(self, nu_r: int, nu_rho: int, lam: int) -> None:
        if min(nu_r, nu_rho, lam) < 0:
            raise ValueError("quantum numbers must be non-negative")
        self._assign(nu_r, nu_rho, lam)

    @property
    def excitation(self) -> int:
        """Total excitation above the ground shell."""
        return self.nu_r + 2 * self.nu_rho + self.lam

    @property
    def parity(self) -> int:
        """Relative parity, the centre-of-mass contribution factored out."""
        return -1 if self.lam % 2 else 1

    def energy(self, n: int):
        """Level energy in trap units, zero point included, as an exact ``Fraction``."""
        from fractions import Fraction

        return Fraction(2 * self.excitation + n, 2)

    def __str__(self) -> str:
        return f"({self.nu_r},{self.nu_rho},{self.lam})"


def shell_dimension(n: int, x: int) -> int:
    """Degeneracy of the oscillator shell at total excitation ``x``."""
    if n < 2:
        raise ValueError(f"need at least two particles, got n={n}")
    if x < 0:
        raise ValueError(f"excitation must be non-negative, got {x}")
    return comb(x + n - 1, n - 1)


def hyperangular_dimension(n: int, lam: int) -> int:
    """Degeneracy of the hyperangular space at grand angular momentum ``lam``:
    the harmonic polynomials of degree ``lam`` in the n - 1 relative
    coordinates, all of that degree less r^2 times all of degree ``lam - 2``.
    At n = 2 the sphere S^0 is two points, so ``lam`` is 0 or 1."""
    if n < 2:
        raise ValueError(f"hyperangular structure needs n >= 2, got n={n}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    return comb(lam + n - 2, n - 2) - (comb(lam + n - 4, n - 2) if lam >= 2 else 0)


#: Shortest series built per (n, first factor); longer ones double it.
_MIN_SERIES_LENGTH = 64

#: The longest series built so far per (n, first factor), and only that one.
_SERIES: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _series(n: int, first: int, x: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of q^0 .. q^(length-1) in f^p(q) / prod_{i=first..n} (1 - q^i),
    one tuple per shape p in ``partitions_of(n)`` order, reaching q^x.

    The series stored for ``(n, first)`` is returned when it reaches q^x;
    else one of the next power-of-two length (at least
    ``_MIN_SERIES_LENGTH``) is built and replaces it, so a table that asks
    for its top row first builds one series for all its rows.

    The fake degree f^p(q) = q^b(p) [n]_q! / prod_hooks [h]_q, with
    b(p) = sum (i - 1) p_i, counts copies of p in the degree-d coinvariants.
    Both [n]_q! and the hook product carry n factors of 1/(1 - q), so the
    series equals q^b(p) prod_{i<first} (1 - q^i) / prod_hooks (1 - q^h).
    """
    series = _SERIES.get((n, first))
    if series and x < len(series[0]):
        return series
    length = max(_MIN_SERIES_LENGTH, 1 << x.bit_length())
    out = []
    for shape in partitions_of(n):
        coeffs = [0] * length
        b = sum(i * v for i, v in enumerate(shape.parts))
        if b < length:
            coeffs[b] = 1
        for i in range(1, first):
            for k in range(length - 1, i - 1, -1):
                coeffs[k] -= coeffs[k - i]
        for hook in shape.hook_lengths():
            for k in range(hook, length):
                coeffs[k] += coeffs[k - hook]
        out.append(tuple(coeffs))
    series = _SERIES[n, first] = tuple(out)
    return series


def _row(n: int, first: int, x: int, dimension) -> MultiplicityVector:
    """Row q^x of the ``(n, first)`` series, checked against ``dimension(n, x)``,
    which validates ``n`` and ``x`` before any series is built."""
    expected = dimension(n, x)
    counts = tuple(s[x] for s in _series(n, first, x))
    result = MultiplicityVector(partitions_of(n), counts)
    if min(counts) < 0 or result.total_dimension() != expected:
        raise ConsistencyError(
            f"row {x} of the n={n} reduction has a negative count"
            f" or misses {dimension.__name__}({n}, {x}) = {expected}"
        )
    return result


@lru_cache(maxsize=None)
def shell_reduction(n: int, x: int) -> MultiplicityVector:
    """S_n irrep content of the shell at excitation ``x``.

    By Chevalley's theorem the polynomial ring is the invariants times the
    coinvariants, so the multiplicity of p is [q^x] f^p(q) / prod_{i=1..n} (1 - q^i).
    """
    return _row(n, 1, x, shell_dimension)


@lru_cache(maxsize=None)
def lambda_reduction(n: int, lam: int) -> MultiplicityVector:
    """S_n irrep content of a single hyperangular subspace.

    Dividing the centre-of-mass mode (1 - q) and the hyperradial mode
    (1 - q^2) out of the shell series leaves [q^lam] f^p(q) / prod_{i=3..n} (1 - q^i).
    """
    return _row(n, 3, lam, hyperangular_dimension)


def antisymmetric_multiplicity(n: int, lam: int) -> int:
    """Copies of the totally antisymmetric irrep at grand angular momentum ``lam``:
    the last slot, since :func:`partitions_of` puts ``[1^n]`` last."""
    return lambda_reduction(n, lam).counts[-1]
