"""Non-interacting bookkeeping: shells, hyperangular spaces, their S_n content.

Energies are carried as exact rationals in trap units; the zero-point
offset n/2 makes every energy a half-integer, so nothing here ever touches
floating point.  Shell and hyperangular reductions are read off one
truncated power series per irrep, built from Stanley's q-hook formula for
the fake degree (EC2, Cor. 7.21.5) and memoized per particle number.  The
brute-force route, Kostka counts over excitation multisets followed by a
subtraction recursion over shells, is the tests' reference, in
``tests/reference_routes.py``; ``--verify`` recounts every row from Polya's
cycle index in ``oracle``.
"""

from functools import lru_cache
from math import comb
from operator import ge, gt, le, lt

from .errors import ConsistencyError
from .partitions import MultiplicityVector, Record, partitions_of


def _by_fields(compare):
    """An ordering method comparing the field tuples of two same-class records."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._values(), other._values())
        return NotImplemented

    return method


class HypercylindricalLabel(Record):
    """Centre-of-mass, hyperradial and hyperangular excitation numbers.

    Labels sort as their ``(nu_r, nu_rho, lam)`` tuples.
    """

    __slots__ = _fields = ("nu_r", "nu_rho", "lam")

    def __init__(self, nu_r: int, nu_rho: int, lam: int) -> None:
        if min(nu_r, nu_rho, lam) < 0:
            raise ValueError("quantum numbers must be non-negative")
        self._assign(nu_r, nu_rho, lam)

    __lt__ = _by_fields(lt)
    __le__ = _by_fields(le)
    __gt__ = _by_fields(gt)
    __ge__ = _by_fields(ge)

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
    """Degeneracy of the hyperangular space at grand angular momentum ``lam``."""
    if n < 3:
        raise ValueError(f"hyperangular structure needs n >= 3, got n={n}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if n == 3:
        return 1 if lam == 0 else 2
    dim, rem = divmod((n + 2 * lam - 3) * comb(lam + n - 4, n - 4), n - 3)
    if rem:
        raise ArithmeticError(f"hyperangular dimension is not integral for n={n}, lam={lam}")
    return dim


#: Shortest series kept per (n, first factor); longer ones double it.
_MIN_SERIES_LENGTH = 64

#: The longest series length built so far per (n, first factor).
_LONGEST: dict[tuple[int, int], int] = {}


def _series_length(x: int) -> int:
    """Smallest power of two above ``x``, at least the minimum length."""
    return max(_MIN_SERIES_LENGTH, 1 << x.bit_length())


def _series_through(n: int, first: int, x: int) -> tuple[tuple[int, ...], ...]:
    """A :func:`_series` reaching q^x: the longest built so far for ``(n, first)``
    when it reaches that far, else a new one.  A table that asks for its top
    row first so builds one series for all its rows."""
    length = _LONGEST.get((n, first), 0)
    if length <= x:
        length = _LONGEST[n, first] = _series_length(x)
    return _series(n, first, length)


@lru_cache(maxsize=None)
def _series(n: int, first: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of q^0 .. q^(length-1) in f^p(q) / prod_{i=first..n} (1 - q^i),
    one tuple per shape p in ``partitions_of(n)`` order.

    The fake degree f^p(q) = q^b(p) [n]_q! / prod_hooks [h]_q, with
    b(p) = sum (i - 1) p_i, counts copies of p in the degree-d coinvariants.
    Both [n]_q! and the hook product carry n factors of 1/(1 - q), so the
    series equals q^b(p) prod_{i<first} (1 - q^i) / prod_hooks (1 - q^h).
    """
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
    return tuple(out)


@lru_cache(maxsize=None)
def shell_reduction(n: int, x: int) -> MultiplicityVector:
    """S_n irrep content of the shell at excitation ``x``.

    By Chevalley's theorem the polynomial ring is the invariants times the
    coinvariants, so the multiplicity of p is [q^x] f^p(q) / prod_{i=1..n} (1 - q^i).
    """
    if n < 2:
        raise ValueError(f"need at least two particles, got n={n}")
    if x < 0:
        raise ValueError(f"excitation must be non-negative, got {x}")
    series = _series_through(n, 1, x)
    result = MultiplicityVector(partitions_of(n), tuple(s[x] for s in series))
    if result.total_dimension() != shell_dimension(n, x):
        raise ConsistencyError(f"shell reduction does not fill the shell for n={n}, x={x}")
    return result


@lru_cache(maxsize=None)
def lambda_reduction(n: int, lam: int) -> MultiplicityVector:
    """S_n irrep content of a single hyperangular subspace.

    Dividing the centre-of-mass mode (1 - q) and the hyperradial mode
    (1 - q^2) out of the shell series leaves [q^lam] f^p(q) / prod_{i=3..n} (1 - q^i).
    """
    if n < 3:
        raise ValueError(f"hyperangular structure needs n >= 3, got n={n}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    series = _series_through(n, 3, lam)
    result = MultiplicityVector(partitions_of(n), tuple(s[lam] for s in series))
    if result.min_count() < 0:
        raise ConsistencyError(f"negative multiplicity in lambda reduction n={n}, lam={lam}")
    if result.total_dimension() != hyperangular_dimension(n, lam):
        raise ConsistencyError(f"lambda reduction has the wrong dimension for n={n}, lam={lam}")
    return result


def antisymmetric_multiplicity(n: int, lam: int) -> int:
    """Copies of the totally antisymmetric irrep at grand angular momentum ``lam``:
    the last slot, since :func:`partitions_of` puts ``[1^n]`` last."""
    return lambda_reduction(n, lam).counts[-1]
