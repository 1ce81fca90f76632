"""Spectra per conserved irrep triple and the adiabatic level map.

The conserved triple (centre-of-mass excitation, relative parity, S_n
irrep) is shared by the free and hard-core limits.  Assuming no further
symmetry exists at intermediate repulsion, levels carrying the same
triple never cross, so the k-th level of a triple on one side maps to the
k-th level on the other.  Equal-energy levels inside one triple are
ordered by a fixed convention (``lam`` ascending, then ``nu_rho``) and the
result is flagged, since no physical input resolves such ties.

Both limits are read by one route: :func:`level_content` gives the
parity-labelled irrep content at one grand angular momentum.  Spectra and
the map read one triple's levels in (excitation, ``lam``, ``nu_rho``) order
from the lazy walk :func:`_triple_levels`, which yields each excitation's
``(lam, multiplicity)`` pairs, without a copy, with their total.  The map
reads its rank and its image off those totals in one pass, in time linear
in the source's and the image's excitation.  Ground states read
:func:`level_content` one ``lam`` at a time: raising ``nu_R`` or ``nu_rho``
raises the excitation but not the content, so the lowest admitting level
is ``(0, 0, lam)`` at the first ``lam`` whose content admits the pattern.
:func:`level_content`, a view over the memoized reductions, is not memoized:
each walk reads a ``lam``'s content once, so the memos keep one row per ``lam``.
"""

from . import SearchExhaustedError
from .branching import ComponentPattern, branch_row
from .oscillator import (
    HypercylindricalLabel,
    antisymmetric_multiplicity,
    lambda_reduction,
)
from .partitions import MultiplicityVector, Partition, Record, parity_irreps, partitions_of

G_ZERO = "g0"
G_INF = "ginf"
REGIMES = (G_ZERO, G_INF)


def _check_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")


class GNLabel(Record):
    """The conserved irrep triple: ``nu_r``, relative parity, S_n irrep."""

    __slots__ = _fields = ("nu_r", "pi", "p")

    def __init__(self, nu_r: int, pi: int, p: Partition) -> None:
        if nu_r < 0:
            raise ValueError("nu_r must be non-negative")
        if pi not in (1, -1):
            raise ValueError("pi must be +1 or -1")
        self._assign(nu_r, pi, p)

    def __str__(self) -> str:
        sign = "+" if self.pi > 0 else "-"
        return f"(nu_R={self.nu_r}, pi={sign}, [{self.p.compact()}])"


class StateLabel(Record):
    """Full spectroscopic label of one level in either exact limit."""

    __slots__ = _fields = ("hyper", "p", "tau", "pi", "component", "regime")

    def __init__(
        self,
        hyper: HypercylindricalLabel,
        p: Partition,
        tau: int = 0,
        pi: int | None = None,
        component: str | None = None,
        regime: str = G_ZERO,
    ) -> None:
        _check_regime(regime)
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if regime == G_INF and pi not in (1, -1):
            raise ValueError("hard-core labels need an explicit parity sign")
        self._assign(hyper, p, tau, pi, component, regime)

    @property
    def n(self) -> int:
        return self.p.n

    @property
    def relative_parity(self) -> int:
        return self.hyper.parity if self.pi is None else self.pi

    @property
    def gn_label(self) -> GNLabel:
        return GNLabel(self.hyper.nu_r, self.relative_parity, self.p)

    def __str__(self) -> str:
        tag = f"; {self.component}" if self.component else ""
        return (
            f"|{self.hyper.nu_r},{self.hyper.nu_rho},{self.hyper.lam};"
            f" {self.p.label(self.pi)}, tau={self.tau}{tag}>"
        )


class MapResult(Record):
    """Image of the free-limit ``StateLabel`` ``source`` in the hard-core limit:
    the level ``target_hyper``, holding ``target_dimension`` copies of the
    irrep ``target_p`` at relative parity ``target_pi`` (+1 or -1)."""

    __slots__ = _fields = (
        "source",
        "target_hyper",
        "target_p",
        "target_pi",
        "target_dimension",
        "resolved",
        "convention_ordered",
    )


def level_content(n: int, regime: str, lam: int) -> MultiplicityVector:
    """Multiplicity of each parity-labelled irrep ``(p, pi)`` in one level at ``lam``.

    At g=0 this is the hyperangular reduction, every copy carrying the
    parity of ``lam``; at g=inf it is the sector reduction of that parity
    once per antisymmetric seed (all zero without a seed).  Both limits
    share the keys ``parity_irreps(n)``, the S_n x Z2 irrep order; the g=0
    side never builds that table.
    """
    _check_regime(regime)
    even = lam % 2 == 0
    if regime == G_ZERO:
        counts = lambda_reduction(n, lam).counts
        zeros = (0,) * len(counts)
        return MultiplicityVector(parity_irreps(n), counts + zeros if even else zeros + counts)
    seeds = antisymmetric_multiplicity(n, lam)
    if not seeds:
        return MultiplicityVector(parity_irreps(n), (0,) * len(parity_irreps(n)))
    from .snippet import snippet_reduction

    return snippet_reduction(n, "even" if even else "odd").scaled(seeds)


def _triple_levels(n: int, regime: str, mu: GNLabel, e_max: int):
    """The levels carrying ``mu`` up to excitation ``e_max``, lazily: for each
    excitation ``nu_R + rest``, ``rest = 0, 1, ...``, ``(pairs, total)``, the
    ``(lam, multiplicity)`` pairs, ``lam`` ascending, and the sum of their
    multiplicities.
    ``pairs`` is the walk's own list for the parity of ``rest``, which it
    extends as it goes: read it before the next step.  With ``nu_R`` fixed,
    ``rest`` and ``lam`` fix the level (:func:`_level`)."""
    slot = parity_irreps(n).index((mu.p, mu.pi))
    # The nonzero ``(lam, multiplicity)`` pairs of each ``lam`` parity seen
    # so far, and their running totals: each ``lam`` is looked up once, when
    # the walk first reaches it.
    seen, totals = ([], []), [0, 0]
    for rest in range(e_max - mu.nu_r + 1):
        found = level_content(n, regime, rest).counts[slot]
        if found:
            seen[rest % 2].append((rest, found))
            totals[rest % 2] += found
        yield seen[rest % 2], totals[rest % 2]


def _level(mu: GNLabel, rest: int, lam: int) -> HypercylindricalLabel:
    """The level of ``mu``'s walk at excitation ``nu_R + rest`` and ``lam``."""
    return HypercylindricalLabel(mu.nu_r, (rest - lam) // 2, lam)


def spectrum_levels(n: int, regime: str, mu: GNLabel, e_max: int):
    """``(level, multiplicity)`` of every level carrying the triple ``mu``
    with excitation at most ``e_max``, as a generator.

    Levels are ordered by energy; equal energies are ordered ``lam``
    ascending then ``nu_rho`` ascending.  A level's exact energy is
    ``level.energy(n)``.
    """
    _check_regime(regime)
    if mu.p.n != n:
        raise ValueError(f"irrep {mu.p} does not belong to S_{n}")
    if e_max < 0:
        raise ValueError(f"e_max must be non-negative, got {e_max}")
    return (
        (_level(mu, rest, lam), mult)
        for rest, (pairs, _) in enumerate(_triple_levels(n, regime, mu, e_max))
        for lam, mult in pairs
    )


def adiabatic_map(n: int, source: StateLabel, extra_energy: int | None = None) -> MapResult:
    """Hard-core image of a free-limit level under the no-crossing rule.

    The source's rank inside its triple's free spectrum picks the level at
    the same cumulative rank in the hard-core spectrum, walked up to that
    level but at most ``extra_energy`` quanta above the source (default
    ``4 n``); running out raises :class:`SearchExhaustedError`.
    """
    if source.regime != G_ZERO:
        raise ValueError("sources of the adiabatic map live in the free limit")
    if source.n != n:
        raise ValueError(f"state {source} does not describe {n} particles")
    extra = 4 * n if extra_energy is None else extra_energy
    if extra < 0:
        raise ValueError(f"extra_energy must be non-negative, got {extra}")
    mu = source.gn_label
    source_mult = level_content(n, G_ZERO, source.hyper.lam)[(mu.p, mu.pi)]
    if source_mult == 0:
        raise ValueError(f"irrep {mu.p} does not occur at lam={source.hyper.lam}")
    if not 0 <= source.tau < source_mult:
        raise ValueError(f"tau={source.tau} out of range for multiplicity {source_mult}")

    # Copies before the source: every lower excitation's, then the earlier ``lam``'s at its own.
    rank = source.tau
    for pairs, total in _triple_levels(n, G_ZERO, mu, source.hyper.excitation):
        rank += total
    rank += sum(mult for lam, mult in pairs if lam < source.hyper.lam) - total
    source_ties = len(pairs)

    ceiling = source.hyper.excitation + extra
    for rest, (pairs, total) in enumerate(_triple_levels(n, G_INF, mu, ceiling)):
        if rank >= total:
            rank -= total
            continue
        for lam, mult in pairs:
            if rank < mult:
                return MapResult(
                    source=source,
                    target_hyper=_level(mu, rest, lam),
                    target_p=mu.p,
                    target_pi=mu.pi,
                    target_dimension=mult,
                    resolved=mult == 1,
                    convention_ordered=source_ties > 1 or len(pairs) > 1,
                )
            rank -= mult
    raise SearchExhaustedError(
        f"no hard-core level carrying {mu} up to excitation {ceiling}, "
        f"{extra} quanta above the source"
    )


def ground_state(n: int, pattern: ComponentPattern, regime: str = G_ZERO) -> list[StateLabel]:
    """Lowest levels whose symmetry admits the component pattern.

    Returns every irrep copy at the lowest admitting level, one label each:
    the level ``(0, 0, lam)`` at the first ``lam`` up to ``4 n`` whose
    content admits the pattern; :class:`SearchExhaustedError` when none does.
    """
    _check_regime(regime)
    if pattern.n != n:
        raise ValueError(f"pattern {pattern} does not describe {n} particles")
    ceiling = 4 * n
    tag = pattern.subgroup_tag()
    admitted = {p for p, count in zip(partitions_of(n), branch_row(pattern)) if count}
    for lam in range(ceiling + 1):
        hyper = HypercylindricalLabel(0, 0, lam)
        found = [
            StateLabel(hyper, p, tau, pi if regime == G_INF else None, tag, regime)
            for (p, pi), mult in level_content(n, regime, lam).items()
            if p in admitted
            for tau in range(mult)
        ]
        if found:
            return found
    raise SearchExhaustedError(f"no level admitting {pattern} within {ceiling} quanta")
