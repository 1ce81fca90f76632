"""Exact symmetry classification of few harmonically trapped atoms in 1D.

The package classifies the energy levels of n particles in a harmonic
trap with zero-range interactions by the conserved symmetry labels
(centre-of-mass excitation, relative parity, permutation irrep), reduces
the exactly solvable free and hard-core limits, and maps levels between
them.  Every number is an exact integer or rational.
"""

from .branching import (
    BOSE,
    FERMI,
    ComponentPattern,
    branch_multiplicity,
    branch_row,
    component_degeneracy,
    cumulative_shell_degeneracy,
    spin_decomposition,
)
from .characters import (
    CharacterTable,
    ClassFunction,
    NotACharacterError,
    character_table_sn,
    character_table_snz2,
    kostka,
    reduce_class_function,
    sn_character,
)
from .errors import ConsistencyError
from .mapping import (
    G_INF,
    G_ZERO,
    GNLabel,
    MapResult,
    SearchExhaustedError,
    StateLabel,
    adiabatic_map,
    enumerate_levels,
    ground_state,
    level_content,
    spectrum_by_irrep,
)
from .oscillator import (
    HypercylindricalLabel,
    hyperangular_dimension,
    lambda_reduction,
    shell_dimension,
    shell_reduction,
)
from .partitions import (
    CycleType,
    MultiplicityVector,
    Partition,
    class_sign,
    class_size,
    irrep_dimension,
    partitions_of,
)
from .snippet import (
    SectorVector,
    SnippetIrrepLabel,
    all_sectors,
    sector_rep_characters,
    snippet_projection_basis,
    snippet_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "BOSE",
    "FERMI",
    "G_INF",
    "G_ZERO",
    "CharacterTable",
    "ClassFunction",
    "ComponentPattern",
    "ConsistencyError",
    "CycleType",
    "GNLabel",
    "HypercylindricalLabel",
    "MapResult",
    "MultiplicityVector",
    "NotACharacterError",
    "Partition",
    "SearchExhaustedError",
    "SectorVector",
    "SnippetIrrepLabel",
    "StateLabel",
    "adiabatic_map",
    "all_sectors",
    "branch_multiplicity",
    "branch_row",
    "character_table_sn",
    "character_table_snz2",
    "class_sign",
    "class_size",
    "component_degeneracy",
    "cumulative_shell_degeneracy",
    "enumerate_levels",
    "ground_state",
    "hyperangular_dimension",
    "irrep_dimension",
    "kostka",
    "lambda_reduction",
    "level_content",
    "partitions_of",
    "reduce_class_function",
    "sector_rep_characters",
    "shell_dimension",
    "shell_reduction",
    "sn_character",
    "snippet_projection_basis",
    "snippet_reduction",
    "spectrum_by_irrep",
    "spin_decomposition",
]
