"""Exact symmetry classification of few harmonically trapped atoms in 1D.

The package classifies the energy levels of n particles in a harmonic
trap with zero-range interactions by the conserved symmetry labels
(centre-of-mass excitation, relative parity, permutation irrep), reduces
the exactly solvable free and hard-core limits, and maps levels between
them.  Every number is an exact integer or rational.  The exceptions every
layer raises are defined here; the other exports load with their layer.
"""

from importlib import import_module


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


class SearchExhaustedError(Exception):
    """No matching level was found below the configured energy ceiling."""


#: The module that defines each exported name, imported on first access
#: (PEP 562), so ``import symtrap`` loads no layer.
_MODULE_OF = {
    "BOSE": "branching",
    "FERMI": "branching",
    "ComponentPattern": "branching",
    "branch_multiplicity": "branching",
    "branch_row": "branching",
    "degeneracy_rows": "branching",
    "spin_decomposition": "branching",
    "CharacterTable": "characters",
    "ClassFunction": "characters",
    "NotACharacterError": "characters",
    "character_table_sn": "characters",
    "character_table_snz2": "characters",
    "kostka": "characters",
    "reduce_class_function": "characters",
    "sn_character": "characters",
    "G_INF": "mapping",
    "G_ZERO": "mapping",
    "GNLabel": "mapping",
    "MapResult": "mapping",
    "StateLabel": "mapping",
    "adiabatic_map": "mapping",
    "ground_state": "mapping",
    "level_content": "mapping",
    "spectrum_levels": "mapping",
    "HypercylindricalLabel": "oscillator",
    "hyperangular_dimension": "oscillator",
    "lambda_reduction": "oscillator",
    "shell_dimension": "oscillator",
    "shell_reduction": "oscillator",
    "CycleType": "partitions",
    "MultiplicityVector": "partitions",
    "Partition": "partitions",
    "class_sign": "partitions",
    "class_size": "partitions",
    "irrep_dimension": "partitions",
    "partitions_of": "partitions",
    "SectorVector": "snippet",
    "SnippetIrrepLabel": "snippet",
    "all_sectors": "snippet",
    "sector_rep_characters": "snippet",
    "snippet_projection_basis": "snippet",
    "snippet_reduction": "snippet",
}

__version__ = "0.1.0"

__all__ = ["ConsistencyError", "SearchExhaustedError", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
