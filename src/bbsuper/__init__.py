"""Exact characters of highest-weight modules over generalized
Kac-Moody superalgebras with higher-level imaginary generators.

The public names below are served lazily (PEP 562): a submodule is
imported the first time one of its names is read, so importing the
package, or running one CLI subcommand, loads only the engine in use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "charformula": (
        "CharacterResult",
        "OrthogonalSupport",
        "character_result_to_json",
        "eligible_indices",
        "enumerate_supports",
        "euler_phi",
        "irreducible_character",
        "numerator_series",
        "odd_iso_coeffs",
    ),
    "datum": (
        "OddCartanDatum",
        "Weight",
        "datum_from_json",
        "height",
        "validate_datum",
        "weight_from_json",
        "weight_to_json",
    ),
    "errors": (
        "BBSuperError",
        "BadDiagonal",
        "HeightMismatch",
        "ImaginaryIndexReflection",
        "IncompleteRootTable",
        "NegativeMultiplicity",
        "NonIntegralMultiplicity",
        "NonUnitConstantTerm",
        "NotDominant",
        "NotSymmetrizable",
        "OddReParity",
        "PositiveOffDiagonal",
        "Unreachable",
    ),
    "roots": ("RootEntry", "RootTable", "roots_to_json", "solve_multiplicities"),
    "series": ("CharSeries", "denominator_R", "series_to_json"),
    "verma_oracle": (
        "caps_from_env",
        "generic_dims",
        "irreducible_dims",
        "weight_window",
    ),
    "weyl": ("OrbitElement", "act_on_root", "orbit_frontier"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
