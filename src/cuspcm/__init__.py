"""Cohen-Macaulay modules over degenerate cusps and T_pq curve singularities.

The package classifies and enumerates the indecomposable maximal
Cohen-Macaulay modules over these singularities through the combinatorics
of degree sequences on a cycle of projective lines, checks the closed-form
cohomology counts against an exact linear-algebra oracle, and lays out the
Auslander-Reiten quivers tube by tube.

The exported names load lazily: `import cuspcm` imports no submodule, and
the first use of a name imports the one that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# The one list of public names: submodule -> the names the package exports
# from it.  Each submodule's __all__ is its entry here.
_EXPORTS = {
    "sequences": (
        "SSeq", "shift_by", "is_aperiodic", "canonical_form", "enumerate_canonical",
    ),
    "cohomology": (
        "KahnViolation", "BundleTriple", "CuspGeometry", "CohomReport", "theta",
        "delta", "cohom_dims", "kahn_condition", "twist_by_cycle", "n_global",
        "module_rank",
    ),
    "oracle": (
        "OracleSpace", "build_presentation", "rank_of_h", "oracle_dims",
        "VerifyReport", "verify_formula", "GridReport", "verify_grid",
    ),
    "cusp": (
        "LambdaBase", "CMModuleLabel", "FamilyDescriptor", "RankSlice",
        "GrowthTable", "free_label", "classify_label", "enumerate_rank",
        "family_counts",
    ),
    "tpq": (
        "TpqCase", "TpqGeometry", "TpqKind", "TpqModuleLabel", "TpqFree",
        "TpqSingle", "TpqBranch", "geometry_of", "apply_sigma",
        "is_sigma_symmetric", "sigma_of_module", "descend", "tpq_iso",
    ),
    "quiver": (
        "QuiverNode", "QuiverArrow", "Tube", "ARQuiver", "ARSequence",
        "ar_sequence", "build_tube", "cusp_quiver", "tpq_quiver", "export_dot",
        "quiver_to_dict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
