"""Exact curve counting and quantum cohomology rings for small homogeneous
spaces: recursion engines, a generic associativity-equation solver, potential
series with residual checks, structure-constant rings with presentations, and
the boundary-divisor combinatorics behind the plane recursion.

Exported names are resolved on first use (PEP 562), so importing one
submodule, such as ``gwcalc.cli``, loads only what that submodule imports.
"""

import importlib

# each exported name and the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "boundary": "BoundaryDatum enumerate_boundary g_bracket intersection_counts",
        "engine": "GWTable SolveError TableDepthError fano3_numbers fano3_solve gw_invariant "
        "nd_plane nd_plane_numbers standard_seeds standard_table wdvv_canonical_equations "
        "wdvv_count wdvv_solve",
        "model": "FanoModel ModelError builtin_model load_model model_from_dict save_model",
        "potential": "PotentialBundle build_potential f_bracket wdvv_residual",
        "qring": "PresentationIdeal QuantumRing big_associator big_product "
        "grassmannian_presentation pr_presentation presentation_from_big s_r_determinant "
        "small_ring",
        "series": "GWSeries GradedPoly SeriesBounds binomial_z series_partial",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return __all__
