"""Exact curve counting and quantum cohomology rings for small homogeneous
spaces: recursion engines, a generic associativity-equation solver, potential
series with residual checks, structure-constant rings with presentations, and
the boundary-divisor combinatorics behind the plane recursion.
"""

from .boundary import BoundaryDatum, enumerate_boundary, g_bracket, intersection_counts
from .engine import (
    GWTable,
    SolveError,
    TableDepthError,
    fano3_numbers,
    fano3_solve,
    gw_invariant,
    nd_plane,
    nd_plane_numbers,
    standard_seeds,
    standard_table,
    wdvv_canonical_equations,
    wdvv_count,
    wdvv_solve,
)
from .model import (
    FanoModel,
    ModelError,
    builtin_model,
    expected_dimension,
    load_model,
    model_from_dict,
    save_model,
)
from .potential import PotentialBundle, build_potential, f_bracket, wdvv_residual
from .qring import (
    PresentationIdeal,
    QuantumRing,
    big_associator,
    big_product,
    grassmannian_presentation,
    pr_presentation,
    presentation_from_big,
    s_r_determinant,
    small_ring,
)
from .series import GWSeries, GradedPoly, SeriesBounds, binomial_z, series_partial

__all__ = [
    "BoundaryDatum",
    "FanoModel",
    "GWSeries",
    "GWTable",
    "GradedPoly",
    "ModelError",
    "PotentialBundle",
    "PresentationIdeal",
    "QuantumRing",
    "SeriesBounds",
    "SolveError",
    "TableDepthError",
    "big_associator",
    "big_product",
    "binomial_z",
    "build_potential",
    "builtin_model",
    "enumerate_boundary",
    "expected_dimension",
    "f_bracket",
    "fano3_numbers",
    "fano3_solve",
    "g_bracket",
    "grassmannian_presentation",
    "gw_invariant",
    "intersection_counts",
    "load_model",
    "model_from_dict",
    "nd_plane",
    "nd_plane_numbers",
    "pr_presentation",
    "presentation_from_big",
    "s_r_determinant",
    "save_model",
    "series_partial",
    "small_ring",
    "standard_seeds",
    "standard_table",
    "wdvv_canonical_equations",
    "wdvv_count",
    "wdvv_residual",
    "wdvv_solve",
]

__version__ = "0.1.0"
