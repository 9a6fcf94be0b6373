"""Exact weighted lattice-point counting on polytopes.

Laurent-polynomial weights on the face lattice, Stanley g-weights, a
duality involution, weighted dilation polynomials with reciprocity and
purity checks, and equivariant character sums. All arithmetic is exact.
"""

from .algebra import (
    HomogPoly,
    LaurentPoly,
    ZPoly,
    phi_eval,
    substitute_inverse,
    substitute_negative,
)
from .corpus import CORPUS, build, names
from .ehrhart import (
    VARIANT_E,
    VARIANT_ETILDE,
    CheckResult,
    OrbitSum,
    PolynomialityError,
    ehrhart_polynomial,
    hodge_character_sum,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
    weighted_ehrhart_value,
)
from .polytope import (
    Face,
    FaceLattice,
    InvalidPolytope,
    LatticePolytope,
    build_face_lattice,
    facet_presentation,
    points_by_face,
    polytope_hash,
    validate_eulerian,
)
from .stanley import (
    NonEulerianPoset,
    g_weight_function,
    h_polynomial,
    polar_g,
    stanley_fg,
)
from .weights import (
    LatticeMismatch,
    WeightFunction,
    add,
    all_ones,
    delta_weight,
    dualize,
    random_weight_function,
    random_weight_functions,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "CORPUS",
    "CheckResult",
    "Face",
    "FaceLattice",
    "HomogPoly",
    "InvalidPolytope",
    "LatticeMismatch",
    "LatticePolytope",
    "LaurentPoly",
    "NonEulerianPoset",
    "OrbitSum",
    "PolynomialityError",
    "VARIANT_E",
    "VARIANT_ETILDE",
    "WeightFunction",
    "ZPoly",
    "add",
    "all_ones",
    "build",
    "build_face_lattice",
    "delta_weight",
    "dualize",
    "ehrhart_polynomial",
    "facet_presentation",
    "g_weight_function",
    "h_polynomial",
    "hodge_character_sum",
    "names",
    "phi_eval",
    "points_by_face",
    "polar_g",
    "polytope_hash",
    "random_weight_function",
    "random_weight_functions",
    "scale",
    "stanley_fg",
    "substitute_inverse",
    "substitute_negative",
    "validate_eulerian",
    "verify_duality_reciprocity",
    "verify_hodge_duality",
    "verify_purity",
    "verify_reciprocity",
    "weighted_ehrhart_value",
]
