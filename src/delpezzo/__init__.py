"""Exact calculus of cyclic quotient singularities on orbifold del Pezzo
surfaces: Hilbert-series contributions, T/residue decomposition, the residual
quiver and delta-lattice, and reduced-basket reconstruction.
"""

from .errors import DelPezzoError
from .exactalg import RationalFunction
from .hilbert import (
    DeltaVector,
    HilbertSeries,
    assemble_series,
    dedekind_sum,
    degree_contribution,
    discrepancies,
    hj_expansion,
    orbifold_contribution,
    parse_rational_function,
    split_series,
)
from .quiver import (
    IndecMultiset,
    ResidualQuiver,
    contains_cancelling_tuple,
    delta_lattice,
    indecomposables,
    maximal_shattering,
    residual_quiver,
    self_duals,
)
from .reconstruct import (
    FeasibilityReport,
    ReducedBodyResult,
    SignedBasketVector,
    analyze_series,
    count_bound,
    degree_bounds,
    enumerate_reduced_baskets,
    features_in,
    psi_invariants,
    res_plus,
)
from .singularity import (
    Classification,
    IntCone,
    Kind,
    Singularity,
    basket,
    classify,
    hyperplane_inverse,
    hyperplane_sum,
    maximal_shatter,
    normalize_cone,
    residue,
    shatterings,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
