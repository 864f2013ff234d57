"""Hyperbolic surface geometry from length/twist coordinates.

Exact upper half-plane and torus oracles, right-angled hexagon and pants
trigonometry, collar decompositions, extremal-length estimators with a
max-over-components combiner, finite-family distance estimates with a
sup-metric product model, and geodesic-instability diagnostics.
"""

from .collar import (
    MARGULIS_2D,
    CollarDecomposition,
    CollarParams,
    DEFAULT_PARAMS,
    ThickComponent,
    ThinAnnulus,
    collar_decomposition,
)
from .distance import (
    DiscrepancyReport,
    ProductPoint,
    default_curve_family,
    kerckhoff_distance_estimate,
    pair_curve_family,
    pi_map,
    pi_map_inverse,
    product_distance,
    product_region_discrepancy,
    torus_family_estimate,
)
from .errors import (
    DegenerateHexagonError,
    NoCollarError,
    NumericDomainError,
    ParseError,
    TeichlenError,
    TwistUndefinedError,
    ValidationError,
)
from .extremal import (
    ArcMultiplicities,
    ComponentLength,
    CurveFamily,
    EstimateResult,
    arc_multiplicities,
    lambda_surface_estimate,
)
from .halfplane import (
    TorusLattice,
    UHPoint,
    geodesic_point,
    hyp_distance,
    k_ratio_sup,
    torus_extremal_length,
)
from .instability import (
    BetweennessWitness,
    GrowthRateFit,
    MetricSpaceHandle,
    TransferReport,
    distortion_transfer_check,
    euclidean_instability_exact,
    euclidean_space,
    growth_rate_estimate,
    hyp_product_space,
    instability_lower_bound,
    segment_distance,
    sup_product_space,
)
from .pants import (
    FlatAnnulus,
    OrthoLengths,
    PantsCuffs,
    annulus_arc_crossings,
    collar_modulus,
    flat_annulus_twist,
    hexagon_side,
    pants_orthogeodesics,
)
from .spaces import pi_image_space
from .surface import (
    CurveSystem,
    End,
    FNPoint,
    Marking,
    Pants,
    PantsDecomposition,
    SurfaceSpec,
    core_curve,
    curve_dehn_twist,
    estimated_twist,
    fn_dehn_twist,
)

__version__ = "0.1.0"
