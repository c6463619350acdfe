"""Exact attackable-region algebra and sequence planning for max-margin model versions.

Two unit training disks at (+-c, 0) plus a single hidden feature point
determine a hard-margin linear separator in closed form.  This package
computes that separator (and an independent numeric oracle for it), builds
the exact attackable region each separator exposes, measures directional,
compound and cautious attack transferability as exact area ratios or by
seeded Monte Carlo, and plans sequences of versions whose compound
transferability is provably bounded.
"""

from .errors import (
    DegenerateTangentError,
    DomainError,
    GeometryError,
    MarginSeqError,
    PoolExhaustedError,
    ScenarioFileError,
    UndefinedEstimateError,
    VerticalTangentError,
)
from .geometry import (
    ConvexPolygon,
    HalfPlane,
    Point2,
    TangentLines,
    clip_convex,
    halfplane_intersection,
    polygon_area,
    rectangle,
    tangents_to_unit_circle,
)
from .regions import (
    AttackableRegion,
    AttackSampleConfig,
    MonteCarloEstimate,
    TransferabilityScore,
    build_attackable_region,
    cautious_transferability,
    check_zero_transfer,
    closed_form_ar_area,
    compound_transferability,
    directional_transferability,
    mc_transferability,
    region_area,
    union_area,
)
from .separators import (
    BoundaryDerivation,
    DecisionBoundary,
    HiddenPoint,
    ScenarioConfig,
    boundary_from_hidden,
    classify,
    oracle_boundary,
    validate_hidden_point,
)
from .versioning import (
    CandidatePool,
    FeasibilityReport,
    PlanVerification,
    SequencePlan,
    anchor_admissible,
    check_boundary_feasibility,
    find_bmax,
    generate_candidate_pool,
    greedy_select_next,
    plan_sequence,
    random_baseline_sequence,
    reconstruct_anchor,
    reconstruct_hidden_point,
    verify_plan,
)

__version__ = "0.1.0"
