"""Feasibility checks, anchor reconstruction, and sequence planning.

A sloped separator y = k*x + b, if it is realizable at all, is realized by
exactly one hidden point: reflect the "-" disk's support point across the
line.  For k > 0 that anchor is

    Q = ( 2*(-b*k - c)/(k^2+1) - k/sqrt(k^2+1) + c,
          2*(b - c*k)/(k^2+1) + 1/sqrt(k^2+1) ),

and k < 0 follows by mirror symmetry.  Realizability then needs three
constraints on Q: it must sit inside the determining band in x (constraint
1) and y (constraint 2), and the upper tangent slope k1 from Q to the "+"
disk must satisfy k1 * (-1/k) >= -1 (constraint 3), i.e. the perpendicular
from (-c, 0) must reach Q before the tangent face occludes it.  When all
three hold, feeding Q back through the closed-form construction reproduces
(k, b) exactly; when constraint 3 fails, the trained separator snaps to the
tangent midline through the origin instead.

The planner below intentionally gates only on constraints 1-2 (anchor
admissibility).  The alternating construction it implements shifts
boundaries downward through the region where constraint 3 fails, so its
per-version anchors are nominal: they are the unique reflection candidates
inside the determining band, and the transferability bookkeeping is carried
out on the boundary lines themselves, which is exact regardless.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, PoolExhaustedError, UndefinedEstimateError
from .geometry import HalfPlane, Point2, tangents_to_unit_circle
from .regions import (
    AttackSampleConfig,
    Breach,
    TransferabilityScore,
    build_attackable_region,
    check_guards,
    compound_transferability,
    directional_transferability,
    mc_transferability,
    philox,
    union_area,
)
from .separators import (
    DecisionBoundary,
    HiddenPoint,
    ScenarioConfig,
    boundary_from_hidden,
    validate_hidden_point,
)

DEFAULT_EPS_D = 2.0
DEFAULT_BMAX_TOL = 1e-6

_POOL_ATTEMPT_FACTOR = 10_000


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    feasible: bool
    constraint_1: bool
    constraint_2: bool
    constraint_3: bool
    reconstructed_h: HiddenPoint | None


@dataclass(frozen=True, slots=True)
class SequencePlan:
    """Alternating boundary sequence with its compound-transferability bound."""

    scenario: ScenarioConfig
    k: float
    b_max: float
    n_tiers: int
    step: float
    versions: tuple[tuple[DecisionBoundary, HiddenPoint], ...]
    alpha: float


@dataclass(frozen=True, slots=True)
class PlanVerification:
    alpha: float
    at_first_pair: float
    compound_by_version: tuple[tuple[int, float], ...]
    max_compound: float
    max_at_version: int
    union_max_rel_dev: float
    bound_ok: bool
    union_ok: bool
    pair_ok: bool

    @property
    def passed(self) -> bool:
        return self.bound_ok and self.union_ok and self.pair_ok


@dataclass(frozen=True, slots=True)
class CandidatePool:
    hidden_points: tuple[HiddenPoint, ...]
    boundaries: tuple[DecisionBoundary, ...]
    seed: int
    eps_d: float

    def __post_init__(self):
        if len(self.hidden_points) != len(self.boundaries):
            raise DomainError("hidden point and boundary lists must be parallel")


def sample_hidden_point(scenario: ScenarioConfig, rng: "np.random.Generator") -> HiddenPoint:
    """Uniform hidden point over the determining band minus both training disks."""
    c, y_lim = scenario.c, scenario.y_lim
    while True:
        v = float(rng.uniform(-(c - 1.0), c - 1.0))
        w = float(rng.uniform(-y_lim, y_lim))
        if math.hypot(v - c, w) > 1.0 and math.hypot(v + c, w) > 1.0:
            return HiddenPoint(v, w)


def reconstruct_anchor(scenario: ScenarioConfig, k: float, b: float) -> tuple[float, float]:
    """Unique reflection candidate for y = k*x + b; k < 0 mirrors the k > 0 formula."""
    if k == 0.0:
        raise DomainError("anchor reconstruction requires k != 0")
    c = scenario.c
    mirror = math.copysign(1.0, k)
    k, b = mirror * k, mirror * b
    s = math.sqrt(k * k + 1.0)
    v = 2.0 * (-b * k - c) / (k * k + 1.0) - k / s + c
    w = 2.0 * (b - c * k) / (k * k + 1.0) + 1.0 / s
    if not (math.isfinite(v) and math.isfinite(w)):
        raise DomainError(f"anchor of boundary k={mirror * k}, b={mirror * b} is not finite")
    return v, mirror * w


def _admissible_anchor(scenario: ScenarioConfig, k: float, b: float) -> HiddenPoint | None:
    v, w = reconstruct_anchor(scenario, k, b)
    try:
        h = HiddenPoint(v, w)
        validate_hidden_point(scenario, h)
    except DomainError:
        return None
    return h


def anchor_admissible(scenario: ScenarioConfig, k: float, b: float) -> bool:
    """Whether the reflection anchor lies in the determining band.

    This is the planner's feasibility notion: the band and disk test of
    :func:`validate_hidden_point`, i.e. constraints 1 and 2 of
    :func:`check_boundary_feasibility` plus staying outside both training
    disks.  It does not promise the anchor reproduces (k, b); see the module
    docstring.
    """
    return _admissible_anchor(scenario, k, b) is not None


def check_boundary_feasibility(scenario: ScenarioConfig, k: float, b: float) -> FeasibilityReport:
    """Evaluate the three realizability constraints for y = k*x + b.

    ``feasible`` is the conjunction of all three flags and guarantees the
    round trip: boundary_from_hidden(reconstructed_h) reproduces (k, b) to
    1e-6 relative.
    """
    if not (math.isfinite(k) and math.isfinite(b)):
        raise DomainError("slope and intercept must be finite")
    if k == 0.0:
        raise DomainError("feasibility check requires k != 0")
    c, y_lim = scenario.c, scenario.y_lim
    v, w = reconstruct_anchor(scenario, k, b)
    c1 = 1.0 - c < v < c - 1.0
    c2 = abs(w) <= y_lim

    # Constraint 3: the perpendicular foot must stay off the tangent face,
    # which means the slope of the face the anchor sees (the upper tangent
    # k1 for k > 0, the lower k2 for k < 0) times -1/k is at least -1.  An
    # anchor on or inside the "+" disk, or on the same side of the axis as
    # the slope's sign, cannot support the construction at all.
    if math.hypot(v - c, w) <= 1.0 or math.copysign(1.0, k) * w >= 0.0:
        c3 = False
    else:
        tl = tangents_to_unit_circle(Point2(c, 0.0), Point2(v, w))
        c3 = (tl.k1 if k > 0.0 else tl.k2) * (-1.0 / k) >= -1.0

    feasible = c1 and c2 and c3
    h = HiddenPoint(v, w) if feasible else None
    return FeasibilityReport(feasible, c1, c2, c3, h)


def reconstruct_hidden_point(scenario: ScenarioConfig, k: float, b: float) -> HiddenPoint:
    """Reflection anchor as a hidden point; requires band admissibility.

    The returned point is the only candidate capable of inducing y = k*x + b;
    it provably does so exactly when check_boundary_feasibility(...) reports
    feasible (constraint 3 included).
    """
    h = _admissible_anchor(scenario, k, b)
    if h is None:
        raise DomainError(f"no admissible anchor for boundary k={k}, b={b}")
    return h


def find_bmax(scenario: ScenarioConfig, k: float, tol: float = DEFAULT_BMAX_TOL) -> float:
    """Largest offset b > 0 keeping y = k*x - b anchor-admissible, by bisection.

    Admissibility is monotone along this ray (verified on a grid, not
    assumed); the returned value is admissible and value + tol is not.
    """
    if k <= 0.0:
        raise DomainError("offset search requires k > 0")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    if not anchor_admissible(scenario, k, -k * scenario.delta):
        raise DomainError(f"base boundary y = k*(x - delta) has no admissible anchor for k={k}")

    lo, hi = 0.0, k * (scenario.c - 1.0)
    if anchor_admissible(scenario, k, -hi):
        raise GeometryError("admissibility frontier not bracketed by b in [0, k*(c-1)]")
    flags = [anchor_admissible(scenario, k, -b) for b in np.linspace(lo, hi, 33)]
    if sorted(flags, reverse=True) != flags:
        raise GeometryError("anchor admissibility is not monotone along y = k*x - b")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if anchor_admissible(scenario, k, -mid):
            lo = mid
        else:
            hi = mid
    return lo


def _plan_intercepts(scenario: ScenarioConfig, n_versions: int, k: float, step: float):
    """(slope, intercept) per version of the alternating construction."""
    d = scenario.delta
    out = []
    for i in range(1, n_versions + 1):
        tier = (i - 1) // 2
        out.append((k, -k * d - step * tier) if i % 2 else (-k, k * d + step * tier))
    return out


def plan_sequence(
    scenario: ScenarioConfig, n_versions: int, k: float, b_max: float
) -> SequencePlan:
    """Alternating boundary sequence whose compound transferability is bounded.

    Versions 1 and 2 are y = +-k*(x - delta), a zero-transfer pair whose
    combined attackable region never grows afterwards.  Later versions shift
    the pair inward by step = b_max / n with n = ceil(N/2) - 1, shrinking
    every subsequent region, so the bound alpha is attained at version 3.
    """
    if n_versions < 2:
        raise DomainError("a sequence plan needs at least 2 versions")
    if k <= 0.0 or b_max <= 0.0:
        raise DomainError("plan requires k > 0 and b_max > 0")
    n_tiers = -(-n_versions // 2) - 1
    step = b_max / n_tiers if n_tiers >= 1 else 0.0

    versions = []
    for slope, intercept in _plan_intercepts(scenario, n_versions, k, step):
        if not anchor_admissible(scenario, slope, intercept):
            raise DomainError(
                f"version boundary y = {slope}*x + {intercept} has no admissible anchor"
            )
        boundary = DecisionBoundary.sloped(slope, intercept, scenario)
        versions.append((boundary, reconstruct_hidden_point(scenario, slope, intercept)))

    if n_versions >= 3:
        ars = [build_attackable_region(scenario, bd) for bd, _ in versions[:3]]
        alpha = compound_transferability(ars[:2], ars[2]).value
    else:
        alpha = 0.0
    return SequencePlan(scenario, k, b_max, n_tiers, step, tuple(versions), alpha)


def verify_plan(plan: SequencePlan) -> PlanVerification:
    """Exact audit: prefix bounds, union stability, and the zero-transfer pair."""
    scenario = plan.scenario
    ars = [build_attackable_region(scenario, bd) for bd, _ in plan.versions]
    at_pair = directional_transferability(ars[0], ars[1]).value if len(ars) >= 2 else 0.0

    base_union = union_area(ars[:2]) if len(ars) >= 2 else 0.0
    compound = []
    union_dev = 0.0
    for i in range(3, len(ars) + 1):
        breach = Breach.of(ars[: i - 1])
        compound.append((i, breach.score(ars[i - 1]).value))
        if base_union > 0.0:
            union_dev = max(union_dev, abs(breach.area - base_union) / base_union)
        else:
            union_dev = float("inf")

    max_compound = max((v for _, v in compound), default=0.0)
    # earliest version attaining the max, up to rounding ties between the
    # mirror-symmetric members of a tier
    max_at = 0
    for i, v in compound:
        if v >= max_compound - 1e-12 * max(1.0, max_compound):
            max_at = i
            break
    bound_ok = all(v <= plan.alpha + 1e-12 for _, v in compound)
    union_ok = union_dev <= 1e-9
    pair_ok = at_pair == 0.0
    return PlanVerification(
        plan.alpha, at_pair, tuple(compound), max_compound, max_at, union_dev,
        bound_ok, union_ok, pair_ok,
    )


def generate_candidate_pool(
    scenario: ScenarioConfig, size: int, eps_d: float = DEFAULT_EPS_D, seed: int = 0
) -> CandidatePool:
    """Seed-deterministic hidden points uniform over the determining band.

    Points are rejected inside the eps_d exclusion disks around both training
    centroids, keeping candidates the required distance from task data; each
    candidate's boundary is precomputed.
    """
    if size < 1:
        raise DomainError("pool size must be >= 1")
    if eps_d <= 1.0:
        raise DomainError("eps_d must exceed the training disk radius 1")
    c, y_lim = scenario.c, scenario.y_lim
    rng = philox(seed, 0)
    points: list[HiddenPoint] = []
    attempts = 0
    max_attempts = _POOL_ATTEMPT_FACTOR * size
    while len(points) < size:
        if attempts >= max_attempts:
            raise DomainError(f"band minus eps_d={eps_d} exclusion disks is empty or nearly so")
        batch = max(size - len(points), 64)
        attempts += batch
        v = rng.uniform(-(c - 1.0), c - 1.0, batch)
        w = rng.uniform(-y_lim, y_lim, batch)
        ok = (np.hypot(v - c, w) > eps_d) & (np.hypot(v + c, w) > eps_d)
        ok &= (np.abs(v) < c - 1.0) & (np.abs(w) <= y_lim)
        for vi, wi in zip(v[ok], w[ok]):
            if len(points) < size:
                points.append(HiddenPoint(float(vi), float(wi)))
    boundaries = tuple(boundary_from_hidden(scenario, h)[0] for h in points)
    return CandidatePool(tuple(points), boundaries, seed, eps_d)


def _score_candidates(
    scenario: ScenarioConfig, breached: list[DecisionBoundary], planes, cfg: AttackSampleConfig
) -> np.ndarray:
    """Transferability from the breached versions of each candidate under cfg.

    Candidates are given as one "+" half-plane (a, b, c) per row.  Exact area
    ratios from one :meth:`Breach.scores` batch, after the guard check, when
    cfg.n_samples == 0; sampled otherwise.  NaN marks an undefined score.
    """
    planes = np.asarray(planes, dtype=float)
    if cfg.n_samples == 0:
        check_guards(scenario, planes)
        regions = [build_attackable_region(scenario, bd) for bd in breached]
        return Breach.of(regions, cfg.mode).scores(planes)
    values = np.full(len(planes), np.nan)
    for i, (a, b, c) in enumerate(planes.tolist()):
        target = DecisionBoundary(HalfPlane(a, b, c))
        try:
            values[i] = mc_transferability(scenario, breached, target, cfg).value
        except UndefinedEstimateError:
            pass
    return values


def greedy_select_next(
    scenario: ScenarioConfig,
    pool: CandidatePool,
    breached: list[DecisionBoundary],
    cfg: AttackSampleConfig,
) -> tuple[int, TransferabilityScore]:
    """Pool index minimizing transferability from the breached versions.

    Candidates whose boundary equals a breached one are excluded and the rest
    are scored by :func:`_score_candidates`.  Ties break toward the lowest pool
    index and undefined scores lose to defined ones; when none is defined the
    first remaining candidate is returned with an undefined score.
    """
    if not breached:
        raise DomainError("greedy selection requires at least one breached version")
    planes = np.array([(bd.plus.a, bd.plus.b, bd.plus.c) for bd in pool.boundaries]).reshape(-1, 3)
    taken = np.array([(bd.plus.a, bd.plus.b, bd.plus.c) for bd in breached])
    remaining = np.flatnonzero(~(planes[:, None, :] == taken).all(axis=2).any(axis=1))
    if not remaining.size:
        raise PoolExhaustedError("every pool candidate has been consumed")
    values = _score_candidates(scenario, breached, planes[remaining], cfg)
    if np.isnan(values).all():
        return int(remaining[0]), TransferabilityScore.undefined()
    best = int(np.nanargmin(values))
    return int(remaining[best]), TransferabilityScore.of(float(values[best]))


def random_baseline_sequence(
    scenario: ScenarioConfig, n_versions: int, seed: int = 0
) -> tuple[tuple[HiddenPoint, DecisionBoundary], ...]:
    """n independent uniform hidden points from the band, minus the disks."""
    if n_versions < 0:
        raise DomainError("baseline sequence length must be >= 0")
    rng = philox(seed, 1)
    points = [sample_hidden_point(scenario, rng) for _ in range(n_versions)]
    return tuple((h, boundary_from_hidden(scenario, h)[0]) for h in points)
