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
from typing import Callable

import numpy as np

from .errors import DomainError, GeometryError, PoolExhaustedError, UndefinedEstimateError
from .geometry import Point2, tangents_to_unit_circle
from .regions import (
    MODE_CAUTIOUS,
    AttackSampleConfig,
    TransferabilityScore,
    build_attackable_region,
    cautious_transferability,
    compound_transferability,
    directional_transferability,
    mc_transferability,
    union_area,
)
from .separators import DecisionBoundary, HiddenPoint, ScenarioConfig, boundary_from_hidden

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


# The quoted annotation keeps numpy.random from loading at import time.
def _philox(seed: int, stream: int) -> "np.random.Generator":
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _anchor_raw(scenario: ScenarioConfig, k: float, b: float) -> tuple[float, float]:
    """Reflection anchor for k > 0, unvalidated."""
    c = scenario.c
    s = math.sqrt(k * k + 1.0)
    v = 2.0 * (-b * k - c) / (k * k + 1.0) - k / s + c
    w = 2.0 * (b - c * k) / (k * k + 1.0) + 1.0 / s
    return v, w


def reconstruct_anchor(scenario: ScenarioConfig, k: float, b: float) -> tuple[float, float]:
    """Unique reflection candidate for y = k*x + b, handling k < 0 by mirror."""
    if k == 0.0:
        raise DomainError("anchor reconstruction requires k != 0")
    if k > 0.0:
        return _anchor_raw(scenario, k, b)
    v, w = _anchor_raw(scenario, -k, -b)
    return v, -w


def anchor_admissible(scenario: ScenarioConfig, k: float, b: float) -> bool:
    """Whether the reflection anchor lies in the determining band.

    This is the planner's feasibility notion: constraints 1 and 2 of
    :func:`check_boundary_feasibility` plus staying outside both training
    disks.  It does not promise the anchor reproduces (k, b); see the module
    docstring.
    """
    c, y_lim = scenario.c, scenario.y_lim
    v, w = reconstruct_anchor(scenario, k, b)
    if not (abs(v) < c - 1.0 and abs(w) <= y_lim):
        return False
    return (v - c) ** 2 + w**2 > 1.0 and (v + c) ** 2 + w**2 > 1.0


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
    if k < 0.0:
        report = check_boundary_feasibility(scenario, -k, -b)
        h = report.reconstructed_h.mirrored() if report.reconstructed_h else None
        return FeasibilityReport(
            report.feasible, report.constraint_1, report.constraint_2, report.constraint_3, h
        )

    c, y_lim = scenario.c, scenario.y_lim
    v, w = _anchor_raw(scenario, k, b)
    c1 = 1.0 - c < v < c - 1.0
    c2 = abs(w) <= y_lim

    # Constraint 3: the perpendicular foot must stay off the tangent face,
    # which for k > 0 means the upper tangent slope from the anchor cannot
    # exceed k.  An anchor on or inside the "+" disk, or on the wrong side
    # of the axis, cannot support the construction at all.
    if (v - c) ** 2 + w**2 <= 1.0 or w >= 0.0:
        c3 = False
    else:
        k1 = tangents_to_unit_circle(Point2(c, 0.0), Point2(v, w)).k1
        c3 = k1 * (-1.0 / k) >= -1.0

    feasible = c1 and c2 and c3
    h = HiddenPoint(v, w) if feasible else None
    return FeasibilityReport(feasible, c1, c2, c3, h)


def reconstruct_hidden_point(scenario: ScenarioConfig, k: float, b: float) -> HiddenPoint:
    """Reflection anchor as a hidden point; requires band admissibility.

    The returned point is the only candidate capable of inducing y = k*x + b;
    it provably does so exactly when check_boundary_feasibility(...) reports
    feasible (constraint 3 included).
    """
    if not anchor_admissible(scenario, k, b):
        raise DomainError(f"no admissible anchor for boundary k={k}, b={b}")
    v, w = reconstruct_anchor(scenario, k, b)
    return HiddenPoint(v, w)


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
        if i == 1:
            out.append((k, -k * d))
        elif i == 2:
            out.append((-k, k * d))
        elif i % 2 == 1:
            out.append((k, -k * d - step * (i - 1) / 2.0))
        else:
            out.append((-k, k * d + step * (i - 2) / 2.0))
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
        score = compound_transferability(ars[: i - 1], ars[i - 1])
        compound.append((i, score.value))
        prefix = union_area(ars[: i - 1])
        if base_union > 0.0:
            union_dev = max(union_dev, abs(prefix - base_union) / base_union)
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
    rng = _philox(seed, 0)
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
        ok = ((v - c) ** 2 + w**2 > eps_d**2) & ((v + c) ** 2 + w**2 > eps_d**2)
        ok &= (np.abs(v) < c - 1.0) & (np.abs(w) <= y_lim)
        for vi, wi in zip(v[ok], w[ok]):
            if len(points) < size:
                points.append(HiddenPoint(float(vi), float(wi)))
    boundaries = tuple(boundary_from_hidden(scenario, h)[0] for h in points)
    return CandidatePool(tuple(points), boundaries, seed, eps_d)


def candidate_scorer(
    scenario: ScenarioConfig, breached: list[DecisionBoundary], cfg: AttackSampleConfig
) -> Callable[[DecisionBoundary], TransferabilityScore]:
    """Transferability of a candidate from the breached versions under cfg.

    Exact area ratios when cfg.n_samples == 0, with the breached regions
    built once for every candidate scored; sampled otherwise, where too few
    accepted samples make the score undefined instead of raising.
    """
    breached = list(breached)
    if cfg.n_samples == 0:
        regions = [build_attackable_region(scenario, bd) for bd in breached]
        exact = cautious_transferability if cfg.mode == MODE_CAUTIOUS else compound_transferability
        return lambda candidate: exact(regions, build_attackable_region(scenario, candidate))

    def sampled(candidate: DecisionBoundary) -> TransferabilityScore:
        try:
            est = mc_transferability(scenario, breached, candidate, cfg)
        except UndefinedEstimateError:
            return TransferabilityScore.undefined()
        return TransferabilityScore.of(est.value)

    return sampled


def greedy_select_next(
    scenario: ScenarioConfig,
    pool: CandidatePool,
    breached: list[DecisionBoundary],
    cfg: AttackSampleConfig,
) -> tuple[int, TransferabilityScore]:
    """Pool index minimizing transferability from the breached versions.

    Scores are exact area ratios when cfg.n_samples == 0, sampled otherwise;
    candidates whose boundary equals a breached one are excluded, ties break
    toward the lowest pool index, and undefined scores lose to defined ones.
    """
    if not breached:
        raise DomainError("greedy selection requires at least one breached version")
    remaining = [i for i, bd in enumerate(pool.boundaries) if bd not in breached]
    if not remaining:
        raise PoolExhaustedError("every pool candidate has been consumed")
    scorer = candidate_scorer(scenario, breached, cfg)
    best_index = remaining[0]
    best: TransferabilityScore | None = None
    for i in remaining:
        score = scorer(pool.boundaries[i])
        if best is None:
            best_index, best = i, score
        elif score.defined and (not best.defined or score.value < best.value):
            best_index, best = i, score
    assert best is not None
    return best_index, best


def random_baseline_sequence(
    scenario: ScenarioConfig, n_versions: int, seed: int = 0
) -> tuple[tuple[HiddenPoint, DecisionBoundary], ...]:
    """n independent uniform hidden points from the band, minus the disks."""
    if n_versions < 1:
        raise DomainError("baseline sequence needs at least one version")
    c, y_lim = scenario.c, scenario.y_lim
    rng = _philox(seed, 1)
    out = []
    while len(out) < n_versions:
        v = float(rng.uniform(-(c - 1.0), c - 1.0))
        w = float(rng.uniform(-y_lim, y_lim))
        if (v - c) ** 2 + w**2 <= 1.0 or (v + c) ** 2 + w**2 <= 1.0:
            continue
        h = HiddenPoint(v, w)
        out.append((h, boundary_from_hidden(scenario, h)[0]))
    return tuple(out)
