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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, PoolExhaustedError, UndefinedEstimateError
from .geometry import MERGE_TOL, Point2, tangents_to_unit_circle
from .regions import (
    AttackSampleConfig,
    Breach,
    TransferabilityScore,
    guard_extent,
    mc_transferability,
    paired_scores,
    philox,
    planes_of,
    plus_band_areas,
    shares,
)
from .separators import (
    DecisionBoundary,
    HiddenPoint,
    ScenarioConfig,
    boundary_from_hidden,
    validate_hidden_point,
)

DEFAULT_EPS_D = 2.0
# find_bmax stops bisecting once its bracket is this narrow
BMAX_TOL = 1e-6

# draw_hidden_points refuses, before any draw, n points whose expected draw count,
# n / admissible_share, exceeds this.  On a 2-core host its loop tests 1.5-2.7e7
# points/s in batches of 1,000 or more, about 0.3 s at the limit, but 3.3e6 points/s in
# the 64-point batches a draw of under 64 points takes, about 1.5 s on average.  The
# count is geometric, so a run is also cut off once it has drawn 4 times this many
# points, about 6 s at the slowest rate.
MAX_POOL_DRAWS = 5_000_000


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


@dataclass(slots=True)
class _Selection:
    """What a pool holds between the steps of one sequence; see :func:`select_next`.

    Each array has one entry per pool row.  ``bands`` maps a guard to the
    rows' :func:`plus_band_areas` under it, read-only, for at most two
    guards: the root's and the last other one read.
    """

    root: Breach  # the breach the state was built for: no retreat goes shorter
    breach: Breach  # the breach last scored from
    remaining: np.ndarray  # whether each row is still a candidate
    bands: dict  # guard -> band areas
    exposed: np.ndarray  # each row's last exact numerator, 0.0 before its first
    at: np.ndarray  # the union area each numerator was taken at, 0.0 before the first
    meet: np.ndarray  # the area of the deepest breach both it and the held breach extend
    most: int  # the most priors any held numerator was taken with


@dataclass(frozen=True, slots=True)
class CandidatePool:
    """Hidden points and their separators; ``planes`` holds the separators' (a, b, c) rows.

    A pool also holds, outside ==, hash and repr, its rows sorted by c and
    1 / their least |(a, b)|, both computed when it is built, and one
    selection state, the only field that changes after that (see
    :func:`select_next`).
    """

    hidden_points: tuple[HiddenPoint, ...]
    boundaries: tuple[DecisionBoundary, ...]
    # derived from boundaries; an ndarray would break == and repr
    planes: np.ndarray = field(init=False, compare=False, repr=False)
    # the rows in order of c with their c values, and 1 / the least |(a, b)|, held the same way
    _by_c: tuple = field(init=False, compare=False, repr=False)
    _flat: float = field(init=False, compare=False, repr=False)
    # the selection state select_next last advanced, held the same way
    _selection: _Selection | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.hidden_points) != len(self.boundaries):
            raise DomainError("hidden point and boundary lists must be parallel")
        planes = planes_of(self.boundaries)
        planes.setflags(write=False)
        object.__setattr__(self, "planes", planes)
        order = np.argsort(planes[:, 2])
        object.__setattr__(self, "_by_c", (order, planes[order, 2]))
        flat = 1.0 / np.hypot(planes[:, 0], planes[:, 1]).min(initial=math.inf)
        object.__setattr__(self, "_flat", flat)

    def rows_of(self, boundaries) -> np.ndarray:
        """Rows whose separator has the "+" half-plane of one of boundaries, in no set order.

        Every row whose (a, b, c) equals one of theirs as floats is found,
        duplicates included, and -0.0 equals 0.0.  Each boundary is looked
        up by binary search among the rows sorted by c, so a lookup does not
        scan the pool.
        """
        order, c = self._by_c
        rows = [np.zeros(0, dtype=np.intp)]
        for bd in boundaries:
            line = bd.plus
            near = order[np.searchsorted(c, line.c, "left"):np.searchsorted(c, line.c, "right")]
            rows.append(near[(self.planes[near] == (line.a, line.b, line.c)).all(axis=1)])
        return np.concatenate(rows)


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


def anchor_admissible(scenario: ScenarioConfig, k: float, b: float) -> bool:
    """Whether the reflection anchor lies in the determining band.

    This is the planner's feasibility notion: the band test of
    :func:`validate_hidden_point`, i.e. constraints 1 and 2 of
    :func:`check_boundary_feasibility`, which keeps the anchor outside both
    training disks (see there for the floating-point argument).  It does not
    promise the anchor reproduces (k, b); see the module docstring.
    :func:`reconstruct_anchor`'s own :class:`DomainError` (k == 0, or an
    anchor that is not finite) reaches the caller.
    """
    h = HiddenPoint(*reconstruct_anchor(scenario, k, b))
    try:
        validate_hidden_point(scenario, h)
    except DomainError:
        return False
    return True


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
    h = HiddenPoint(*reconstruct_anchor(scenario, k, b))
    try:
        validate_hidden_point(scenario, h)
    except DomainError as exc:
        raise DomainError(f"boundary y = {k}*x + {b} has no admissible anchor: {exc}") from None
    return h


def find_bmax(scenario: ScenarioConfig, k: float) -> float:
    """Largest offset b > 0 keeping y = k*x - b anchor-admissible, by bisection.

    Admissibility is monotone along this ray (verified on a grid, not
    assumed); the returned value is admissible and value + BMAX_TOL is not.
    """
    if k <= 0.0:
        raise DomainError("offset search requires k > 0")
    if not anchor_admissible(scenario, k, -k * scenario.delta):
        raise DomainError(f"base boundary y = k*(x - delta) has no admissible anchor for k={k}")

    lo, hi = 0.0, k * (scenario.c - 1.0)
    if anchor_admissible(scenario, k, -hi):
        raise GeometryError("admissibility frontier not bracketed by b in [0, k*(c-1)]")
    flags = [anchor_admissible(scenario, k, -b) for b in np.linspace(lo, hi, 33)]
    if sorted(flags, reverse=True) != flags:
        raise GeometryError("anchor admissibility is not monotone along y = k*x - b")
    while hi - lo > BMAX_TOL:
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
        anchor = reconstruct_hidden_point(scenario, slope, intercept)
        versions.append((DecisionBoundary.sloped(slope, intercept, scenario), anchor))

    if n_versions >= 3:
        alpha = Breach.of(scenario, [versions[0][0], versions[1][0]]).score(versions[2][0])
    else:
        alpha = 0.0
    return SequencePlan(scenario, n_tiers, step, tuple(versions), alpha)


def verify_plan(plan: SequencePlan) -> PlanVerification:
    """Exact audit: prefix bounds, union stability, and the zero-transfer pair.

    One :func:`paired_scores` call scores the seed pair's directional row,
    against :meth:`Breach.within` version 1, and every prefix row, against
    prefix breaches grown by one :meth:`Breach.chain`.
    """
    scenario = plan.scenario
    versions = [bd for bd, _ in plan.versions]
    prefixes = Breach.of(scenario, versions[:2]).chain(versions[2:-1]) if len(versions) > 2 else []
    pair = [Breach.within(scenario, versions[0])] if len(versions) > 1 else []
    values = paired_scores(pair + prefixes, planes_of(versions[1:])).tolist()
    at_pair = values.pop(0) if pair else 0.0

    compound = list(zip(range(3, len(versions) + 1), values))
    unions = [breach.area for breach in prefixes]
    base = unions[0] if unions else 1.0  # the seed pair's union, which no later version may grow
    union_dev = max((abs(u - base) / base for u in unions), default=0.0) if base > 0.0 else math.inf

    max_compound = max((v for _, v in compound), default=0.0)
    # earliest version attaining the max, up to rounding ties between the
    # mirror-symmetric members of a tier
    tie = max_compound - 1e-12 * max(1.0, max_compound)
    max_at = next((i for i, v in compound if v >= tie), 0)
    bound_ok = all(v <= plan.alpha + 1e-12 for _, v in compound)
    union_ok = union_dev <= 1e-9
    pair_ok = at_pair == 0.0
    return PlanVerification(
        plan.alpha, at_pair, tuple(compound), max_compound, max_at, union_dev,
        bound_ok, union_ok, pair_ok,
    )


def admissible_share(scenario: ScenarioConfig, eps_d: float) -> float:
    """Share of the determining band outside both eps_d exclusion disks, in closed form.

    At height w the disk around (c, 0), of radius e = eps_d, leaves the band
    the width clamp(c - sqrt(max(0, e^2 - w^2)), 0, c - 1) on its side of
    v = 0, and the other disk the same on the other.  That width is 0 for
    |w| <= w0 = sqrt(e^2 - c^2), c - 1 for |w| >= w1 = sqrt(e^2 - 1), and
    c - sqrt(e^2 - w^2) between, whose integral takes
    f(w) = (w*sqrt(e^2 - w^2) + e^2*asin(w/e))/2.  Zero when eps_d reaches
    hypot(c, y_lim), the distance from both centroids to the band points
    (0, +-y_lim) farthest from them.
    """
    c, y, e = scenario.c, scenario.y_lim, eps_d
    if e >= np.hypot(c, y):
        return 0.0
    w0, w1 = (min(y, math.sqrt(max(0.0, e * e - r * r))) for r in (c, 1.0))

    def f(w):
        return 0.5 * (w * math.sqrt(max(0.0, e * e - w * w)) + e * e * math.asin(w / e))

    half = c * (w1 - w0) - (f(w1) - f(w0)) + (c - 1.0) * (y - w1)
    return max(0.0, half) / ((c - 1.0) * y)


def draw_hidden_points(
    scenario: ScenarioConfig, n: int, eps_d: float, seed: int, stream: int
) -> tuple[HiddenPoint, ...]:
    """n hidden points uniform over the determining band outside both eps_d exclusion disks.

    Points come, in draw order, from Philox stream (seed, stream) in batches
    of max(points still needed, 64); a point on a band end v = +-(c - 1) or
    within eps_d of a training centroid is rejected; no band point lies within
    1 of one, so an eps_d of 1 rejects only the ends.  An eps_d that leaves no
    band point, or so small a share of the band that n points would take more
    than MAX_POOL_DRAWS draws on average (see :func:`admissible_share`),
    raises :class:`DomainError` before the stream is opened; a draw still
    short of n points after 4 * MAX_POOL_DRAWS draws raises it then.
    """
    c, y_lim = scenario.c, scenario.y_lim
    share = admissible_share(scenario, eps_d)
    if share == 0.0:
        raise DomainError(f"band minus eps_d={eps_d} exclusion disks is empty: eps_d must be "
                          f"below hypot(c, y_lim) = {np.hypot(c, y_lim):.9g}")
    if n / share > MAX_POOL_DRAWS:
        raise DomainError(f"band minus eps_d={eps_d} exclusion disks is nearly empty: "
                          f"{n} points need about {n / share:.4g} draws, above the "
                          f"limit of {MAX_POOL_DRAWS}")
    rng = philox(seed, stream)
    points: list[HiddenPoint] = []
    drawn = 0
    while len(points) < n:
        if drawn >= 4 * MAX_POOL_DRAWS:
            raise DomainError(f"band minus eps_d={eps_d} exclusion disks is nearly empty: "
                              f"{drawn} draws gave {len(points)} of {n} points, and the "
                              f"limit is {4 * MAX_POOL_DRAWS} draws")
        batch = max(n - len(points), 64)
        drawn += batch
        v = rng.uniform(-(c - 1.0), c - 1.0, batch)
        w = rng.uniform(-y_lim, y_lim, batch)
        ok = (np.hypot(v - c, w) > eps_d) & (np.hypot(v + c, w) > eps_d)
        ok &= (np.abs(v) < c - 1.0) & (np.abs(w) <= y_lim)
        points += (HiddenPoint(float(vi), float(wi)) for vi, wi in zip(v[ok], w[ok]))
    return tuple(points[:n])


def generate_candidate_pool(
    scenario: ScenarioConfig, size: int, eps_d: float = DEFAULT_EPS_D, seed: int = 0
) -> CandidatePool:
    """Candidates of :func:`draw_hidden_points` on stream 0, with their boundaries.

    eps_d keeps candidates from the task data, so it must exceed the training disk radius 1.
    """
    if size < 1:
        raise DomainError("pool size must be >= 1")
    if eps_d <= 1.0:
        raise DomainError("eps_d must exceed the training disk radius 1")
    points = draw_hidden_points(scenario, size, eps_d, seed, 0)
    boundaries = tuple(boundary_from_hidden(scenario, h)[0] for h in points)
    return CandidatePool(points, boundaries)


def audit_sequence(seed: Breach, sequence) -> np.ndarray:
    """Transferability of each separator of sequence from seed grown by the ones before it.

    Row i scores sequence[i] against breach i of one :meth:`Breach.chain` of
    seed by sequence[:-1], all rows by one :func:`paired_scores` call.  An
    undefined ratio is NaN.
    """
    breaches = seed.chain(sequence[:-1]) if sequence else []
    return paired_scores(breaches, planes_of(sequence))


def _extends(held: Breach | None, scenario: ScenarioConfig, priors) -> bool:
    """Whether held is of scenario and its priors are, object for object, a prefix of priors."""
    return (held is not None and held.scenario == scenario and len(held.priors) <= len(priors)
            and all(p is q for p, q in zip(held.priors, priors)))


def _selection(pool: CandidatePool, breach: Breach) -> _Selection:
    """The pool's selection state moved to breach, or rebuilt for it; see :func:`select_next`."""
    state = pool._selection
    held = state and state.breach
    moves = state and _extends(state.root, breach.scenario, breach.priors)
    if moves and _extends(held, breach.scenario, breach.priors):  # an advance
        state.remaining[pool.rows_of(breach.priors[len(held.priors):])] = False
    elif moves and _extends(breach, held.scenario, held.priors):  # a retreat
        state.remaining[:] = True
        state.remaining[pool.rows_of(breach.priors)] = False
        np.minimum(state.meet, breach.area, out=state.meet)
    else:
        remaining = np.ones(len(pool.planes), dtype=bool)
        remaining[pool.rows_of(breach.priors)] = False
        guard_extent(breach.scenario, *pool.planes[remaining].T)
        same = state and state.root.scenario == breach.scenario and breach.guard in state.bands
        bands = {breach.guard: state.bands[breach.guard]} if same else {}
        zeros = np.zeros(len(pool.planes))
        state = _Selection(breach, breach, remaining, bands, zeros, zeros.copy(), zeros.copy(), 0)
        object.__setattr__(pool, "_selection", state)
        return state
    if breach.guard != held.guard:
        state.exposed[:], state.at[:], state.meet[:], state.most = 0.0, 0.0, 0.0, 0
    state.breach = breach
    return state


def select_next(pool: CandidatePool, breach: Breach) -> tuple[int, float]:
    """Pool index minimizing exact transferability from the held breach, and that ratio.

    Candidates whose boundary equals a breached one, found by
    :meth:`CandidatePool.rows_of`, are excluded.  Ties break toward the
    lowest pool index.  A step whose exact scores are undefined (NaN) has
    nothing to pick by: it raises :class:`UndefinedEstimateError` naming
    the step, the (len(breach.priors) + 1)-th version.  A sequence holds
    one breach of its breached versions and grows it with
    :meth:`Breach.extend`; a :meth:`Breach.within` breach, which cannot
    grow, raises :class:`DomainError`.

    The pool holds one selection state: the root breach it was built for,
    the breach last scored from, the rows it left, the rows' band areas
    under at most two guards (the root's and the last other one read) and,
    per row, its last exact numerator N_old (the :meth:`Breach.exposed`
    area that :meth:`Breach.scores` divides), the union area A_old it was
    taken at, and M, the area of the deepest breach that both N_old's
    breach and the held breach extend.  A breach of the same scenario whose
    priors the root's are, object for object, a prefix of moves the state.
    When the held priors are a prefix of its own, as :meth:`Breach.extend`
    and :func:`greedy_select_next` give, it advances and drops the new
    priors' rows.  When its priors are a prefix of the held ones, a
    *retreat* such as a restart from the seed pair, the dropped priors'
    rows are candidates again and every M becomes min(M, A), A its area.
    Under a guard other than the held breach's, either move resets every
    N_old, A_old and M to 0.0.  Any other breach rebuilds the state,
    keeping the band areas under its guard if they are held; only a rebuild
    checks the rows' validity (:func:`guard_extent`), and a retreat, going
    no shorter than the root, gives back only rows a rebuild checked.  A
    step whose guard's band areas are not held reads them by
    :func:`plus_band_areas`.  A step scores, in ascending row order, only
    the rows whose lower bound N_old - (A_old - M) - m is at most the least
    upper bound, min(N_old + (A - M) + m), A the breach's area; dividing by
    A gives the bounds on the ratio.  A row scored sets M = A_old = A, so
    along advances alone the bounds are [N_old - m, N_old + (A - A_old) +
    m].  Here m = MERGE_TOL * (P + 1000) * K * L, with P the most priors of
    the breach and of every breach a held N_old was taken at, L = guard + 2
    * y_lim and K = max(L, 1 / min |(a, b)|) over the pool's rows.  The
    first step of a state keeps every row, as 0 <= N <= A.  The [0, 1]
    range check of :func:`shares` covers every ratio a step computes; a
    pruned row's ratio is never computed.

    Proof that the pick and its score are those of scoring every row.  Every
    polygon lies in one band, [-guard, -delta] or [0, delta] by [-y_lim,
    y_lim], whose width plus height, and so its diameter and its points'
    norms, are at most L.  (1) Under one guard an extended breach's inside
    polygons are the held ones clipped further (:meth:`Breach.chain`, which
    :meth:`Breach.of` equals bit for bit, so a retreat's breach has the
    polygons of the held breach's prefix).  A clip keeps vertices and adds
    crossings on edges, and :meth:`ConvexPolygon.from_points` only drops
    points, so each lies in the held one but for crossings rounded off its
    edges; the band areas are the same held values.  So a target's exact
    area in the union grows by at least 0 and at most the area the union
    grows by.  Since the last reset every breach the state moved through
    has one guard, and N_old's breach and the held breach both extend a
    breach of area M: a retreat to B leaves the shorter of B and the
    breach they met at, and areas grow along a chain, so min(M, A) is its
    area up to rounding.  So N - N_M lies in [0, A - M] and N_old - N_M in
    [0, A_old - M], N_M the target's area in that breach.  The reset
    values are the empty union's, N_old = A_old = M = 0, whose inside is
    the band, and bound N the same way.  (2) :func:`clipped_areas` keeps a
    vertex within eps = MERGE_TOL * scale of the target's line and cuts at
    the rest, so a cell's area is the polygon's area on the exact line's
    side to within the strip of half-width eps / |(a, b)| <= MERGE_TOL * K
    * (1 + 2e-12) about the line: at most 2 * MERGE_TOL * K * L * (1 +
    2e-12), and exact when the line passes farther than eps from the
    polygon.  An N and its N_old differ in four such cells.  Shoelace sums
    of at most P + 6 points of norm L, crossings rounded off their edges
    over at most P clips per band, and the few sums and differences of N,
    N_old, A, A_old and M add about 80 * (P + 5) * u * L^2, u = 2**-53.
    So N lies within E of [N_old - (A_old - M), N_old + (A - M)], with E <
    m / 100, and the rounding of the bounds themselves is far below m.
    (3) The row with the least upper bound is kept, since (1) and (2) give
    A - M >= -2E and A_old - M >= -2E, and its N, so the best kept N*, is
    at most that bound less m - E.  A pruned row's N is at least its lower
    bound plus m - E, above the least upper bound, so it exceeds N* by more
    than m.  A is at most the bands' area, 2 * y_lim * guard <= L^2 <= K *
    L, so m / A >= 1e-9: a pruned row's ratio exceeds the best's by more
    than 1e-9, far above the quotient's rounding.  It is positive, and at
    most 1 + E / A as N <= A + E, so clipping to [0, 1] keeps it strictly
    above the best, and the range check would pass it.  So no pruned row
    can win or tie.  Each kept row's value is the one full scoring gives
    it, bit for bit (see :meth:`Breach.exposed`), and the rows are in
    ascending order, so the first minimum is the same row.
    """
    if math.isnan(breach.guard):
        raise DomainError("greedy selection requires a breach of at least one breached version")
    state = _selection(pool, breach)
    if not state.remaining.any():
        raise PoolExhaustedError("every pool candidate has been consumed")
    bands = state.bands.get(breach.guard)
    if bands is None:
        bands = plus_band_areas(breach.scenario, breach.guard, pool.planes)
        bands.setflags(write=False)
        root = state.root.guard
        state.bands = {g: v for g, v in state.bands.items() if g == root} | {breach.guard: bands}
    area = breach.area
    state.most = max(state.most, len(breach.priors))
    size = breach.guard + 2.0 * breach.scenario.y_lim  # L in select_next's proof
    margin = MERGE_TOL * (state.most + 1000) * max(size, pool._flat) * size
    upper = np.min(state.exposed + (area - state.meet), where=state.remaining, initial=math.inf)
    lower = state.exposed - (state.at - state.meet)
    rows = np.flatnonzero(state.remaining & (lower - margin <= upper + margin))
    exposed = breach.exposed(pool.planes[rows], bands[rows])
    values = shares(exposed, area)
    state.exposed[rows], state.at[rows], state.meet[rows] = exposed, area, area
    best = int(np.argmin(values))  # the first NaN, if any
    if math.isnan(values[best]):
        raise UndefinedEstimateError(
            f"step {len(breach.priors) + 1}: the breached versions expose no area")
    return int(rows[best]), float(values[best])


def greedy_select_next(
    scenario: ScenarioConfig,
    pool: CandidatePool,
    breached: list[DecisionBoundary],
    cfg: AttackSampleConfig,
) -> tuple[int, TransferabilityScore]:
    """:func:`select_next` over ``Breach.of(scenario, breached)``, its pick scored under cfg.

    The score is the exact ratio, or when cfg.n_samples > 0 the pick's
    :func:`mc_transferability` estimate; one short of the acceptance floor,
    NaN, raises :class:`UndefinedEstimateError`.
    When the breach of the pool's selection state is of scenario and its
    priors are, object for object, a prefix of breached, it is grown by the
    rest with :meth:`Breach.chain`, which gives what ``of`` would, bit for
    bit, at one clip per non-empty inside polygon per version, and the
    state advances rather than being rebuilt.  Failing that, the state's
    root breach is grown the same way when its priors are such a prefix,
    as on a restart from the seed pair, and the state retreats.
    """
    state = pool._selection
    for held in (state and state.breach, state and state.root):
        if _extends(held, scenario, breached):
            breach = held.chain(breached[len(held.priors):])[-1]
            break
    else:
        breach = Breach.of(scenario, breached)
    index, value = select_next(pool, breach)
    if cfg.n_samples:
        value = mc_transferability(scenario, breach.priors, pool.boundaries[index], cfg).value
        if math.isnan(value):
            raise UndefinedEstimateError(f"step {len(breached) + 1}: the pick's estimate did not "
                                         f"reach the Monte Carlo acceptance floor with "
                                         f"n_samples = {cfg.n_samples}")
    return index, TransferabilityScore(float(value))


def random_baseline_sequence(
    scenario: ScenarioConfig, n_versions: int, seed: int = 0, eps_d: float = DEFAULT_EPS_D
) -> tuple[tuple[HiddenPoint, DecisionBoundary], ...]:
    """:func:`draw_hidden_points` on stream 1, with boundaries: eps_d applies as to a pool."""
    if n_versions < 0:
        raise DomainError("baseline sequence length must be >= 0")
    points = draw_hidden_points(scenario, n_versions, eps_d, seed, 1)
    return tuple((h, boundary_from_hidden(scenario, h)[0]) for h in points)
