"""Attackable regions, exact transferability ratios, and Monte Carlo checks.

The attackable region of a model version is the set of true-"-" points the
version classifies "+": everything a targeted attack on class "+" can use.
The "-" domain is the union of two bands, {x <= -delta} and {0 <= x < delta},
cut to the strip |y| <= y_lim.  Within one band, membership in a region is
membership in a single half-plane, so every union or intersection of regions
reduces to convex half-plane clipping per band:

* union area  = band area - area of the intersection of complements,
* intersection area = area of the intersection of the "+" half-planes.

That keeps every transferability ratio exact; the Monte Carlo estimator
exists as an independent, sampling-based cross-check of those exact numbers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, UndefinedEstimateError
from .geometry import ConvexPolygon, HalfPlane, halfplane_intersection, polygon_area, rectangle
from .separators import DecisionBoundary, ScenarioConfig

# Fixed Monte Carlo block size: workers may split the block index range
# anywhere and the merged counts are identical to a single sequential pass.
MC_BLOCK = 1 << 17

MODE_ENSEMBLE = "ensemble"
MODE_CAUTIOUS = "cautious"

_MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True, slots=True)
class AttackableRegion:
    """Misclassified "-" territory of one boundary, one convex piece per band."""

    scenario: ScenarioConfig
    source_boundary: DecisionBoundary
    pieces: tuple[ConvexPolygon, ...]
    guard: float


@dataclass(frozen=True, slots=True)
class TransferabilityScore:
    value: float
    defined: bool

    @classmethod
    def undefined(cls) -> "TransferabilityScore":
        return cls(float("nan"), False)

    @classmethod
    def of(cls, value: float) -> "TransferabilityScore":
        if value < -1e-9 or value > 1.0 + 1e-9:
            raise GeometryError(f"transferability ratio {value} outside [0, 1]")
        return cls(min(1.0, max(0.0, value)), True)

    @classmethod
    def ratio(cls, numer: float, denom: float) -> "TransferabilityScore":
        """numer / denom, undefined when the reference area denom is zero."""
        return cls.undefined() if denom == 0.0 else cls.of(numer / denom)


@dataclass(frozen=True, slots=True)
class AttackSampleConfig:
    """Attacker mode and sampling budget; n_samples = 0 selects exact scoring."""

    mode: str
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.mode not in (MODE_ENSEMBLE, MODE_CAUTIOUS):
            raise DomainError(f"unknown attacker mode {self.mode!r}")
        if self.n_samples < 0:
            raise DomainError("n_samples must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    value: float
    half_width: float
    accepted: int
    n_samples: int


def guard_extent(scenario: ScenarioConfig, boundary: DecisionBoundary) -> float:
    """Left clipping depth G for the conceptually unbounded band {x <= -delta}.

    Every valid separator yields a bounded region well inside x >= -G; a
    region vertex landing on the guard is converted into a loud error.
    """
    c = scenario.c
    line = boundary.plus
    return max(2.0 * c, (abs(line.c) + abs(line.b) * scenario.y_lim) / abs(line.a) + c)


def band_rectangles(scenario: ScenarioConfig, guard: float) -> tuple[ConvexPolygon, ConvexPolygon]:
    """The two "-" bands cut to the strip and bounded on the left by the guard."""
    y = scenario.y_lim
    left = rectangle(-guard, -scenario.delta, -y, y)
    sliver = rectangle(0.0, scenario.delta, -y, y)
    return left, sliver


def build_attackable_region(scenario: ScenarioConfig, boundary: DecisionBoundary) -> AttackableRegion:
    """Exact attackable region of one boundary as convex pieces, one per band."""
    guard = guard_extent(scenario, boundary)
    pieces = []
    for band in band_rectangles(scenario, guard):
        piece = halfplane_intersection([boundary.plus], band)
        for vert in piece.vertices:
            if vert.x <= -guard + 1e-9 * max(1.0, guard):
                raise GeometryError("attackable region reached the left guard; invalid separator")
        pieces.append(piece)
    return AttackableRegion(scenario, boundary, tuple(pieces), guard)


def region_area(region: AttackableRegion) -> float:
    return sum(polygon_area(p) for p in region.pieces)


def closed_form_ar_area(scenario: ScenarioConfig, k: float, b: float) -> float:
    """Area of the attackable region of y = k*x - b as triangle plus trapezoid.

    Valid for k > 0 and 0 < b <= y_lim - k*delta (at the upper end the
    triangle term vanishes continuously).  Must match the polygon route to
    1e-9 relative; callers outside this parameter range use the polygons.
    """
    d, y = scenario.delta, scenario.y_lim
    if k <= 0.0:
        raise DomainError("closed form requires k > 0")
    if not 0.0 < b <= y - k * d:
        raise DomainError(f"closed form requires 0 < b <= y_lim - k*delta = {y - k * d}")
    return (y - k * d - b) ** 2 / (2.0 * k) + d * (y - b + k * d / 2.0)


def _require_same_scenario(*regions: AttackableRegion) -> ScenarioConfig:
    scenario = regions[0].scenario
    for r in regions[1:]:
        if r.scenario != scenario:
            raise DomainError("regions built under different scenarios")
    return scenario


def _shared_bands(*regions: AttackableRegion) -> tuple[ConvexPolygon, ConvexPolygon]:
    """Both bands under the deepest guard of regions built in one scenario."""
    return band_rectangles(_require_same_scenario(*regions), max(r.guard for r in regions))


def _band_area(
    piece: ConvexPolygon, plus: list[HalfPlane], minus: list[HalfPlane] | None = None
) -> float:
    """Area of ``piece`` cut by every half-plane in ``plus``.

    With ``minus``, the "-" sides of some regions, only the part inside at
    least one of those regions counts: the cut area less its part outside
    all of them (union = band - intersection of complements).
    """
    cut = halfplane_intersection(plus, piece)
    area = polygon_area(cut)
    if minus is None:
        return area
    return area - polygon_area(halfplane_intersection(minus, cut))


def directional_transferability(
    ar1: AttackableRegion, ar2: AttackableRegion
) -> TransferabilityScore:
    """Overlap of ar2 with ar1, relative to ar1: S(ar1 n ar2) / S(ar1)."""
    _require_same_scenario(ar1, ar2)
    plus2 = [ar2.source_boundary.plus]
    numer = sum(_band_area(piece, plus2) for piece in ar1.pieces)
    return TransferabilityScore.ratio(numer, region_area(ar1))


def compound_transferability(
    priors: list[AttackableRegion], target: AttackableRegion
) -> TransferabilityScore:
    """S(target n union of priors) / S(union of priors), exactly."""
    if not priors:
        raise DomainError("compound transferability requires at least one prior region")
    bands = _shared_bands(*priors, target)
    minus = [r.source_boundary.minus for r in priors]
    plus_t = [target.source_boundary.plus]
    union = sum(_band_area(band, [], minus) for band in bands)
    inter = sum(_band_area(band, plus_t, minus) for band in bands)
    return TransferabilityScore.ratio(inter, union)


def cautious_transferability(
    priors: list[AttackableRegion], target: AttackableRegion
) -> TransferabilityScore:
    """S(target n intersection of priors) / S(intersection of priors)."""
    if not priors:
        raise DomainError("cautious transferability requires at least one prior region")
    plus = [r.source_boundary.plus for r in priors]
    cores = [halfplane_intersection(plus, band) for band in _shared_bands(*priors, target)]
    plus_t = [target.source_boundary.plus]
    numer = sum(_band_area(core, plus_t) for core in cores)
    return TransferabilityScore.ratio(numer, sum(map(polygon_area, cores)))


def union_area(priors: list[AttackableRegion]) -> float:
    """Exact area of the union of attackable regions."""
    if not priors:
        return 0.0
    minus = [r.source_boundary.minus for r in priors]
    return sum(_band_area(band, [], minus) for band in _shared_bands(*priors))


def check_zero_transfer(
    bd1: DecisionBoundary, bd2: DecisionBoundary, scenario: ScenarioConfig
) -> bool:
    """Slope-sign/crossing test guaranteeing zero directional transferability.

    True when the slopes have opposite signs and the boundaries intersect at
    x_I >= delta; whenever true, both exact directional scores are zero (the
    crossing at equality contributes only a measure-zero seam).
    """
    if bd1.kind != "sloped" or bd2.kind != "sloped":
        raise DomainError("zero-transfer test applies to sloped boundaries only")
    if bd1.k * bd2.k >= 0.0:
        return False
    x_i = (bd2.b - bd1.b) / (bd1.k - bd2.k)
    return x_i >= scenario.delta


def mc_block_counts(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    target: DecisionBoundary,
    cfg: AttackSampleConfig,
    block_start: int,
    block_stop: int,
) -> tuple[int, int]:
    """(accepted, hits) over a contiguous range of sampling blocks.

    Block j draws its points from a Philox stream keyed (seed, j), so any
    partition of the block range across workers merges to exactly the counts
    of a single sequential pass.
    """
    guard = max(guard_extent(scenario, b) for b in list(priors) + [target])
    d, y = scenario.delta, scenario.y_lim
    area_left = (guard - d) * 2.0 * y
    area_sliver = d * 2.0 * y
    p_sliver = area_sliver / (area_left + area_sliver)

    accepted = 0
    hits = 0
    for j in range(block_start, block_stop):
        m = min(MC_BLOCK, cfg.n_samples - j * MC_BLOCK)
        if m <= 0:
            break
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, j], dtype=np.uint64)))
        u = rng.random((m, 2))
        m_sliver = int(round(m * p_sliver))
        x = np.empty(m)
        x[:m_sliver] = u[:m_sliver, 0] * d
        x[m_sliver:] = -guard + u[m_sliver:, 0] * (guard - d)
        yv = -y + u[:, 1] * (2.0 * y)
        prior_hits = np.stack([b.signed_value(x, yv) >= 0.0 for b in priors])
        mask = prior_hits.any(axis=0) if cfg.mode == MODE_ENSEMBLE else prior_hits.all(axis=0)
        accepted += int(mask.sum())
        hits += int((mask & (target.signed_value(x, yv) >= 0.0)).sum())
    return accepted, hits


def mc_transferability(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    target: DecisionBoundary,
    cfg: AttackSampleConfig,
) -> MonteCarloEstimate:
    """Sampled transferability with a 95% binomial interval half-width.

    Uniform points over the two "-" bands (stratified proportionally to band
    area) are filtered by the attacker mode: ensemble keeps points inside at
    least one prior region, cautious keeps points inside all of them.  The
    estimate is the kept fraction the target classifies "+".
    """
    if not priors:
        raise DomainError("Monte Carlo transferability requires at least one prior")
    if cfg.n_samples < 1:
        raise DomainError("Monte Carlo transferability requires n_samples >= 1")
    n_blocks = -(-cfg.n_samples // MC_BLOCK)
    accepted, hits = mc_block_counts(scenario, priors, target, cfg, 0, n_blocks)
    if accepted < max(1.0, _MIN_ACCEPTANCE * cfg.n_samples):
        raise UndefinedEstimateError(
            f"only {accepted} of {cfg.n_samples} samples satisfied the attacker mode"
        )
    value = hits / accepted
    half_width = 1.96 * math.sqrt(value * (1.0 - value) / accepted)
    return MonteCarloEstimate(value, half_width, accepted, cfg.n_samples)
