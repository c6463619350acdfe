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
from .geometry import (
    ConvexPolygon,
    HalfPlane,
    PolygonBatch,
    clip_convex_batch,
    halfplane_intersection,
    polygon_area,
    polygon_areas,
    rectangle,
)
from .separators import DecisionBoundary, ScenarioConfig

# Fixed Monte Carlo block size: workers may split the block index range
# anywhere and the merged counts are identical to a single sequential pass.
MC_BLOCK = 1 << 17

# Separators per batched clip in Breach.scores and check_guards: bounds their
# (rows x vertices) temporaries whatever the pool size.
SCORE_BLOCK = 256

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


# The quoted annotation keeps numpy.random from loading at import time.
def philox(seed: int, stream: int) -> "np.random.Generator":
    """Philox generator keyed (seed, stream); every seeded draw goes through it."""
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def guard_extent(scenario: ScenarioConfig, a, b, c):
    """Left clipping depth G for the conceptually unbounded band {x <= -delta}.

    a, b and c are the coefficients of a separator's "+" side, as floats or
    as arrays with one separator per entry.  Every valid separator yields a
    bounded region well inside x >= -G; a region vertex landing on the guard
    is converted into a loud error.
    """
    c0 = scenario.c
    return np.maximum(2.0 * c0, (np.abs(c) + np.abs(b) * scenario.y_lim) / np.abs(a) + c0)


def band_rectangles(scenario: ScenarioConfig, guard: float) -> tuple[ConvexPolygon, ConvexPolygon]:
    """The two "-" bands cut to the strip and bounded on the left by the guard."""
    y = scenario.y_lim
    left = rectangle(-guard, -scenario.delta, -y, y)
    sliver = rectangle(0.0, scenario.delta, -y, y)
    return left, sliver


def build_attackable_region(scenario: ScenarioConfig, boundary: DecisionBoundary) -> AttackableRegion:
    """Exact attackable region of one boundary as convex pieces, one per band."""
    line = boundary.plus
    guard = float(guard_extent(scenario, line.a, line.b, line.c))
    pieces = []
    for band in band_rectangles(scenario, guard):
        piece = halfplane_intersection([line], band)
        for vert in piece.vertices:
            if vert.x <= -guard + 1e-9 * max(1.0, guard):
                raise GeometryError("attackable region reached the left guard; invalid separator")
        pieces.append(piece)
    return AttackableRegion(scenario, boundary, tuple(pieces), guard)


def check_guards(scenario: ScenarioConfig, planes: np.ndarray) -> None:
    """:func:`build_attackable_region`'s guard check for many separators at once.

    ``planes`` holds one "+" half-plane (a, b, c) per row.  Each row's left
    band is cut under that separator's own guard, as the scalar route does.
    """
    d, y = scenario.delta, scenario.y_lim
    for start in range(0, len(planes), SCORE_BLOCK):
        a, b, c = planes[start:start + SCORE_BLOCK].T
        guard = guard_extent(scenario, a, b, c)
        inner = np.full_like(guard, -d)
        band = PolygonBatch(np.stack([-guard, inner, inner, -guard], axis=1),
                            np.tile([-y, -y, y, y], (len(guard), 1)), np.full(len(guard), 4))
        piece = clip_convex_batch(band, a, b, c)
        valid = np.arange(piece.x.shape[1]) < piece.n[:, None]
        edge = (-guard + 1e-9 * np.maximum(1.0, guard))[:, None]
        if (valid & (piece.x <= edge)).any():
            raise GeometryError("attackable region reached the left guard; invalid separator")


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


@dataclass(frozen=True, slots=True)
class Breach:
    """Territory the breached versions expose to an attacker, one piece per band.

    The bands are cut under the deepest breached guard, which no breached
    region reaches.  Ensemble: the pieces are the bands, ``outside`` holds the
    breached "-" sides and ``area`` the union, band less outside.  Cautious:
    the pieces are the parts inside every region and ``outside`` is empty.
    """

    scenario: ScenarioConfig
    pieces: tuple[ConvexPolygon, ...]
    outside: tuple[HalfPlane, ...]
    area: float

    @classmethod
    def of(cls, priors: list[AttackableRegion], mode: str = MODE_ENSEMBLE) -> "Breach":
        if not priors:
            raise DomainError("transferability requires at least one breached region")
        scenario = priors[0].scenario
        if any(r.scenario != scenario for r in priors):
            raise DomainError("regions built under different scenarios")
        bands = band_rectangles(scenario, max(r.guard for r in priors))
        if mode == MODE_CAUTIOUS:
            plus = [r.source_boundary.plus for r in priors]
            cores = tuple(halfplane_intersection(plus, band) for band in bands)
            return cls(scenario, cores, (), sum(map(polygon_area, cores)))
        outside = tuple(r.source_boundary.minus for r in priors)
        area = sum(polygon_area(b) - polygon_area(halfplane_intersection(outside, b))
                   for b in bands)
        return cls(scenario, bands, outside, area)

    def score(self, target: AttackableRegion) -> TransferabilityScore:
        """Share of the breached territory that target classifies "+"."""
        if target.scenario != self.scenario:
            raise DomainError("regions built under different scenarios")
        plus = [target.source_boundary.plus]
        numer = 0.0
        for piece in self.pieces:
            cut = halfplane_intersection(plus, piece)
            area = polygon_area(cut)
            if self.outside:
                area -= polygon_area(halfplane_intersection(self.outside, cut))
            numer += area
        return TransferabilityScore.ratio(numer, self.area)

    def scores(self, planes: np.ndarray) -> np.ndarray:
        """:meth:`score` of every target, given as one "+" half-plane (a, b, c) per row.

        The same clips in the same order, batched over the targets; NaN
        throughout when the breached area is zero, as the scalar score is
        then undefined.
        """
        if self.area == 0.0:
            return np.full(len(planes), np.nan)
        numer = np.zeros(len(planes))
        for start in range(0, len(planes), SCORE_BLOCK):
            a, b, c = planes[start:start + SCORE_BLOCK].T
            for piece in self.pieces:
                cut = clip_convex_batch(PolygonBatch.repeat(piece, len(a)), a, b, c)
                area = polygon_areas(cut)
                if self.outside:
                    for half in self.outside:
                        cut = clip_convex_batch(cut, half.a, half.b, half.c)
                    area -= polygon_areas(cut)
                numer[start:start + SCORE_BLOCK] += area
        values = numer / self.area
        bad = (values < -1e-9) | (values > 1.0 + 1e-9)
        if bad.any():
            raise GeometryError(f"transferability ratio {float(values[bad][0])} outside [0, 1]")
        return np.clip(values, 0.0, 1.0)


def directional_transferability(
    ar1: AttackableRegion, ar2: AttackableRegion
) -> TransferabilityScore:
    """Overlap of ar2 with ar1, relative to ar1: S(ar1 n ar2) / S(ar1)."""
    return Breach(ar1.scenario, ar1.pieces, (), region_area(ar1)).score(ar2)


def compound_transferability(
    priors: list[AttackableRegion], target: AttackableRegion
) -> TransferabilityScore:
    """S(target n union of priors) / S(union of priors), exactly."""
    return Breach.of(priors, MODE_ENSEMBLE).score(target)


def cautious_transferability(
    priors: list[AttackableRegion], target: AttackableRegion
) -> TransferabilityScore:
    """S(target n intersection of priors) / S(intersection of priors)."""
    return Breach.of(priors, MODE_CAUTIOUS).score(target)


def union_area(priors: list[AttackableRegion]) -> float:
    """Exact area of the union of attackable regions."""
    return Breach.of(priors).area if priors else 0.0


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
    guard = max(float(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c))
                for bd in [*priors, target])
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
        u = philox(cfg.seed, j).random((m, 2))
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
