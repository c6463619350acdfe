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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GeometryError, UndefinedEstimateError
from .geometry import (
    ConvexPolygon,
    clip_convex,
    clipped_area,
    clipped_areas,
    halfplane_intersection,
    polygon_area,
    rectangle,
    vertex_stack,
)
from .separators import DecisionBoundary, ScenarioConfig

# Fixed Monte Carlo block size: workers may split the block index range
# anywhere and the merged counts are identical to a single sequential pass.
MC_BLOCK = 1 << 17

# Target rows per clipped_areas call of _clipped_areas, the one every exact score shares:
# bounds its (vertices x polygons x rows) temporaries whatever the pool size or plan
# length.  Over 100,000 candidates an exact step took the least time at 4096 (2-core
# host), with a tracemalloc peak 0.1 MiB above 1024's; at 16384 the peak rose 7 MiB.
SCORE_BLOCK = 4096

# Most cells (rows x live polygons) a _clipped_areas call scores one at a time by
# clipped_area, at about 6 us a cell, rather than pay clipped_areas' fixed 120-200 us
# (2-core host).  Scoring a cell alone and the kernel's call cost met at 20-30 cells of
# 4-5 vertices, and an exact greedy round over 1000 candidates took the least time
# from 12 to 48: 2.16 ms at 24 against 3.33 ms with no scalar route (eps_d = 2).
SCALAR_CELLS = 24

MODE_ENSEMBLE = "ensemble"

_MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True, slots=True)
class TransferabilityScore:
    """One transferability ratio; NaN marks a ratio that is undefined."""

    value: float

    @property
    def defined(self) -> bool:
        return not math.isnan(self.value)


@dataclass(frozen=True, slots=True)
class AttackSampleConfig:
    """Attacker mode and sampling budget; n_samples = 0 selects exact scoring.

    The only mode is ``ensemble``: the attacker holds every breached version.
    """

    mode: str
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.mode != MODE_ENSEMBLE:
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


# The quoted annotation keeps numpy.random from loading at import time.
def philox(seed: int, stream: int) -> "np.random.Generator":
    """Philox generator keyed (seed, stream); every seeded draw goes through it."""
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def strip_reach(scenario: ScenarioConfig, a, b, c):
    """(|c| + |b|*y_lim) / |a|, per separator given as in :func:`guard_extent`.

    A valid separator's "+" side holds no point of the strip left of -reach.
    """
    return (np.abs(c) + np.abs(b) * scenario.y_lim) / np.abs(a)


def guard_extent(scenario: ScenarioConfig, a, b, c):
    """Left clipping depth G for the conceptually unbounded band {x <= -delta}.

    a, b and c are the coefficients of a separator's "+" side, as floats or
    as arrays with one separator per entry.  This is the one validity rule:
    a separator is valid when its "+" side is bounded on the left (a < 0)
    and its leftmost abscissa in the strip, (c + |b|*y_lim)/a, lies right of
    -G*(1 - 1e-9), so that its region lies well inside x >= -G.  Any other
    separator, one whose G overflows included, raises :class:`GeometryError`.
    """
    c0 = scenario.c
    with np.errstate(all="ignore"):
        guard = np.maximum(2.0 * c0, strip_reach(scenario, a, b, c) + c0)
        leftmost = (c + np.abs(b) * scenario.y_lim) / a
        # an overflowing guard fails too: inf > inf is false, and so is nan
        valid = (np.less(a, 0.0) & (leftmost + guard > 1e-9 * guard)).all()
    if not valid:
        raise GeometryError("attackable region reached the left guard; invalid separator")
    return guard


def planes_of(boundaries) -> np.ndarray:
    """One "+" half-plane (a, b, c) row per separator, the form every batched route takes."""
    return np.array([(bd.plus.a, bd.plus.b, bd.plus.c) for bd in boundaries]).reshape(-1, 3)


def deepest_guard(scenario: ScenarioConfig, boundaries) -> float:
    """Largest :func:`guard_extent` of one or more separators, from one call over all of them."""
    return float(guard_extent(scenario, *planes_of(boundaries).T).max())


def _admit(widest: dict, boundary: DecisionBoundary) -> bool:
    """Whether boundary is undominated by the record widest, and if so add it to widest.

    widest holds the largest c per "+" normal (a, b); see :func:`undominated`."""
    line = boundary.plus
    if widest.get((line.a, line.b), -math.inf) >= line.c:
        return False
    widest[line.a, line.b] = line.c
    return True


def undominated(boundaries) -> list[DecisionBoundary]:
    """The separators, in order, less each one an earlier separator dominates.

    Separator j is dominated when an earlier separator i has the same "+"
    normal, (a_i, b_i) == (a_j, b_j), and c_i >= c_j: i's "+" side holds j's
    and j's "-" side holds i's.  :func:`mc_counts` tests only these priors
    and :meth:`Breach.of` clips only by their "-" sides; the sampling box,
    :func:`mc_left_cut`, :func:`deepest_guard` and ``Breach.priors`` still
    come from every separator, so every count and polygon is unchanged.  A
    dominated separator listed before its dominator is kept.  +0.0 and -0.0
    compare equal, so a vertical pair whose b differs in sign shares a normal.

    Proof that the Monte Carlo verdict is exact.  Both separators compute the
    same float s = a*x + b*y (a b of either zero sign adds a zero, which
    moves no comparison), and j accepts a point when fl(s - c_j) <= 0.
    Rounding is monotone, so c_j <= c_i gives fl(s - c_i) <= fl(s - c_j) <=
    0: i has already accepted every point j accepts.

    Proof that a skipped clip is an identity of :func:`clip_convex`.  i's
    "-" side is clipped by before j's, and later clips only keep vertices or
    add crossings on edges between them, so every vertex of the current
    inside lies in i's "-" side: its value there, fl(c_i - s), is at most a
    few ulps of the clip's scale or, for a vertex i's own clip kept by its
    tolerance, that clip's eps.  Its value under j, fl(c_j - s), is no
    larger by the same monotone rounding, so it stays within j's eps =
    1e-12 * scale: clip j keeps every vertex, emits no crossing, and
    :meth:`ConvexPolygon.from_points` keeps the same vertices.  The one
    vertex this leaves to the tolerance is one i's clip kept off its line by
    more than rounding, once the polygon has shrunk enough to give j a
    smaller eps.  That takes i's line to pass within 1e-12 of the scale of
    a band corner or a crossing of earlier lines without passing through
    it, which no stock plan does (and pool sequences share no normal); the
    tests pin every skip, bit for bit, against the clip by every separator.
    """
    widest = {}
    return [bd for bd in boundaries if _admit(widest, bd)]


@functools.lru_cache(maxsize=256)
def band_rectangles(scenario: ScenarioConfig, guard: float) -> tuple[ConvexPolygon, ConvexPolygon]:
    """The two "-" bands cut to the strip and bounded on the left by the guard.

    Memoised per (scenario, guard): both are immutable values, and the
    versions of a plan share one guard.
    """
    y = scenario.y_lim
    left = rectangle(-guard, -scenario.delta, -y, y)
    sliver = rectangle(0.0, scenario.delta, -y, y)
    return left, sliver


def _clipped_areas(rows, planes: np.ndarray) -> np.ndarray:
    """Area of polygon rows[i][j] on the "+" side of row i of planes, per cell.

    planes holds one "+" half-plane (a, b, c) per row, and rows one row of
    polygons per plane or a single row that every plane shares, which
    :func:`clipped_areas` then takes once, broadcast.  One call per block of
    SCORE_BLOCK planes covers every polygon that is non-empty in some row;
    a polygon empty in every row has area 0.0 unclipped.  A call of at most
    SCALAR_CELLS cells of those polygons scores each by :func:`clipped_area`.

    Proof that no value depends on which cells are computed together.
    :func:`clipped_areas` computes a cell from that polygon's vertices and
    that plane alone: every step is elementwise across polygons and planes,
    and the one reduction, the tolerance's max|x| and max|y|, runs over the
    polygon's own vertices.  :func:`vertex_stack` pads a polygon to the
    stack's width by repeating its last vertex, which changes neither that
    max nor the sum (see :func:`clipped_areas`), and writes an empty polygon
    as zeros, whose area is exactly 0.0, the value it is given unclipped.
    Broadcasting a shared row performs the same operations on the same
    values as repeating it.  :func:`clipped_area`, the kernel's scalar twin,
    agrees with it bit for bit by construction: the same operations on the
    same values in the same order, the kernel's padding repeats adding
    cross(p, p) = 0 exactly.  So a cell's area is the same whatever the
    route, the block, the other polygons and the width, and band areas
    :func:`plus_band_areas` gives are the areas the scorer would compute for
    the same band and half-plane, bit for bit.
    """
    areas = np.zeros((len(planes), len(rows[0])))
    live = [j for j in range(len(rows[0])) if any(not row[j].is_empty for row in rows)]
    if not live:
        return areas
    if len(planes) * len(live) <= SCALAR_CELLS:
        for i, (a, b, c) in enumerate(planes.tolist()):
            row = rows[i if len(rows) > 1 else 0]
            for j in live:
                areas[i, j] = clipped_area(row[j], a, b, c)
        return areas
    x, y = vertex_stack([[row[j] for j in live] for row in rows])
    for start in range(0, len(planes), SCORE_BLOCK):
        block = slice(start, start + SCORE_BLOCK)
        own = block if len(rows) > 1 else slice(None)  # a shared row is broadcast whole
        a, b, c = planes[block].T
        areas[block, live] = clipped_areas(x[..., own], y[..., own], a, b, c).T
    return areas


def plus_band_areas(scenario: ScenarioConfig, guard: float, planes) -> np.ndarray:
    """Area of each :func:`band_rectangles` band on the "+" side of each row of planes.

    planes holds one "+" half-plane (a, b, c) per row, and row i of the
    result its band areas in band order; the bands are taken once and
    broadcast over the rows.  They are the band areas :meth:`Breach.scores`
    would compute for a breach under this guard, bit for bit, as both come
    from :func:`_clipped_areas`.
    """
    planes = np.asarray(planes, dtype=float).reshape(-1, 3)
    return _clipped_areas([band_rectangles(scenario, guard)], planes)


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

    This is the one form of attackable territory: ``priors`` are the breached
    versions' separators, one for a directional score and all of them for
    the ensemble attacker's compound score.  :meth:`within` holds one
    version's own attackable region; it has a NaN guard and cannot grow.
    :meth:`of` cuts the bands under the deepest breached guard,
    which no breached region reaches: the pieces are the bands, ``inside``
    each band cut by every breached "-" side and ``area`` the union, band
    less inside.  Only the :func:`undominated` separators are clipped by, as
    a dominated one's clip leaves inside as it is, and every breach :meth:`of`
    builds keeps ``band_rectangles(scenario, guard)`` as its pieces.  A
    target's score takes at most two clipped areas per band however many
    versions are breached, each from :func:`clipped_areas` or, for a few
    cells, its scalar twin :func:`clipped_area`, neither of which builds a
    clipped polygon: the band's, which :func:`plus_band_areas` gives alone
    for a caller to hold per guard and pass to :meth:`exposed`, and its
    inside polygon's, none once that is empty.
    :meth:`chain` adds an undominated version with one clip per non-empty
    inside polygon and a dominated one with none.  No breach stores which of
    its priors are dominated.
    """

    scenario: ScenarioConfig
    priors: tuple[DecisionBoundary, ...]
    guard: float
    pieces: tuple[ConvexPolygon, ...]
    inside: tuple[ConvexPolygon, ...]
    area: float

    @classmethod
    def of(cls, scenario: ScenarioConfig, priors: list[DecisionBoundary]) -> "Breach":
        if not priors:
            raise DomainError("transferability requires at least one breached version")
        guard = deepest_guard(scenario, priors)
        bands = band_rectangles(scenario, guard)
        clipping = [bd.minus for bd in undominated(priors)]
        inside = tuple(halfplane_intersection(clipping, b) for b in bands)
        return cls._exposing(scenario, tuple(priors), guard, bands, inside)

    @classmethod
    def _exposing(cls, scenario, priors, guard, bands, inside) -> "Breach":
        """The breach whose area is each band less its inside, summed in band order."""
        area = sum(polygon_area(b) - polygon_area(i) for b, i in zip(bands, inside))
        return cls(scenario, priors, guard, bands, inside, area)

    @classmethod
    def within(cls, scenario: ScenarioConfig, boundary: DecisionBoundary) -> "Breach":
        """boundary's attackable region, nothing inside: it scores directional transferability.

        The pieces are each band, cut under boundary's own guard, on its "+"
        side, and the area is theirs.  Its one prior is boundary; it has no
        guard (NaN), and it cannot grow.  An invalid separator raises
        :class:`GeometryError` (see :func:`guard_extent`).
        """
        bands = band_rectangles(scenario, deepest_guard(scenario, [boundary]))
        pieces = tuple(halfplane_intersection([boundary.plus], band) for band in bands)
        empty = (ConvexPolygon.empty(),) * len(pieces)
        area = sum(polygon_area(p) for p in pieces)
        return cls(scenario, (boundary,), math.nan, pieces, empty, area)

    def chain(self, sequence) -> list["Breach"]:
        """This breach, then it extended by each separator of sequence in turn.

        Each equals :meth:`of` its breached separators, bit for bit.  One
        :func:`guard_extent` call covers the whole sequence.  A separator
        whose guard is deeper than every breached one rebuilds the breach by
        :meth:`of`; else one that an earlier separator dominates (see
        :func:`undominated`) is carried over with no clip, and any other
        costs one clip per inside polygon not yet empty (an empty one stays
        empty).  The dominance record is built from ``priors`` once per call
        and updated as each separator is added.
        """
        if math.isnan(self.guard):
            raise DomainError("a breach of one region's own pieces cannot grow")
        widest = {}
        for bd in self.priors:
            _admit(widest, bd)
        out = [self]
        for boundary, guard in zip(sequence, guard_extent(self.scenario, *planes_of(sequence).T)):
            last = out[-1]
            priors = (*last.priors, boundary)
            admitted = _admit(widest, boundary)
            if guard > last.guard:
                out.append(Breach.of(self.scenario, priors))
            elif not admitted:
                out.append(replace(last, priors=priors))
            else:
                inside = tuple(i if i.is_empty else clip_convex(i, boundary.minus)
                               for i in last.inside)
                out.append(Breach._exposing(self.scenario, priors, last.guard, last.pieces, inside))
        return out

    def extend(self, boundary: DecisionBoundary) -> "Breach":
        """:meth:`of` the breached separators and one more: the last of :meth:`chain`."""
        return self.chain([boundary])[-1]

    def score(self, target: DecisionBoundary) -> TransferabilityScore:
        """Share of the breached territory that target classifies "+"."""
        return TransferabilityScore(float(self.scores(planes_of([target]))[0]))

    def scores(self, planes: np.ndarray) -> np.ndarray:
        """:meth:`score` of every target, given as one "+" half-plane (a, b, c) per row.

        NaN throughout when the breached area is zero, as the ratio is then
        undefined.  An invalid target raises :class:`GeometryError`.  See
        :func:`paired_scores`, which shares the body.
        """
        return _score_rows([self], planes)

    def exposed(self, planes: np.ndarray, band_areas) -> np.ndarray:
        """Area of this breach on each target's "+" side: the numerator of :meth:`scores`.

        Targets are one "+" half-plane (a, b, c) per row, and band_areas
        their :func:`plus_band_areas` under this breach's guard, so only the
        inside polygons are clipped: bit for bit the numerators it divides,
        whatever other rows are given (see :func:`_exposed`).  Targets are
        not checked: the caller has passed them through
        :func:`guard_extent`, as :meth:`scores` does.
        """
        return _exposed([self], planes, band_areas)


def paired_scores(breaches, planes) -> np.ndarray:
    """Row i of planes, one "+" half-plane (a, b, c) per row, scored against breaches[i].

    Each row gets what ``breaches[i].scores`` gives it alone, bit for bit,
    NaN included.  Every breach is of one scenario.
    """
    if len(breaches) != len(planes):
        raise DomainError(f"{len(planes)} target rows for {len(breaches)} breaches")
    return _score_rows(breaches, planes)


def _score_rows(breaches, planes) -> np.ndarray:
    """Row i of planes scored against breaches[i], or against the one breach given.

    Each row scores its :func:`_exposed` area over its breach's area (see
    :func:`shares`).  An invalid target raises :class:`GeometryError`.
    """
    scenarios = {b.scenario for b in breaches}
    if len(scenarios) > 1:
        raise DomainError("breaches built under different scenarios")
    planes = np.asarray(planes, dtype=float).reshape(-1, 3)
    if not len(planes):
        return np.zeros(0)
    guard_extent(scenarios.pop(), *planes.T)
    return shares(_exposed(breaches, planes), np.array([b.area for b in breaches]))


def _exposed(breaches, planes: np.ndarray, band_areas=None) -> np.ndarray:
    """Area of each row's breach on the row's "+" side, the numerator of its score.

    Each row takes area(band n plus) - area(inside n plus) per band, summed
    in band order.  :func:`_clipped_areas` gives each row's areas of its
    breach's polygons: the bands and inside polygons, or only the inside
    polygons when band_areas holds each row's band areas.  One breach's
    polygons are taken once and broadcast over the rows, several breaches'
    one row each.  Its proof shows that no value depends on which cells are
    computed together, so each row's sum of band - inside runs over the
    same values in the same order either way, and whichever other rows are
    given.  The rows are not checked (see :func:`guard_extent`).
    """
    bands = len(breaches[0].pieces)
    polys = [(*b.pieces, *b.inside) if band_areas is None else b.inside for b in breaches]
    clipped = _clipped_areas(polys, planes)
    plus = clipped if band_areas is None else np.asarray(band_areas, dtype=float)
    numer = np.zeros(len(planes))
    for band in range(bands):  # the inside polygons' areas are clipped's last columns
        numer += plus[:, band] - clipped[:, band - bands]
    return numer


def shares(exposed, area) -> np.ndarray:
    """exposed / area per row, each row's area its breach's: the transferability ratios.

    A row is NaN when its area is zero, as the ratio is then undefined.  A
    ratio outside [0, 1] by more than 1e-9 raises :class:`GeometryError`;
    the rest are clipped to [0, 1].
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(area == 0.0, np.nan, exposed / area)
    bad = (values < -1e-9) | (values > 1.0 + 1e-9)
    if bad.any():
        raise GeometryError(f"transferability ratio {float(values[bad][0])} outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def build_attackable_region(scenario: ScenarioConfig, boundary: DecisionBoundary) -> Breach:
    """:meth:`Breach.within` boundary: the one-version breach the region-taking functions take."""
    return Breach.within(scenario, boundary)


def _separators(regions: list[Breach]) -> tuple[ScenarioConfig, list[DecisionBoundary]]:
    """The one scenario every region was built under, and each region's separator."""
    if len({r.scenario for r in regions}) > 1:
        raise DomainError("regions built under different scenarios")
    if any(len(r.priors) != 1 for r in regions):
        raise DomainError("a region is the breach of one version")
    return regions[0].scenario, [r.priors[0] for r in regions]


def compound_transferability(priors: list[Breach], target: Breach) -> TransferabilityScore:
    """S(target n union of priors) / S(union of priors), exactly, of one-version regions."""
    scenario, separators = _separators([*priors, target])
    return Breach.of(scenario, separators[:-1]).score(separators[-1])


def union_area(priors: list[Breach]) -> float:
    """Exact area of the union of one-version regions."""
    return Breach.of(*_separators(priors)).area if priors else 0.0


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


def mc_left_cut(scenario: ScenarioConfig, priors: list[DecisionBoundary], guard: float) -> float:
    """Abscissa left of which :func:`mc_counts` draws no point.

    ``priors`` are valid separators (see :func:`guard_extent`), so each has
    a < 0, and ``guard`` is the sampling box's depth.  Points left of the
    cut would all be rejected, so only their count is drawn; see
    :func:`mc_counts` for the proof.
    """
    return -float(strip_reach(scenario, *planes_of(priors).T).max()) - 1e-9 * guard


def mc_counts(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    planes,
    cfg: AttackSampleConfig,
    block_start: int,
    block_stop: int,
) -> tuple[int, np.ndarray]:
    """(accepted, hits per target) over a contiguous range of sampling blocks.

    The priors are the breached separators and the targets one "+"
    half-plane (a, b, c) per row, as :class:`Breach` takes them; an invalid
    one raises :class:`GeometryError`.  n_samples counts uniform points over
    the box cut on the left by the priors' :func:`deepest_guard`, as are
    :meth:`Breach.of`'s bands, which no prior region reaches, so the box
    holds the whole breached territory whatever the targets.  Block j holds
    min(MC_BLOCK, the rest) of them and draws from a Philox stream keyed
    (seed, j); it tests each point against the :func:`undominated` priors
    only, which accept exactly the points every prior would, and every row
    counts hits on the same accepted points.  Any partition of the block
    range across workers merges to exactly the counts of a single
    sequential pass.

    Points left of one cut, :func:`mc_left_cut`, would all be rejected, so
    only their count is drawn.  A block's m points split into a fixed
    m_sliver = round(m*p_sliver) in the band {0 <= x < delta} and m -
    m_sliver in the left band [-guard, -delta].  Of the latter, the number
    at or right of the cut is Binomial(m - m_sliver, q), q = (-delta -
    cut) / (guard - delta) or 0 when the cut lies right of the band, and
    given that number they are uniform on [cut, -delta].  So the stream
    draws that number k, then m_sliver + k uniform pairs: the counts have
    the distribution of testing every point of the box.  The seeded digits
    depend on numpy's ``Generator.binomial`` as well as
    ``Generator.random``.

    Proof that the skipped points are rejected.  A valid prior's "+" side has
    a < 0 and holds no point of the strip left of -reach, reach = (|c| +
    |b|*y_lim) / -a, its :func:`strip_reach`.  The cut is -max(reach) -
    1e-9*guard.  For x < cut and |y| <= y_lim, the exact a*x + b*y - c
    exceeds -a*1e-9*guard, less a few ulps of reach from rounding the cut.
    As |x| <= guard and reach < guard, the rounding error of the computed
    value is at most about 3u*(-a*guard + |b|*y_lim + |c|) <= 6u*(-a)*guard,
    u = 2**-53, far below that margin.  So the computed value is strictly
    positive and the point is rejected in floating point too.  The margin is
    needed: a clipped region vertex can lie a few ulps left of the bare
    -reach.
    """
    if not priors:
        raise DomainError("Monte Carlo transferability requires at least one prior")
    a, b, c = np.asarray(planes, dtype=float).reshape(-1, 3).T
    guard_extent(scenario, a, b, c)
    guard = deepest_guard(scenario, priors)
    d, y = scenario.delta, scenario.y_lim
    p_sliver = d * 2.0 * y / ((guard - d) * 2.0 * y + d * 2.0 * y)
    cut = mc_left_cut(scenario, priors, guard)
    q = max(0.0, (-d - cut) / (guard - d))
    tested = undominated(priors)

    accepted = 0
    hits = np.zeros(len(a), dtype=np.int64)
    for j in range(block_start, block_stop):
        m = min(MC_BLOCK, cfg.n_samples - j * MC_BLOCK)
        if m <= 0:
            break
        rng = philox(cfg.seed, j)
        m_sliver = int(round(m * p_sliver))
        k = int(rng.binomial(m - m_sliver, q))
        u = rng.random((m_sliver + k, 2))
        x = np.concatenate([u[:m_sliver, 0] * d, cut + u[m_sliver:, 0] * (-d - cut)])
        yv = -y + u[:, 1] * (2.0 * y)
        # the ensemble attacker's territory, OR-ed in place so no per-prior mask is kept
        mask = tested[0].signed_value(x, yv) >= 0.0
        for bd in tested[1:]:
            mask |= bd.signed_value(x, yv) >= 0.0
        xs, ys = x[mask], yv[mask]
        accepted += len(xs)
        # signed_value's a*x + b*y - c, at most MC_BLOCK entries at a time
        step = MC_BLOCK // max(1, len(xs))
        for start in range(0, len(a), step):
            r = slice(start, start + step)
            hits[r] += (a[r, None] * xs + b[r, None] * ys - c[r, None] <= 0.0).sum(axis=1)
    return accepted, hits


def mc_block_counts(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    target: DecisionBoundary,
    cfg: AttackSampleConfig,
    block_start: int,
    block_stop: int,
) -> tuple[int, int]:
    """(accepted, hits) of one target: :func:`mc_counts` of a single row."""
    accepted, hits = mc_counts(scenario, priors, planes_of([target]), cfg, block_start, block_stop)
    return accepted, int(hits[0])


def mc_scores(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    planes,
    cfg: AttackSampleConfig,
) -> tuple[np.ndarray, int]:
    """(value per target row, accepted) over the whole sampling budget, from one stream.

    Each value is the target's share of the accepted points.  The rows share
    one accepted count, so the values are NaN, all of them, when that count
    is below the acceptance floor, max(1, 1e-6 * n_samples).
    """
    if cfg.n_samples < 1:
        raise DomainError("Monte Carlo transferability requires n_samples >= 1")
    accepted, hits = mc_counts(scenario, priors, planes, cfg, 0, -(-cfg.n_samples // MC_BLOCK))
    if accepted < max(1.0, _MIN_ACCEPTANCE * cfg.n_samples):
        return np.full(len(hits), np.nan), accepted
    return hits / accepted, accepted


def mc_transferability(
    scenario: ScenarioConfig,
    priors: list[DecisionBoundary],
    target: DecisionBoundary,
    cfg: AttackSampleConfig,
) -> MonteCarloEstimate:
    """Sampled transferability with a 95% binomial interval half-width.

    Uniform points over the two "-" bands (stratified proportionally to band
    area) are kept when inside at least one prior region, the ensemble
    attacker's territory.  Points left of :func:`mc_left_cut` would all be
    rejected, so only their count is drawn (see :func:`mc_counts`);
    ``accepted`` still counts the kept points among n_samples over the whole
    box.  The estimate is the kept fraction the target classifies "+":
    :func:`mc_scores` of a single row, which raises
    :class:`UndefinedEstimateError` where that row is NaN.  The sampled box
    depends on the priors alone, so every target scored against the same
    priors and cfg sees the same accepted points.
    """
    (value,), accepted = mc_scores(scenario, priors, planes_of([target]), cfg)
    if math.isnan(value):
        raise UndefinedEstimateError(
            f"only {accepted} of {cfg.n_samples} samples satisfied the attacker mode"
        )
    value = float(value)
    half_width = 1.96 * math.sqrt(value * (1.0 - value) / accepted)
    return MonteCarloEstimate(value, half_width, accepted)
