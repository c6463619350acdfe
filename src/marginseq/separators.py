"""Max-margin separator induced by two unit training disks plus one hidden point.

The training geometry is fixed by a :class:`ScenarioConfig`: class "+" data
fills the unit disk centered at (c, 0), class "-" data fills the unit disk at
(-c, 0), and the whole space is the strip |y| <= y_lim.  Adding a single
hidden point h = (v, w) to the "+" class deforms its convex hull into a cone
over the disk, and the trained hard-margin separator is the perpendicular
bisector of the shortest connection between the "-" disk and that cone.

Within the band |v| < c - 1, |w| <= y_lim the point h determines the
separator completely, and the bisector admits a closed form with five cases:

* w = 0: the connection is axial and the separator is vertical,
  x = (-c + v + 1) / 2.
* w != 0, foot case ("tangent" branch): the perpendicular foot from (-c, 0)
  onto the hull face through h (the tangent segment with slope k1 for w < 0,
  k2 for w > 0) lands on that face, so the face is the closest feature and
  the separator is parallel to it.
* w != 0, vertex case ("direct" branch): the foot misses the face, h itself
  is the closest hull point, and the separator bisects the segment from the
  "-" disk surface to h, giving slope -(c + v)/w.

:func:`oracle_boundary` recomputes the same separator by direct numeric
minimization over the hull boundary and is kept deliberately free of the
slope algebra above, so the two routes check each other.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import HalfPlane, Point2, TangentLines, tangents_to_unit_circle

# |w| below this threshold snaps to the vertical-separator case; the two
# sloped branches converge there, so it only resolves floating-point ties.
W_ZERO_TOL = 1e-12

# Ties in the foot-on-face test resolve toward the tangent branch; both
# branches emit the same line at the tie, so this is a labeling choice.

# Circle points the oracle scans to bracket the hull hinges.
ORACLE_RESOLUTION = 100_000
# The oracle's coarse scan takes every ORACLE_STRIDE-th of them (see _visibility_flips).
ORACLE_STRIDE = 64

CASE_W_ZERO = "w_zero"
CASE_W_POS_TANGENT = "w_pos_tangent"
CASE_W_POS_DIRECT = "w_pos_direct"
CASE_W_NEG_TANGENT = "w_neg_tangent"
CASE_W_NEG_DIRECT = "w_neg_direct"

LABEL_PLUS = "+"
LABEL_MINUS = "-"


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """World geometry: cluster half-separation c, task margin delta, strip bound y_lim."""

    c: float
    delta: float
    y_lim: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in (self.c, self.delta, self.y_lim)):
            raise DomainError("scenario parameters must be finite")
        if self.c <= 1.0:
            raise DomainError(f"c={self.c} must exceed 1 (unit training disks)")
        if self.delta <= 0.0:
            raise DomainError(f"delta={self.delta} must be positive")
        if self.delta >= self.c / 10.0:
            raise DomainError(f"delta={self.delta} must be well below c (delta < c/10)")
        if self.y_lim <= 0.0:
            raise DomainError(f"y_lim={self.y_lim} must be positive")


@dataclass(frozen=True, slots=True)
class HiddenPoint:
    """Hidden feature point h = (v, w) parameterizing one model version."""

    v: float
    w: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.w)):
            raise DomainError("hidden point coordinates must be finite")

    def mirrored(self) -> "HiddenPoint":
        return HiddenPoint(self.v, -self.w)


@dataclass(frozen=True, slots=True)
class DecisionBoundary:
    """Linear separator held as its closed "+" half-plane.

    A point classifies "+" exactly when it lies in ``plus``.  The constructors
    take the line as y = k*x + b or x = x0, or as the edge of any half-plane,
    and orient it by containment of the "+" centroid (c, 0), never
    independently.  The coefficients are the line's own scaled by +-1 only,
    so k, b and x0 read back bit for bit.
    """

    plus: HalfPlane

    @classmethod
    def sloped(cls, k: float, b: float, scenario: ScenarioConfig) -> "DecisionBoundary":
        if not (math.isfinite(k) and math.isfinite(b)):
            raise DomainError("slope and intercept must be finite")
        if k == 0.0:
            raise DomainError("sloped boundary requires k != 0")
        return cls.through(HalfPlane(k, -1.0, -b), scenario)

    @classmethod
    def vertical(cls, x0: float, scenario: ScenarioConfig) -> "DecisionBoundary":
        if not math.isfinite(x0):
            raise DomainError("crossing abscissa must be finite")
        return cls.through(HalfPlane(-1.0, 0.0, -x0), scenario)

    @classmethod
    def through(cls, line: HalfPlane, scenario: ScenarioConfig) -> "DecisionBoundary":
        """Separator on the edge of ``line``, its "+" side the one holding (c, 0)."""
        side = line.value((scenario.c, 0.0))
        if side == 0.0:
            raise DomainError("boundary passes through the '+' centroid")
        return cls(line if side < 0.0 else HalfPlane(-line.a, -line.b, -line.c))

    @property
    def kind(self) -> str:
        return "vertical" if self.plus.b == 0.0 else "sloped"

    @property
    def k(self) -> float | None:
        return None if self.plus.b == 0.0 else -self.plus.a / self.plus.b

    @property
    def b(self) -> float | None:
        return None if self.plus.b == 0.0 else self.plus.c / self.plus.b

    @property
    def x0(self) -> float | None:
        return self.plus.c / self.plus.a if self.plus.b == 0.0 else None

    @property
    def minus(self) -> HalfPlane:
        """The closed "-" side, sharing the boundary line with ``plus``."""
        return HalfPlane(-self.plus.a, -self.plus.b, -self.plus.c)

    def signed_value(self, x, y):
        """Positive on the "+" side; works on scalars and numpy arrays."""
        return -self.plus.value((x, y))

    def mirrored(self) -> "DecisionBoundary":
        """Reflection across the x-axis, preserving the "+" orientation."""
        return DecisionBoundary(HalfPlane(self.plus.a, -self.plus.b, self.plus.c))


@dataclass(frozen=True, slots=True)
class BoundaryDerivation:
    """Trace of the closed-form case split.

    ``support_segment`` is (q, r): q on the "+" hull, r on the "-" disk
    surface, the shortest connection the boundary bisects perpendicularly.
    """

    case_tag: str
    tangents: TangentLines
    support_segment: tuple[Point2, Point2]


def classify(boundary: DecisionBoundary, p: Point2) -> str:
    """Label of a point; boundary points themselves count as "+"."""
    return LABEL_PLUS if boundary.signed_value(p[0], p[1]) >= 0.0 else LABEL_MINUS


def validate_hidden_point(scenario: ScenarioConfig, h: HiddenPoint) -> None:
    """Check h lies in the determining band, which keeps it outside both training disks.

    |v| < c - 1 puts h more than 1 from both centroids (+-c, 0).  For c > 2 so
    do floats: v - c is exact for v >= c/2 (Sterbenz), else at most -c/2 < -1,
    so fl(v - c) < -1, likewise fl(v + c) > 1, and math.hypot, under an ulp
    off, exceeds 1.  For c <= 2 a point under an ulp outside a disk can compute
    at distance 1.0: next to the "+" disk :func:`tangents_to_unit_circle`
    refuses it, and next to the "-" disk it trains a near-zero-margin separator.
    """
    c, y_lim = scenario.c, scenario.y_lim
    if not abs(h.v) < c - 1.0:
        raise DomainError(f"v={h.v} outside |v| < c-1 = {c - 1.0}")
    if not abs(h.w) <= y_lim:
        raise DomainError(f"w={h.w} outside |w| <= y_lim = {y_lim}")


def boundary_from_hidden(
    scenario: ScenarioConfig, h: HiddenPoint
) -> tuple[DecisionBoundary, BoundaryDerivation]:
    """Closed-form separator for the training disks plus hidden point h."""
    validate_hidden_point(scenario, h)
    c = scenario.c
    v, w = h.v, h.w
    tl = tangents_to_unit_circle(Point2(c, 0.0), Point2(v, w))

    if abs(w) < W_ZERO_TOL:
        x0 = (-c + v + 1.0) / 2.0
        boundary = DecisionBoundary.vertical(x0, scenario)
        seg = (Point2(v, w), Point2(1.0 - c, 0.0))
        return boundary, BoundaryDerivation(CASE_W_ZERO, tl, seg)

    # The hull face that can occlude h from (-c, 0) carries the lower tangent
    # slope k2 when h sits above the axis, the upper slope k1 below it.
    k_face = tl.k2 if w > 0.0 else tl.k1
    s_face = math.sqrt(k_face * k_face + 1.0)
    foot_x = (k_face * k_face * v - k_face * w - c) / (k_face * k_face + 1.0)

    if foot_x >= v:
        # Foot case: the perpendicular from (-c, 0) lands on the face, so the
        # separator is the midline between the face and the parallel disk
        # tangent (its intercept is 0 up to rounding, by symmetry).
        foot_y = (-k_face * c - k_face * v + w) / (k_face * k_face + 1.0)
        if w > 0.0:
            b = (-k_face * c + k_face * v - w - s_face) / 2.0
            r = Point2(-k_face / s_face - c, 1.0 / s_face)
            tag = CASE_W_POS_TANGENT
        else:
            b = (k_face * c - k_face * v + w - s_face) / 2.0
            r = Point2(k_face / s_face - c, -1.0 / s_face)
            tag = CASE_W_NEG_TANGENT
        boundary = _sloped_from(scenario, h, k_face, b)
        return boundary, BoundaryDerivation(tag, tl, (Point2(foot_x, foot_y), r))

    # Vertex case: h itself is the closest hull point; bisect from the point
    # where the segment (-c,0) -> h exits the "-" disk.
    length = math.hypot(c + v, w)
    k = -(c + v) / w
    b = (-c * c + v * v + w * w + length) / (2.0 * w)
    r = Point2((c + v) / length - c, w / length)
    tag = CASE_W_POS_DIRECT if w > 0.0 else CASE_W_NEG_DIRECT
    boundary = _sloped_from(scenario, h, k, b)
    return boundary, BoundaryDerivation(tag, tl, (Point2(v, w), r))


def _overflow(scenario: ScenarioConfig, h: HiddenPoint) -> DomainError:
    return DomainError(f"separator of hidden point ({h.v}, {h.w}) overflows under scenario "
                       f"c={scenario.c}, y_lim={scenario.y_lim}")


def _sloped_from(scenario: ScenarioConfig, h: HiddenPoint, k: float, b: float) -> DecisionBoundary:
    """The separator y = k*x + b derived from h; NaN or inf there means overflow."""
    if not (math.isfinite(k) and math.isfinite(b)):
        raise _overflow(scenario, h)
    return DecisionBoundary.sloped(k, b, scenario)


@functools.cache
def _scan_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's scan angles with their cosines and sines, built on first use."""
    theta = np.linspace(0.0, 2.0 * math.pi, ORACLE_RESOLUTION, endpoint=False)
    return theta, np.cos(theta), np.sin(theta)


def _visibility_flips(c: float, v: float, w: float) -> np.ndarray:
    """Scan indices i, ascending, where visibility from (v, w) differs at i and i + 1, cyclically.

    A point at angle t on the "+" disk is visible when g(t) = cos(t)*(v -
    c) + sin(t)*w - 1 > 0, each value from its scan-table entry with the
    same roundings.  g is a sinusoid less 1, so the visible angles are one
    arc, bounded by two flips.  A coarse scan of every ORACLE_STRIDE-th
    angle finds the coarse cells where visibility flips; when there are two,
    only the cells each side of each one are scanned at full resolution,
    which gives the full scan's flips whenever rounding flips g's sign only
    near its two zeros.  Any other count, of coarse flips or of the flips
    the windows find (an arc narrower than one coarse cell, or rounding
    wider than one), scans every angle.
    """
    _, cos_t, sin_t = _scan_table()
    n, m = len(cos_t), -(-len(cos_t) // ORACLE_STRIDE)  # coarse angle k is k * ORACLE_STRIDE

    def visible(idx):
        scan = cos_t[idx] * (v - c)
        scan += sin_t[idx] * w
        scan -= 1.0
        return scan > 0.0

    def cyclic_flips(every):  # a slice of the table, its last angle followed by its first
        vis = visible(every)
        return np.flatnonzero(vis != np.roll(vis, -1))

    coarse = cyclic_flips(slice(None, None, ORACLE_STRIDE))
    if len(coarse) == 2:
        found = set()
        for k in coarse:  # coarse cells k - 1, k and k + 1
            start, stop = ((k - 1) % m) * ORACLE_STRIDE, ((k + 2) % m) * ORACLE_STRIDE
            idx = (start + np.arange((stop - start) % n + 1)) % n
            vis = visible(idx)
            found.update(idx[:-1][vis[:-1] != vis[1:]].tolist())
        if len(found) == 2:
            return np.array(sorted(found), dtype=np.intp)
    return cyclic_flips(slice(None))


def oracle_boundary(scenario: ScenarioConfig, h: HiddenPoint) -> DecisionBoundary:
    """Separator found by numeric search, independent of the slope algebra.

    Scans ORACLE_RESOLUTION circle points (see :func:`_visibility_flips`) to
    bracket where the "+" disk stops being visible from h, refines both
    hinge angles by bisection, and then minimizes the distance from (-c, 0)
    to the hull boundary exactly over the two bridge segments and the
    vertex h.  (The retained arc never holds the minimum: its
    closest-to-(-c,0) end is a hinge, already an endpoint of a bridge
    segment.)  The minimizing connection is then bisected.
    """
    validate_hidden_point(scenario, h)
    c = scenario.c
    v, w = h.v, h.w
    o1 = np.array([c, 0.0])
    o2 = np.array([-c, 0.0])
    hp = np.array([v, w])

    # Visibility of circle point at angle t from h: g(t) > 0.
    def g(t):
        return math.cos(t) * (v - c) + math.sin(t) * w - 1.0

    theta = _scan_table()[0]
    flips = _visibility_flips(c, v, w)
    if len(flips) != 2:
        raise GeometryError("expected exactly two visibility transitions on the disk")

    hinges = []
    for i in flips:
        lo, hi = theta[i], theta[i] + (2.0 * math.pi / ORACLE_RESOLUTION)
        glo = g(lo)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if (g(mid) > 0.0) == (glo > 0.0):
                lo = mid
                glo = g(lo)
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        hinges.append(o1 + np.array([math.cos(t), math.sin(t)]))

    def seg_closest(a, b, p):
        ab = b - a
        t = float(np.dot(p - a, ab) / np.dot(ab, ab))
        return a + min(1.0, max(0.0, t)) * ab

    try:
        with np.errstate(over="raise", invalid="raise"):
            candidates = [hp] + [seg_closest(hp, hinge, o2) for hinge in hinges]
            best = min(candidates, key=lambda z: float(np.hypot(*(z - o2))))
            dist = float(np.hypot(*(best - o2)))
            r = o2 + (best - o2) / dist
            # perpendicular bisector of the connection r -> best
            normal = best - r
            offset = float(np.dot(normal, 0.5 * (r + best)))
    except FloatingPointError:
        raise _overflow(scenario, h) from None
    return DecisionBoundary.through(HalfPlane(float(normal[0]), float(normal[1]), offset), scenario)
