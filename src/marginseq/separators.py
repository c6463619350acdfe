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
    take the line as y = k*x + b or x = x0 and orient it by containment of
    the "+" centroid (c, 0), never independently.  The coefficients are the
    line's own scaled by +-1 only, so k, b and x0 read back bit for bit.
    """

    plus: HalfPlane

    @classmethod
    def sloped(cls, k: float, b: float, scenario: ScenarioConfig) -> "DecisionBoundary":
        if not (math.isfinite(k) and math.isfinite(b)):
            raise DomainError("slope and intercept must be finite")
        if k == 0.0:
            raise DomainError("sloped boundary requires k != 0")
        residual = -k * scenario.c - b
        if residual == 0.0:
            raise DomainError("boundary passes through the '+' centroid")
        ps = math.copysign(1.0, residual)
        return cls(HalfPlane(ps * k, -ps, -ps * b))

    @classmethod
    def vertical(cls, x0: float, scenario: ScenarioConfig) -> "DecisionBoundary":
        if not math.isfinite(x0):
            raise DomainError("crossing abscissa must be finite")
        if x0 == scenario.c:
            raise DomainError("boundary passes through the '+' centroid")
        ps = math.copysign(1.0, scenario.c - x0)
        return cls(HalfPlane(-ps, 0.0, -ps * x0))

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
    """Check h lies in the determining band and outside both training disks."""
    c, y_lim = scenario.c, scenario.y_lim
    if not abs(h.v) < c - 1.0:
        raise DomainError(f"v={h.v} outside |v| < c-1 = {c - 1.0}")
    if not abs(h.w) <= y_lim:
        raise DomainError(f"w={h.w} outside |w| <= y_lim = {y_lim}")
    if (h.v - c) ** 2 + h.w**2 <= 1.0:
        raise DomainError("hidden point inside the '+' training disk has no effect")
    if (h.v + c) ** 2 + h.w**2 <= 1.0:
        raise DomainError("hidden point inside the '-' training disk is contradictory")


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
        boundary = DecisionBoundary.sloped(k_face, b, scenario)
        return boundary, BoundaryDerivation(tag, tl, (Point2(foot_x, foot_y), r))

    # Vertex case: h itself is the closest hull point; bisect from the point
    # where the segment (-c,0) -> h exits the "-" disk.
    length = math.hypot(c + v, w)
    k = -(c + v) / w
    b = (-c * c + v * v + w * w + length) / (2.0 * w)
    r = Point2((c + v) / length - c, w / length)
    tag = CASE_W_POS_DIRECT if w > 0.0 else CASE_W_NEG_DIRECT
    boundary = DecisionBoundary.sloped(k, b, scenario)
    return boundary, BoundaryDerivation(tag, tl, (Point2(v, w), r))


def oracle_boundary(
    scenario: ScenarioConfig, h: HiddenPoint, resolution: int = 100_000
) -> DecisionBoundary:
    """Separator found by numeric search, independent of the slope algebra.

    Scans ``resolution`` circle points to bracket where the "+" disk stops
    being visible from h, refines both hinge angles by bisection, and then
    minimizes the distance from (-c, 0) to the hull boundary exactly over
    the two bridge segments and the vertex h.  (The retained arc never holds
    the minimum: its closest-to-(-c,0) end is a hinge, already an endpoint
    of a bridge segment.)  The minimizing connection is then bisected.
    """
    validate_hidden_point(scenario, h)
    if resolution < 16:
        raise DomainError("resolution too small to bracket the hull hinges")
    c = scenario.c
    v, w = h.v, h.w
    o1 = np.array([c, 0.0])
    o2 = np.array([-c, 0.0])
    hp = np.array([v, w])

    # Visibility of circle point at angle t from h: g(t) > 0.
    def g(t):
        return np.cos(t) * (v - c) + np.sin(t) * w - 1.0

    theta = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    vis = g(theta) > 0.0
    flips = np.nonzero(vis != np.roll(vis, -1))[0]
    if len(flips) != 2:
        raise GeometryError("expected exactly two visibility transitions on the disk")

    hinges = []
    for i in flips:
        lo, hi = theta[i], theta[i] + (2.0 * math.pi / resolution)
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

    candidates = [hp] + [seg_closest(hp, hinge, o2) for hinge in hinges]
    best = min(candidates, key=lambda z: float(np.hypot(*(z - o2))))
    dist = float(np.hypot(*(best - o2)))
    r = o2 + (best - o2) / dist
    mid = 0.5 * (r + best)
    dx, dy = best[0] - r[0], best[1] - r[1]
    if abs(dy) <= 1e-12 * math.hypot(dx, dy):
        return DecisionBoundary.vertical(float(mid[0]), scenario)
    k = -dx / dy
    return DecisionBoundary.sloped(k, float(mid[1] - k * mid[0]), scenario)
