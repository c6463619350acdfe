"""Exact 2D primitives: half-planes, convex polygons, clipping, tangents.

Everything downstream (attackable regions, transferability ratios, plan
verification) reduces to intersecting convex polygons with half-planes and
taking shoelace areas, so these few operations carry the whole exactness
story.  All types are immutable values and all functions are pure.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateTangentError, DomainError, VerticalTangentError

# Vertices closer than this (absolute, in scenario units) are merged; the
# scenario scale is O(100), so double precision leaves ample headroom.
MERGE_TOL = 1e-12

# A turn is treated as collinear when |cross| <= COLLINEAR_REL * |u| * |v|.
COLLINEAR_REL = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class TangentLines(NamedTuple):
    """Slopes and intercepts of the two tangents from a point to a unit circle.

    k1 is the upper (larger) slope, k2 the lower; k1 >= k2 always, with
    equality only in the degenerate on-circle case, which raises instead.
    """

    k1: float
    k2: float
    b1: float
    b2: float


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """Closed half-plane {(x, y) : a*x + b*y <= c}."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise DomainError("half-plane normal must be nonzero")
        if not all(math.isfinite(t) for t in (self.a, self.b, self.c)):
            raise DomainError("half-plane coefficients must be finite")

    def value(self, p: Point2) -> float:
        """Signed constraint value; <= 0 means inside."""
        return self.a * p[0] + self.b * p[1] - self.c


@dataclass(frozen=True, slots=True)
class ConvexPolygon:
    """Convex polygon as a counter-clockwise vertex tuple; may be empty.

    Construct through :meth:`from_points`, which merges near-duplicate
    vertices, drops collinear ones, normalizes orientation and collapses
    anything that degenerates below three vertices to the empty polygon.
    """

    vertices: tuple[Point2, ...]

    @classmethod
    def empty(cls) -> "ConvexPolygon":
        return cls(())

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "ConvexPolygon":
        verts = _cleaned(points)
        if _signed_area(verts) < 0.0:
            verts.reverse()
        return cls._checked(verts)

    @classmethod
    def _checked(cls, verts: list[Point2]) -> "ConvexPolygon":
        """The polygon of cleaned, counter-clockwise verts: empty below three, else convex."""
        if len(verts) < 3:
            return cls.empty()
        poly = cls(tuple(verts))
        if not poly._is_convex():
            raise DomainError("vertices do not describe a convex polygon")
        return poly

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def _is_convex(self) -> bool:
        n = len(self.vertices)
        for i in range(n):
            a, b, c = self.vertices[i], self.vertices[(i + 1) % n], self.vertices[(i + 2) % n]
            ux, uy = b.x - a.x, b.y - a.y
            vx, vy = c.x - b.x, c.y - b.y
            cross = ux * vy - uy * vx
            if cross < -COLLINEAR_REL * math.hypot(ux, uy) * math.hypot(vx, vy):
                return False
        return True


def _cleaned(points: Iterable[Sequence[float]]) -> list[Point2]:
    """points as finite Point2s, near-duplicates merged and collinear ones dropped."""
    verts = [Point2(float(p[0]), float(p[1])) for p in points]
    for p in verts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise DomainError("polygon vertices must be finite")
    return _drop_collinear(_merge_close(verts))


def _merge_close(verts: list[Point2]) -> list[Point2]:
    if not verts:
        return []
    out = [verts[0]]
    for p in verts[1:]:
        q = out[-1]
        if math.hypot(p.x - q.x, p.y - q.y) > MERGE_TOL:
            out.append(p)
    while len(out) > 1 and math.hypot(out[-1].x - out[0].x, out[-1].y - out[0].y) <= MERGE_TOL:
        out.pop()
    return out


def _drop_collinear(verts: list[Point2]) -> list[Point2]:
    n = len(verts)
    if n < 3:
        return verts
    out = []
    for i in range(n):
        a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
        ux, uy = b.x - a.x, b.y - a.y
        vx, vy = c.x - b.x, c.y - b.y
        cross = ux * vy - uy * vx
        if abs(cross) > COLLINEAR_REL * math.hypot(ux, uy) * math.hypot(vx, vy):
            out.append(b)
    return out


def _signed_area(verts: Sequence[Point2]) -> float:
    acc = 0.0
    for (px, py), (qx, qy) in zip(verts, _turned(verts)):
        acc += px * qy - qx * py
    return acc / 2.0


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area of a convex polygon; 0.0 for the empty polygon."""
    if poly.is_empty:
        return 0.0
    return abs(_signed_area(poly.vertices))


def clip_convex(poly: ConvexPolygon, half: HalfPlane) -> ConvexPolygon:
    """Intersect a convex polygon with one closed half-plane.

    Sutherland-Hodgman restricted to convex input, so the output stays
    convex.  Vertices within rounding distance of the clip line are kept
    verbatim instead of being re-derived, so clipping a polygon by one of
    its own defining half-planes is an exact identity and the result never
    has larger area than the input.  Such a vertex also stands in for the
    crossing of its edges: a crossing is emitted only where an edge runs
    from strictly inside to strictly outside or back, since a second point
    up to the tolerance away from the kept vertex can step backwards along
    the boundary.  :meth:`ConvexPolygon.from_points` drops a vertex whose
    edges meet within about COLLINEAR_REL radians however long they are, so
    a huge thin sliver, such as a near-horizontal line's region in its own
    left band, can come back empty, which no library path meets because
    :func:`regions.guard_extent` refuses such a separator before any clip.
    The clip keeps the counter-clockwise order of poly: a corner kept about
    1e-9 wide at coordinates near 100 can give the clip a shoelace that
    rounds negative, and reversing it would fail the convexity check.
    """
    if poly.is_empty:
        return poly
    out = _clip_points(poly.vertices, half.a, half.b, half.c)
    if len(out) < 3:
        return ConvexPolygon.empty()
    return ConvexPolygon._checked(_cleaned(out))


def _clip_points(verts: Sequence[Point2], a: float, b: float, c: float) -> list[Point2]:
    """The points :func:`clip_convex` of non-empty verts by a*x + b*y <= c emits, uncleaned."""
    xs, ys = zip(*verts)
    values = [a * x + b * y - c for x, y in verts]
    scale = max(1.0, abs(c), abs(a) * max(map(abs, xs)), abs(b) * max(map(abs, ys)))
    eps = MERGE_TOL * scale
    out: list[Point2] = []
    for s, e, fs, fe in zip(verts, _turned(verts), values, _turned(values)):
        if fs <= eps:
            out.append(s)
        if (fs < -eps and fe > eps) or (fs > eps and fe < -eps):
            out.append(_edge_crossing(s, e, fs, fe))
    return out


def _turned(items: Sequence) -> list:
    """items from the second on, then the first: what follows each item around a polygon."""
    return [*items[1:], *items[:1]]


def _edge_crossing(s: Point2, e: Point2, fs: float, fe: float) -> Point2:
    t = fs / (fs - fe)
    (sx, sy), (ex, ey) = s, e
    return Point2(sx + t * (ex - sx), sy + t * (ey - sy))


def vertex_stack(rows: Sequence[Sequence[ConvexPolygon]]) -> tuple[np.ndarray, np.ndarray]:
    """x and y of vertex v of polygon rows[k][p] at [v, p, k], the form :func:`clipped_areas` takes.

    Every row lists as many polygons.  Each polygon is padded to the most
    vertices any has by repeating its last vertex, and an empty polygon is
    all zeros; neither changes its :func:`clipped_areas`.
    """
    width = max((len(p.vertices) for row in rows for p in row), default=0)
    padded = (p.vertices + p.vertices[-1:] * (width - len(p.vertices)) if p.vertices
              else ((0.0, 0.0),) * width for row in rows for p in row)
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(padded)), float)
    xy = flat.reshape(len(rows), len(rows[0]) if rows else 0, width, 2).transpose(2, 1, 0, 3)
    return np.ascontiguousarray(xy[..., 0]), np.ascontiguousarray(xy[..., 1])


def clipped_areas(x: np.ndarray, y: np.ndarray, a, b, c) -> np.ndarray:
    """:func:`polygon_area` of :func:`clip_convex` of each polygon by a*x + b*y <= c, bit for bit.

    x[v] and y[v] hold vertex v of every polygon, counter-clockwise, as
    :func:`vertex_stack` lays them out; they broadcast against the
    coefficients, so one polygon can meet many half-planes or each its own.
    No clipped polygon is built.  The scalar clip's vertex values, tolerance,
    keep rule, strict crossing rule and crossing formula give the points it
    would emit, and the shoelace is summed as they are emitted: vertex v,
    then the crossing on the edge leaving it.  Each point adds
    prev_x*y - x*prev_y, the first from prev = (0, 0), which adds a zero,
    and the last point closes the sum back to the first.  These are the
    terms :func:`polygon_area` adds over the clip, in its order and from the
    same +0.0.  A vertex repeated as padding adds cross(p, p) = 0, and the
    edge leaving the last copy has the values of the polygon's closing edge.
    A clip of fewer than three points sums to exactly zero, as t + (-t) = 0,
    which is the area of the empty polygon clip_convex returns for it.
    :func:`clipped_area` is its scalar twin, for one polygon and half-plane.
    """
    x_ext, y_ext = np.concatenate([x, x[:1]]), np.concatenate([y, y[:1]])
    values = a * x_ext + b * y_ext - c  # each vertex, then the first again
    scale = np.maximum(
        np.maximum(1.0, np.abs(c)),
        np.maximum(np.abs(a) * np.abs(x).max(axis=0, initial=0.0),
                   np.abs(b) * np.abs(y).max(axis=0, initial=0.0)),
    )
    eps = MERGE_TOL * scale
    fs, fe = values[:-1], values[1:]
    above, below = values > eps, values < -eps
    keep = fs <= eps
    cross = (below[:-1] & above[1:]) | (above[:-1] & below[1:])
    t = np.divide(fs, fs - fe, out=np.zeros_like(fs), where=cross)
    cross_x = x + t * (x_ext[1:] - x)
    cross_y = y + t * (y_ext[1:] - y)
    slots = [s for v in range(len(x)) for s in ((x[v], y[v], keep[v]),
                                                (cross_x[v], cross_y[v], cross[v]))]
    shape = np.broadcast_shapes(x.shape[1:], np.shape(a))
    first_x, first_y, prev_x, prev_y, total = (np.zeros(shape) for _ in range(5))
    for px, py, emitted in reversed(slots):
        np.copyto(first_x, px, where=emitted)
        np.copyto(first_y, py, where=emitted)
    for px, py, emitted in slots:
        np.add(total, prev_x * py - px * prev_y, out=total, where=emitted)
        np.copyto(prev_x, px, where=emitted)
        np.copyto(prev_y, py, where=emitted)
    total += prev_x * first_y - first_x * prev_y
    return np.abs(total / 2.0)


def clipped_area(poly: ConvexPolygon, a: float, b: float, c: float) -> float:
    """:func:`clipped_areas` of one polygon and one half-plane a*x + b*y <= c, bit for bit.

    The scalar twin of the kernel, for calls too small to pay its fixed
    numpy cost.  It takes the points :func:`clip_convex` would emit, whose
    vertex values, tolerance, keep rule, strict crossing rule and crossing
    formula are the kernel's, in the kernel's order, and sums their shoelace
    without any :meth:`ConvexPolygon.from_points` clean-up.  The kernel's
    first term, from prev = (0, 0), is a zero added to +0.0, and its later
    terms are _signed_area's, pair by pair and in order, closing back to the
    first point, so the sums are equal.  The kernel's padding repeats of
    the last vertex add cross(p, p) = 0 exactly and leave the tolerance's
    max|x| and max|y| as they are.  An empty polygon has area 0.0.
    """
    if poly.is_empty:
        return 0.0
    return abs(_signed_area(_clip_points(poly.vertices, a, b, c)))


def halfplane_intersection(halves: Sequence[HalfPlane], bound: ConvexPolygon) -> ConvexPolygon:
    """Intersect a bounded convex polygon with a collection of half-planes."""
    poly = bound
    for half in halves:
        if poly.is_empty:
            break
        poly = clip_convex(poly, half)
    return poly


def rectangle(x0: float, x1: float, y0: float, y1: float) -> ConvexPolygon:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""
    if not (x0 < x1 and y0 < y1):
        raise DomainError("rectangle bounds must satisfy x0 < x1 and y0 < y1")
    return ConvexPolygon.from_points(
        [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    )


def tangents_to_unit_circle(center: Point2, p: Point2) -> TangentLines:
    """Both tangent lines from an exterior point to a unit circle.

    Writing X = center.x - p.x and Y = center.y - p.y, a line y = k*x + b
    through p is tangent exactly when (k*X - Y)^2 = k^2 + 1, i.e.

        k = (X*Y +- sqrt(X^2 + Y^2 - 1)) / (X^2 - 1).

    Raises DomainError for a point inside the circle, DegenerateTangentError
    on the circle (discriminant zero) and VerticalTangentError when X^2 = 1,
    where one tangent has no finite slope.
    """
    X = center[0] - p[0]
    Y = center[1] - p[1]
    disc = X * X + Y * Y - 1.0
    if disc < 0.0:
        raise DomainError("point lies strictly inside the unit circle")
    if disc == 0.0:
        raise DegenerateTangentError("point lies on the unit circle; tangents coincide")
    if X * X == 1.0:
        raise VerticalTangentError("one tangent is vertical; no finite slope")
    root = math.sqrt(disc)
    denom = X * X - 1.0
    ka = (X * Y + root) / denom
    kb = (X * Y - root) / denom
    k1, k2 = (ka, kb) if ka >= kb else (kb, ka)
    return TangentLines(k1, k2, p[1] - k1 * p[0], p[1] - k2 * p[0])
