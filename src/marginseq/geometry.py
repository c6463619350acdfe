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
        verts = [Point2(float(p[0]), float(p[1])) for p in points]
        for p in verts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise DomainError("polygon vertices must be finite")
        verts = _merge_close(verts)
        verts = _drop_collinear(verts)
        if len(verts) < 3:
            return cls.empty()
        if _signed_area(verts) < 0.0:
            verts.reverse()
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
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        acc += p.x * q.y - q.x * p.y
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
    the boundary.
    """
    if poly.is_empty:
        return poly
    verts = poly.vertices
    n = len(verts)
    values = [half.value(p) for p in verts]
    scale = max(
        1.0,
        abs(half.c),
        abs(half.a) * max(abs(p.x) for p in verts),
        abs(half.b) * max(abs(p.y) for p in verts),
    )
    eps = MERGE_TOL * scale
    out: list[Point2] = []
    for i in range(n):
        s, e = verts[i], verts[(i + 1) % n]
        fs, fe = values[i], values[(i + 1) % n]
        if fs <= eps:
            out.append(s)
        if (fs < -eps and fe > eps) or (fs > eps and fe < -eps):
            out.append(_edge_crossing(s, e, fs, fe))
    if len(out) < 3:
        return ConvexPolygon.empty()
    return ConvexPolygon.from_points(out)


def _edge_crossing(s: Point2, e: Point2, fs: float, fe: float) -> Point2:
    t = fs / (fs - fe)
    return Point2(s.x + t * (e.x - s.x), s.y + t * (e.y - s.y))


class PolygonBatch(NamedTuple):
    """Convex polygons as rows of vertex arrays; row i holds n[i] vertices, then padding."""

    x: np.ndarray
    y: np.ndarray
    n: np.ndarray

    @classmethod
    def of(cls, polys: Sequence[ConvexPolygon]) -> "PolygonBatch":
        """The polygons, one per row, in order."""
        counts = np.array([len(p.vertices) for p in polys], dtype=np.intp)
        xy = np.zeros((len(polys), counts.max(initial=0), 2))
        # every vertex's two coordinates in one flat run, filling the rows' leading slots
        flat = chain.from_iterable(chain.from_iterable(p.vertices for p in polys))
        xy[np.arange(xy.shape[1]) < counts[:, None]] = np.fromiter(flat, float).reshape(-1, 2)
        return cls(xy[:, :, 0], xy[:, :, 1], counts)

    def take(self, rows) -> "PolygonBatch":
        """The given rows, in the given order; a row may be taken more than once."""
        return PolygonBatch(self.x[rows], self.y[rows], self.n[rows])


def _successors(polys: PolygonBatch) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each vertex's successor, wrapping at its row's count."""
    cols = np.arange(polys.x.shape[1]) + 1
    return np.arange(len(polys.n))[:, None], np.where(cols < polys.n[:, None], cols, 0)


def _interleave(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns u[:, 0], v[:, 0], u[:, 1], v[:, 1], ..."""
    out = np.empty((len(u), u.shape[1], 2), u.dtype)
    out[:, :, 0], out[:, :, 1] = u, v
    return out.reshape(len(u), 2 * u.shape[1])


def clip_convex_batch(polys: PolygonBatch, a, b, c) -> PolygonBatch:
    """:func:`clip_convex` of row i by the half-plane a[i]*x + b[i]*y <= c[i].

    The coefficients are arrays over the rows or scalars shared by all of
    them.  Each row gets the scalar clip's vertex values, tolerance and
    strict crossing rule, and an output of fewer than three vertices is
    empty; near-duplicate or collinear vertices are kept rather than merged.
    """
    a, b, c = (np.reshape(t, (-1, 1)) for t in (a, b, c))
    x, y, n = polys
    valid = np.arange(x.shape[1]) < n[:, None]
    values = a * x + b * y - c
    max_x = np.where(valid, np.abs(x), 0.0).max(axis=1, initial=0.0)[:, None]
    max_y = np.where(valid, np.abs(y), 0.0).max(axis=1, initial=0.0)[:, None]
    scale = np.maximum(np.maximum(1.0, np.abs(c)), np.maximum(np.abs(a) * max_x, np.abs(b) * max_y))
    eps = MERGE_TOL * scale
    row, nxt = _successors(polys)
    fe = values[row, nxt]
    keep = valid & (values <= eps)
    cross = valid & (((values < -eps) & (fe > eps)) | ((values > eps) & (fe < -eps)))
    t = np.divide(values, values - fe, out=np.zeros_like(values), where=cross)
    # each vertex, then the crossing on the edge leaving it, as the scalar loop emits them
    emit = _interleave(keep, cross)
    rows, slots = np.nonzero(emit)
    cols = np.cumsum(emit, axis=1)[rows, slots] - 1
    count = emit.sum(axis=1)
    res_x = np.zeros((len(n), count.max(initial=0)))
    res_y = np.zeros_like(res_x)
    res_x[rows, cols] = _interleave(x, x + t * (x[row, nxt] - x))[rows, slots]
    res_y[rows, cols] = _interleave(y, y + t * (y[row, nxt] - y))[rows, slots]
    return PolygonBatch(res_x, res_y, np.where(count < 3, 0, count))


def polygon_areas(polys: PolygonBatch) -> np.ndarray:
    """:func:`polygon_area` of every row, summed in the scalar shoelace's order."""
    x, y, n = polys
    row, nxt = _successors(polys)
    terms = np.where(np.arange(x.shape[1]) < n[:, None], x * y[row, nxt] - x[row, nxt] * y, 0.0)
    # column by column from zero, as the scalar loop adds them
    return np.abs(sum(terms.T, np.zeros(len(n))) / 2.0)


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
