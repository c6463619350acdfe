import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginseq import (
    ConvexPolygon,
    DegenerateTangentError,
    DomainError,
    HalfPlane,
    Point2,
    VerticalTangentError,
    clip_convex,
    halfplane_intersection,
    polygon_area,
    rectangle,
    tangents_to_unit_circle,
)
from marginseq.geometry import clipped_areas, vertex_stack
from seeded_rng import philox

UNIT_SQUARE = ConvexPolygon.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])

# Area of the band triangle cut by y = 7x - 0.7 below y = -30: (30 - 0.7 - 0.7)^2 / 14.
TRIANGLE_AREA = 817.96 / 14.0


def test_unit_square_area():
    assert polygon_area(UNIT_SQUARE) == 1.0


def test_empty_polygon_area():
    assert polygon_area(ConvexPolygon.empty()) == 0.0


def test_band_triangle_area():
    tri = ConvexPolygon.from_points([(-0.1, -1.4), (-0.1, -30.0), (-4.185714285714286, -30.0)])
    assert polygon_area(tri) == pytest.approx(TRIANGLE_AREA, rel=1e-12)
    assert round(polygon_area(tri), 3) == 58.426


def test_orientation_normalized_to_ccw():
    cw = ConvexPolygon.from_points([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert polygon_area(cw) == 1.0
    xs = [p.x for p in cw.vertices]
    ys = [p.y for p in cw.vertices]
    acc = sum(xs[i] * ys[(i + 1) % 4] - xs[(i + 1) % 4] * ys[i] for i in range(4))
    assert acc > 0.0


def test_degenerate_input_collapses_to_empty():
    assert ConvexPolygon.from_points([(0, 0), (0, 0), (1e-13, 1e-13)]).is_empty
    assert ConvexPolygon.from_points([(0, 0), (1, 0), (2, 0)]).is_empty


def test_nonconvex_input_rejected():
    with pytest.raises(DomainError):
        ConvexPolygon.from_points([(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)])


def test_clip_half_square():
    clipped = clip_convex(UNIT_SQUARE, HalfPlane(1.0, 0.0, 0.5))
    assert polygon_area(clipped) == pytest.approx(0.5, rel=1e-12)


def test_clip_identity_and_empty():
    assert clip_convex(UNIT_SQUARE, HalfPlane(1.0, 0.0, 5.0)) == UNIT_SQUARE
    assert clip_convex(UNIT_SQUARE, HalfPlane(1.0, 0.0, -5.0)).is_empty


def test_halfplane_intersection_identity_and_empty():
    box = rectangle(-1.0, 1.0, -1.0, 1.0)
    assert halfplane_intersection([], box) == box
    opposing = [HalfPlane(1.0, 0.0, -0.5), HalfPlane(-1.0, 0.0, -0.5)]
    assert halfplane_intersection(opposing, box).is_empty


def test_halfplane_intersection_band_triangle():
    box = rectangle(-50.0, 10.0, -40.0, 40.0)
    halves = [
        HalfPlane(0.0, 1.0, 30.0),
        HalfPlane(0.0, -1.0, 30.0),
        HalfPlane(1.0, 0.0, -0.1),
        HalfPlane(-7.0, 1.0, -0.7),  # y <= 7x - 0.7
    ]
    tri = halfplane_intersection(halves, box)
    assert polygon_area(tri) == pytest.approx(TRIANGLE_AREA, rel=1e-12)


def _random_convex(rng) -> ConvexPolygon:
    poly = rectangle(-2.0, 2.0, -2.0, 2.0)
    for _ in range(rng.integers(0, 4)):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        offset = rng.uniform(-1.0, 1.5)
        poly = clip_convex(poly, HalfPlane(math.cos(angle), math.sin(angle), offset))
    return poly


def test_clip_never_increases_area_fuzz():
    rng = philox(101)
    for _ in range(300):
        poly = _random_convex(rng)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        half = HalfPlane(math.cos(angle), math.sin(angle), rng.uniform(-2.0, 2.0))
        assert polygon_area(clip_convex(poly, half)) <= polygon_area(poly) + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    cx=st.floats(-1.0, 1.0),
    cy=st.floats(-1.0, 1.0),
    offset=st.floats(-3.0, 3.0),
)
def test_clip_subset_of_input(cx, cy, offset):
    if math.hypot(cx, cy) < 1e-3:
        return
    half = HalfPlane(cx, cy, offset)
    clipped = clip_convex(UNIT_SQUARE, half)
    for p in clipped.vertices:
        assert half.value(p) <= 1e-9
        assert -1e-9 <= p.x <= 1.0 + 1e-9
        assert -1e-9 <= p.y <= 1.0 + 1e-9


def test_area_matches_monte_carlo():
    poly = ConvexPolygon.from_points([(-1.0, -0.5), (2.0, -1.0), (2.5, 1.5), (0.0, 2.0)])
    area = polygon_area(poly)
    halves = []
    n = len(poly.vertices)
    for i in range(n):
        a, b = poly.vertices[i], poly.vertices[(i + 1) % n]
        # interior of a CCW polygon: (b.y-a.y)*(x-a.x) - (b.x-a.x)*(y-a.y) <= 0
        nx, ny = b.y - a.y, a.x - b.x
        halves.append(HalfPlane(nx, ny, nx * a.x + ny * a.y))
    rng = philox(202)
    n_samples = 1_000_000
    x = rng.uniform(-1.0, 2.5, n_samples)
    y = rng.uniform(-1.0, 2.0, n_samples)
    inside = np.ones(n_samples, dtype=bool)
    for h in halves:
        inside &= h.a * x + h.b * y <= h.c
    box_area = 3.5 * 3.0
    p_true = area / box_area
    p_hat = inside.mean()
    sigma = math.sqrt(p_true * (1.0 - p_true) / n_samples)
    assert abs(p_hat - p_true) <= 3.0 * sigma


def test_clip_vertex_on_line_stands_in_for_crossing():
    # The last vertex lies within rounding tolerance of the clip line; a
    # crossing emitted next to it as well used to step backwards along the
    # boundary and fail the convexity check.
    poly = ConvexPolygon.from_points([
        (0.004757259738401464, -30.0), (0.1, -30.0), (0.1, 30.0), (0.0, 30.0),
        (0.0, 1.000444171950221e-11),
    ])
    half = HalfPlane(317.45126011347384, 1.0, 2.8421709430404007e-13)
    clipped = clip_convex(poly, half)
    assert not clipped.is_empty
    assert polygon_area(clipped) <= polygon_area(poly)
    for p in clipped.vertices:
        assert half.value(p) <= 1e-9


SLIVER_TAIL = ConvexPolygon.from_points([
    (0.004757259738401464, -30.0), (0.1, -30.0), (0.1, 30.0), (0.0, 30.0),
    (0.0, 1.000444171950221e-11),
])

BATCH_CASES = {
    "empty-cut": (UNIT_SQUARE, HalfPlane(1.0, 0.0, -1.0)),
    "full-cut": (UNIT_SQUARE, HalfPlane(1.0, 0.0, 2.0)),
    "own-edge": (UNIT_SQUARE, HalfPlane(1.0, 0.0, 1.0)),
    "edge-within-tolerance": (UNIT_SQUARE, HalfPlane(1.0, 0.0, 1.0 - 1e-14)),
    # beyond this square's tolerance, though within that of a polygon 200 wide
    "edge-beyond-tolerance": (UNIT_SQUARE, HalfPlane(1.0, 0.0, 1.0 - 1e-10)),
    "through-vertices": (UNIT_SQUARE, HalfPlane(1.0, 1.0, 1.0)),
    "through-one-vertex": (UNIT_SQUARE, HalfPlane(2.0, 1.0, 2.0)),
    "vertex-within-tolerance": (SLIVER_TAIL, HalfPlane(317.45126011347384, 1.0,
                                                       2.8421709430404007e-13)),
    "band-triangle": (rectangle(-200.0, -0.1, -30.0, 30.0), HalfPlane(7.0, -1.0, 0.7)),
    "empty-polygon": (ConvexPolygon.empty(), HalfPlane(1.0, 0.0, 0.5)),
}


def _random_cases(n):
    rng = philox(606)
    cases = []
    for _ in range(n):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 9))))
        radius, cx, cy = rng.uniform(0.1, 50.0), rng.uniform(-100, 100), rng.uniform(-30, 30)
        poly = ConvexPolygon.from_points(zip(cx + radius * np.cos(angles),
                                             cy + radius * np.sin(angles)))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a, b = math.cos(theta) * 10.0 ** rng.uniform(-3, 4), math.sin(theta)
        cases.append((poly, HalfPlane(a, b, a * cx + b * cy + rng.uniform(-1.5, 1.5) * radius)))
    return cases


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_clip_batch_matches_scalar_clip():
    cases = list(BATCH_CASES.values()) + _random_cases(300)
    polys, halves = zip(*cases)
    x, y = vertex_stack([[p] for p in polys])
    got = clipped_areas(x, y, *(np.array([getattr(h, f) for h in halves]) for f in "abc"))[0]
    want = [polygon_area(clip_convex(p, h)) for p, h in cases]
    assert _bits(got[:len(BATCH_CASES)]) == _bits(want[:len(BATCH_CASES)])
    for area, expected, poly in zip(got, want, polys):
        assert area == pytest.approx(expected, rel=1e-12, abs=1e-12 * polygon_area(poly))
    exact = dict(zip(BATCH_CASES, got))
    assert exact["empty-cut"] == 0.0 and exact["empty-polygon"] == 0.0
    assert exact["full-cut"] == exact["own-edge"] == exact["edge-within-tolerance"] == 1.0
    assert exact["through-vertices"] == 0.5
    assert exact["edge-beyond-tolerance"] < 1.0


def test_clip_batch_shared_half_plane_and_areas():
    polys = [UNIT_SQUARE, SLIVER_TAIL, ConvexPolygon.empty(), rectangle(-3.0, 2.0, -1.0, 4.0)]
    # one half-plane given as scalars for every polygon; one that holds them all keeps their areas
    x, y = vertex_stack([[p] for p in polys])
    half = HalfPlane(1.0, -2.0, 0.25)
    got = clipped_areas(x, y, half.a, half.b, half.c)[0]
    assert _bits(got) == _bits([polygon_area(clip_convex(p, half)) for p in polys])
    assert _bits(clipped_areas(x, y, 0.0, 1.0, 1e3)[0]) == _bits([polygon_area(p) for p in polys])
    # one row of polygons shared by every half-plane
    halves = [half, HalfPlane(-3.0, 0.5, 1.0), HalfPlane(0.0, 1.0, 0.0)]
    x, y = vertex_stack([polys])
    assert x.shape == y.shape == (5, 4, 1)
    got = clipped_areas(x, y, *(np.array([getattr(h, f) for h in halves]) for f in "abc"))
    assert got.shape == (4, 3)
    for i, poly in enumerate(polys):
        assert _bits(got[i]) == _bits([polygon_area(clip_convex(poly, h)) for h in halves])


def test_shared_and_per_row_polygons_give_the_same_bits():
    polys = [poly for poly, _ in BATCH_CASES.values()]
    _, halves = zip(*_random_cases(200))
    a, b, c = (np.array([getattr(h, f) for h in halves]) for f in "abc")
    x, y = vertex_stack([polys])
    shared = clipped_areas(x, y, a, b, c)
    x, y = vertex_stack([polys] * len(halves))
    assert _bits(clipped_areas(x, y, a, b, c)) == _bits(shared)


def test_vertex_stack_pads_with_the_last_vertex():
    polys = [UNIT_SQUARE, ConvexPolygon.empty(), SLIVER_TAIL]
    x, y = vertex_stack([polys, polys[::-1]])
    assert x.shape == y.shape == (5, 3, 2)
    assert list(zip(x[:, 0, 0], y[:, 0, 0])) == [*UNIT_SQUARE.vertices, UNIT_SQUARE.vertices[-1]]
    assert list(zip(x[:, 2, 1], y[:, 2, 1])) == list(zip(x[:, 0, 0], y[:, 0, 0]))
    assert not x[:, 1].any() and not y[:, 1].any()
    assert list(zip(x[:, 2, 0], y[:, 2, 0])) == list(SLIVER_TAIL.vertices)
    assert [a.shape for a in vertex_stack([])] == [(0, 0, 0), (0, 0, 0)]


def test_clip_batch_of_no_rows_and_of_empty_rows():
    for polys in ([], [ConvexPolygon.empty()] * 3):
        x, y = vertex_stack([[p] for p in polys])
        assert clipped_areas(x, y, 1.0, -2.0, 0.25).ravel().tolist() == [0.0] * len(polys)


def test_tangents_from_origin():
    tl = tangents_to_unit_circle(Point2(100.0, 0.0), Point2(0.0, 0.0))
    expected = 1.0 / math.sqrt(9999.0)
    assert tl.k1 == pytest.approx(expected, rel=1e-12)
    assert tl.k2 == pytest.approx(-expected, rel=1e-12)
    assert tl.b1 == 0.0 and tl.b2 == 0.0


def test_tangents_axis_symmetry():
    tl = tangents_to_unit_circle(Point2(100.0, 0.0), Point2(5.0, 0.0))
    assert tl.k1 == pytest.approx(-tl.k2, rel=1e-12)


def test_tangents_mirror_property():
    rng = philox(303)
    center = Point2(100.0, 0.0)
    for _ in range(100):
        v = rng.uniform(-99.0, 99.0)
        w = rng.uniform(-30.0, 30.0)
        if (v - 100.0) ** 2 + w**2 <= 1.0:
            continue
        tl = tangents_to_unit_circle(center, Point2(v, w))
        mirrored = tangents_to_unit_circle(center, Point2(v, -w))
        assert tl.k1 == pytest.approx(-mirrored.k2, rel=1e-9, abs=1e-12)
        assert tl.k2 == pytest.approx(-mirrored.k1, rel=1e-9, abs=1e-12)


def test_tangency_residual():
    rng = philox(404)
    center = Point2(100.0, 0.0)
    for _ in range(200):
        v = rng.uniform(-99.0, 99.0)
        w = rng.uniform(-30.0, 30.0)
        if (v - 100.0) ** 2 + w**2 <= 1.0 + 1e-9:
            continue
        tl = tangents_to_unit_circle(center, Point2(v, w))
        for k, b in ((tl.k1, tl.b1), (tl.k2, tl.b2)):
            dist = abs(k * center.x - center.y + b) / math.hypot(k, 1.0)
            assert abs(dist - 1.0) < 1e-9


def test_tangents_errors():
    center = Point2(100.0, 0.0)
    with pytest.raises(DomainError):
        tangents_to_unit_circle(center, Point2(100.2, 0.1))
    with pytest.raises(DegenerateTangentError):
        tangents_to_unit_circle(center, Point2(99.0, 0.0))
    with pytest.raises(VerticalTangentError):
        tangents_to_unit_circle(center, Point2(99.0, 0.5))


def test_halfplane_validation():
    with pytest.raises(DomainError):
        HalfPlane(0.0, 0.0, 1.0)
