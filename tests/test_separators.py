import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marginseq import (
    DecisionBoundary,
    DomainError,
    HalfPlane,
    HiddenPoint,
    Point2,
    ScenarioConfig,
    boundary_from_hidden,
    classify,
    oracle_boundary,
)
from marginseq.selfcheck import boundary_deviation
from marginseq import versioning
from marginseq.versioning import draw_hidden_points
from seeded_rng import philox


def test_scenario_validation():
    with pytest.raises(DomainError):
        ScenarioConfig(0.8, 0.01, 30.0)
    with pytest.raises(DomainError):
        ScenarioConfig(100.0, -0.1, 30.0)
    with pytest.raises(DomainError):
        ScenarioConfig(100.0, 20.0, 30.0)  # delta not << c
    with pytest.raises(DomainError):
        ScenarioConfig(100.0, 0.1, 0.0)


def test_axis_point_gives_vertical_boundary(scenario):
    boundary, deriv = boundary_from_hidden(scenario, HiddenPoint(0.0, 0.0))
    assert boundary.kind == "vertical"
    assert boundary.x0 == pytest.approx(-49.5, abs=1e-12)
    assert deriv.case_tag == "w_zero"


def test_vertical_boundary_moves_with_v(scenario):
    for v in (-50.0, 0.0, 50.0, 98.9):
        boundary, _ = boundary_from_hidden(scenario, HiddenPoint(v, 0.0))
        assert boundary.x0 == pytest.approx((-100.0 + v + 1.0) / 2.0, abs=1e-12)


def test_near_zero_w_snaps_to_vertical(scenario):
    boundary, deriv = boundary_from_hidden(scenario, HiddenPoint(10.0, 1e-13))
    assert boundary.kind == "vertical"
    assert deriv.case_tag == "w_zero"


def test_classify_examples(scenario):
    sloped = DecisionBoundary.sloped(7.0, -0.7, scenario)
    assert classify(sloped, Point2(100.0, 0.0)) == "+"
    assert classify(sloped, Point2(-100.0, 0.0)) == "-"
    assert classify(sloped, Point2(0.1, 0.0)) == "+"  # boundary point counts "+"
    vertical = DecisionBoundary.vertical(-49.5, scenario)
    assert classify(vertical, Point2(0.0, 0.0)) == "+"
    assert classify(vertical, Point2(-60.0, 0.0)) == "-"


def test_domain_errors(scenario):
    with pytest.raises(DomainError, match="v="):
        boundary_from_hidden(scenario, HiddenPoint(120.0, 0.0))
    with pytest.raises(DomainError, match="w="):
        boundary_from_hidden(scenario, HiddenPoint(0.0, 31.0))
    with pytest.raises(DomainError):
        boundary_from_hidden(scenario, HiddenPoint(99.5, 0.0))


def test_engineered_tangent_cases(scenario):
    below, deriv_b = boundary_from_hidden(scenario, HiddenPoint(97.0, -28.0))
    assert deriv_b.case_tag == "w_neg_tangent"
    assert below.k == pytest.approx(deriv_b.tangents.k1, rel=1e-12)
    assert abs(below.b) < 1e-10  # tangent-branch separators pass through the origin

    above, deriv_a = boundary_from_hidden(scenario, HiddenPoint(97.0, 28.0))
    assert deriv_a.case_tag == "w_pos_tangent"
    assert above.k == pytest.approx(deriv_a.tangents.k2, rel=1e-12)
    assert abs(above.b) < 1e-10


def test_direct_case_slope(scenario):
    h = HiddenPoint(0.0, 10.0)
    boundary, deriv = boundary_from_hidden(scenario, h)
    assert deriv.case_tag == "w_pos_direct"
    assert boundary.k == pytest.approx(-10.0, rel=1e-12)


def test_mirror_equivariance(scenario):
    for h in draw_hidden_points(scenario, 200, 1.0, 505, 0):
        bd, _ = boundary_from_hidden(scenario, h)
        bd_m, _ = boundary_from_hidden(scenario, h.mirrored())
        expected = bd.mirrored()
        assert bd_m.kind == expected.kind
        if bd.kind == "vertical":
            assert bd_m.x0 == expected.x0
        else:
            assert bd_m.k == pytest.approx(expected.k, rel=1e-12)
            assert bd_m.b == pytest.approx(expected.b, rel=1e-9, abs=1e-9)


def test_determinism(scenario):
    h = HiddenPoint(42.0, -17.5)
    assert boundary_from_hidden(scenario, h) == boundary_from_hidden(scenario, h)


def test_support_segment_bisected(scenario):
    for h in draw_hidden_points(scenario, 300, 1.0, 606, 0):
        boundary, deriv = boundary_from_hidden(scenario, h)
        (qx, qy), (rx, ry) = deriv.support_segment
        mx, my = (qx + rx) / 2.0, (qy + ry) / 2.0
        scale = max(1.0, abs(mx), abs(my))
        if boundary.kind == "vertical":
            assert abs(mx - boundary.x0) <= 1e-9 * scale
            assert abs(qy - ry) <= 1e-9 * scale
        else:
            assert abs(my - (boundary.k * mx + boundary.b)) <= 1e-9 * scale
            # segment direction orthogonal to the boundary direction (1, k)
            dx, dy = qx - rx, qy - ry
            norm = math.hypot(dx, dy) * math.hypot(1.0, boundary.k)
            assert abs(dx + boundary.k * dy) <= 1e-9 * norm


def test_margin_property(scenario):
    angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    for h in draw_hidden_points(scenario, 50, 1.0, 707, 0):
        boundary, _ = boundary_from_hidden(scenario, h)
        plus_x, plus_y = scenario.c + cos_a, sin_a
        minus_x, minus_y = -scenario.c + cos_a, sin_a
        assert np.all(boundary.signed_value(plus_x, plus_y) > 0.0)
        assert np.all(boundary.signed_value(minus_x, minus_y) < 0.0)
        assert boundary.signed_value(h.v, h.w) >= 0.0


def test_oracle_matches_closed_form(scenario):
    worst = 0.0
    for i, h in enumerate(draw_hidden_points(scenario, 150, 1.0, 808, 0)):
        if i % 10 == 0:
            h = HiddenPoint(h.v, 0.0)
        closed, _ = boundary_from_hidden(scenario, h)
        numeric = oracle_boundary(scenario, h)
        worst = max(worst, boundary_deviation(closed, numeric))
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "v, w, case_tag",
    [
        (97.0, -28.0, "w_neg_tangent"),
        # a slope of about -2.2e12: the oracle's line is the same one
        (10.0, 5e-11, "w_pos_direct"),
        # X^2 -> 1 in the tangent algebra: k is about -5e9
        (98.9999999999, 0.5, "w_pos_tangent"),
    ],
    ids=["below-axis", "near-vertical", "steep-tangent"],
)
def test_oracle_tangent_branch(scenario, v, w, case_tag):
    closed, deriv = boundary_from_hidden(scenario, HiddenPoint(v, w))
    assert deriv.case_tag == case_tag
    numeric = oracle_boundary(scenario, HiddenPoint(v, w))
    assert boundary_deviation(closed, numeric) <= 1e-8


EDGE = ScenarioConfig(100.0, 0.1, 30.0)
_SIGNS = st.sampled_from((1.0, -1.0))
_BAND_V = st.floats(-(EDGE.c - 1.0), EDGE.c - 1.0, exclude_min=True, exclude_max=True)
_BAND_W = st.floats(-EDGE.y_lim, EDGE.y_lim)
_BAND_EDGES = st.one_of(
    # v -> +-(c - 1), from 1 down to 1e-13 inside the band (ulp(99) ~ 1.4e-14)
    st.builds(
        lambda s, e, w: HiddenPoint(s * ((EDGE.c - 1.0) - 10.0**e), w),
        _SIGNS, st.floats(-13.0, 0.0), _BAND_W,
    ),
    # |w| -> 0, from 1 down to 1e-16, across and under the vertical snap
    st.builds(lambda v, s, e: HiddenPoint(v, s * 10.0**e), _BAND_V, _SIGNS, st.floats(-16.0, 0.0)),
    # |w| = y_lim
    st.builds(lambda v, s: HiddenPoint(v, s * EDGE.y_lim), _BAND_V, _SIGNS),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_BAND_EDGES)
@example(HiddenPoint(math.nextafter(EDGE.c - 1.0, 0.0), 0.0))
@example(HiddenPoint(-math.nextafter(EDGE.c - 1.0, 0.0), 1e-16))
def test_oracle_matches_closed_form_at_band_edges(h):
    closed, _ = boundary_from_hidden(EDGE, h)
    assert boundary_deviation(closed, oracle_boundary(EDGE, h)) <= 1e-6


def test_boundary_deviation_compares_lines_not_parameters(scenario):
    # the same line written sloped and as a rescaled half-plane reads alike
    bd = DecisionBoundary.sloped(-5e9, 2.2e-5, scenario)
    line = bd.plus
    scaled = DecisionBoundary.through(HalfPlane(3.0 * line.a, 3.0 * line.b, 3.0 * line.c), scenario)
    assert boundary_deviation(bd, scaled) <= 1e-15
    # a near-vertical line and the vertical line it approaches
    assert boundary_deviation(DecisionBoundary.sloped(-2.2e12, -9.79e13, scenario),
                              DecisionBoundary.vertical(-44.5, scenario)) <= 1e-12
    flipped = HalfPlane(-line.a, -line.b, -line.c)
    assert DecisionBoundary.through(flipped, scenario) == bd


def test_oracle_vertical_continuity(scenario):
    for v in (98.0, 98.9, 98.99):
        numeric = oracle_boundary(scenario, HiddenPoint(v, 0.0))
        assert numeric.kind == "vertical"
        assert numeric.x0 == pytest.approx((-100.0 + v + 1.0) / 2.0, abs=1e-9)


@pytest.mark.parametrize("c", [2.0 + 2.0**-51, 3.0, 100.0, 2.0**53 + 2.0, 1e200])
def test_band_points_lie_outside_both_disks_in_floats(c):
    # the band test alone keeps a hidden point out of both training disks when c > 2
    ends = (math.nextafter(c - 1.0, 0.0), c / 2.0, math.nextafter(c / 2.0, 0.0), 0.0)
    for v in (*ends, *(-e for e in ends)):
        for w in (0.0, 5e-324, 1e-20):
            assert abs(v) < c - 1.0
            assert math.hypot(v - c, w) > 1.0 and math.hypot(v + c, w) > 1.0, (v, w)


def test_band_end_next_to_the_plus_disk_refused_when_c_is_small():
    # fl(v - c) rounds to -1 here, and the tangent construction refuses the point
    s = ScenarioConfig(1.75, 0.1, 3.0)
    with pytest.raises(DomainError):
        boundary_from_hidden(s, HiddenPoint(math.nextafter(0.75, 0.0), 0.0))


class _Scripted:
    """Stands in for a generator whose uniform batches are given in order."""

    def __init__(self, *batches):
        self._batches = iter(batches)

    def uniform(self, low, high, size):
        batch = next(self._batches)
        assert len(batch) == size
        return batch


def test_draw_hidden_points_redraws_the_band_ends(scenario, monkeypatch):
    # a batch of 64 whose only point off the band ends v = +-(c - 1) is its third
    end = scenario.c - 1.0
    v, w = np.full(64, end), np.full(64, -0.5)
    v[0], w[0], v[2], w[2] = -end, 0.5, 3.0, 4.0
    monkeypatch.setattr(versioning, "philox", lambda *key: _Scripted(v, w))
    assert draw_hidden_points(scenario, 1, 1.0, 0, 0) == (HiddenPoint(3.0, 4.0),)


def test_boundary_validation(scenario):
    with pytest.raises(DomainError):
        DecisionBoundary.sloped(0.0, 1.0, scenario)
    with pytest.raises(DomainError):
        DecisionBoundary.sloped(float("nan"), 1.0, scenario)
    with pytest.raises(DomainError):
        DecisionBoundary.vertical(scenario.c, scenario)


def test_boundary_reads_back_its_line(scenario):
    # the "+" half-plane only rescales the line by +-1, so the parameters
    # and the signed value match y = k*x + b and x = x0 bit for bit
    rng = philox(909)
    x = rng.uniform(-150.0, 150.0, 64)
    y = rng.uniform(-30.0, 30.0, 64)
    for _ in range(200):
        k = float(rng.uniform(-50.0, 50.0))
        b = float(rng.uniform(-500.0, 500.0))
        bd = DecisionBoundary.sloped(k, b, scenario)
        assert (bd.kind, bd.k, bd.b, bd.x0) == ("sloped", k, b, None)
        ps = math.copysign(1.0, -k * scenario.c - b)
        assert np.array_equal(bd.signed_value(x, y), ps * (y - k * x - b))
        assert bd.mirrored() == DecisionBoundary.sloped(-k, -b, scenario)
        x0 = float(rng.uniform(-99.0, 99.0))
        vd = DecisionBoundary.vertical(x0, scenario)
        assert (vd.kind, vd.k, vd.b, vd.x0) == ("vertical", None, None, x0)
        assert np.array_equal(vd.signed_value(x, y), x - x0)
        assert vd.mirrored() == vd
        assert vd.minus.value((x0 - 1.0, 0.0)) < 0.0 < vd.plus.value((x0 - 1.0, 0.0))
