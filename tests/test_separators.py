import math

import numpy as np
import pytest

from marginseq import (
    DecisionBoundary,
    DomainError,
    HiddenPoint,
    Point2,
    ScenarioConfig,
    boundary_from_hidden,
    classify,
    oracle_boundary,
)
from marginseq.selfcheck import boundary_deviation
from seeded_rng import philox


def sample_hidden(scenario, rng) -> HiddenPoint:
    c, y_lim = scenario.c, scenario.y_lim
    while True:
        v = float(rng.uniform(-(c - 1.0), c - 1.0))
        w = float(rng.uniform(-y_lim, y_lim))
        if (v - c) ** 2 + w**2 > 1.0 and (v + c) ** 2 + w**2 > 1.0:
            return HiddenPoint(v, w)


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
    rng = philox(505)
    for _ in range(200):
        h = sample_hidden(scenario, rng)
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
    rng = philox(606)
    for _ in range(300):
        h = sample_hidden(scenario, rng)
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
    rng = philox(707)
    angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    for _ in range(50):
        h = sample_hidden(scenario, rng)
        boundary, _ = boundary_from_hidden(scenario, h)
        plus_x, plus_y = scenario.c + cos_a, sin_a
        minus_x, minus_y = -scenario.c + cos_a, sin_a
        assert np.all(boundary.signed_value(plus_x, plus_y) > 0.0)
        assert np.all(boundary.signed_value(minus_x, minus_y) < 0.0)
        assert boundary.signed_value(h.v, h.w) >= 0.0


def test_oracle_matches_closed_form(scenario):
    rng = philox(808)
    worst = 0.0
    for i in range(150):
        if i % 10 == 0:
            h = HiddenPoint(sample_hidden(scenario, rng).v, 0.0)
        else:
            h = sample_hidden(scenario, rng)
        closed, _ = boundary_from_hidden(scenario, h)
        numeric = oracle_boundary(scenario, h, resolution=40_000)
        worst = max(worst, boundary_deviation(closed, numeric))
    assert worst <= 1e-6


def test_oracle_tangent_branch(scenario):
    closed, deriv = boundary_from_hidden(scenario, HiddenPoint(97.0, -28.0))
    assert deriv.case_tag == "w_neg_tangent"
    numeric = oracle_boundary(scenario, HiddenPoint(97.0, -28.0))
    assert boundary_deviation(closed, numeric) <= 1e-8


def test_oracle_vertical_continuity(scenario):
    for v in (98.0, 98.9, 98.99):
        numeric = oracle_boundary(scenario, HiddenPoint(v, 0.0))
        assert numeric.kind == "vertical"
        assert numeric.x0 == pytest.approx((-100.0 + v + 1.0) / 2.0, abs=1e-9)


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
