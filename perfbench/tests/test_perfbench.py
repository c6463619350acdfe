"""Fast tests of the benchmark's own reference routines.

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import marginseq as ms
from marginseq.regions import MC_BLOCK, mc_block_counts

import checks
import independent as ind

S = ms.ScenarioConfig(100.0, 0.1, 30.0)
PLUS = (S.c, 0.0)


def test_polygon_area_of_rectangles():
    assert ind.polygon_area(ind.box(0.0, 2.0, 0.0, 3.0)) == pytest.approx(6.0, rel=1e-15)
    assert ind.polygon_area(ind.box(-1.5, 4.0, -2.0, 7.0)) == pytest.approx(49.5, rel=1e-15)
    assert ind.polygon_area(ind.box(0.0, 1.0, 0.0, 1.0) + [ind.Line(-1.0, 0.0, -2.0)]) == 0.0


def test_triangle_plus_trapezoid_area():
    assert ind.closed_form_ar_area(S, 7.0, 0.7) == pytest.approx(61.3907143, abs=1e-7)
    for k, b in ((7.0, 0.7), (3.0, 5.0), (12.0, 28.0), (1.0, 0.1)):
        area = ind.attackable_area(S, ind.sloped_line(k, -b, PLUS))
        assert area == pytest.approx(ind.closed_form_ar_area(S, k, b), rel=1e-12)


def test_compound_score_is_zero_on_the_seed_pair_and_matches_the_program():
    v1, v2, v3 = ind.plan_lines(S, 4, 7.0, 12.0)[:3]
    assert ind.compound_score(S, [v1], v2) == pytest.approx(0.0, abs=1e-15)
    plan = ms.plan_sequence(S, 4, 7.0, 12.0)
    assert ind.compound_score(S, [v1, v2], v3) == pytest.approx(plan.alpha, abs=1e-12)
    assert plan.alpha == pytest.approx(0.17, abs=0.005)


def test_plan_lines_classify_like_the_planned_versions():
    plan = ms.plan_sequence(S, 10, 7.0, 12.0)
    ref = ind.plan_lines(S, 10, 7.0, 12.0)
    for i, ((bd, _), line) in enumerate(zip(plan.versions, ref)):
        assert checks.same_line(S, bd, line, seed=i)
    assert not checks.same_line(S, plan.versions[0][0], ref[2], seed=0)


def test_line_comparison_ignores_representation():
    # A slope of about -2e12 and a vertical line are the same separator.
    h = ms.HiddenPoint(10.0, 5e-11)
    closed, _ = ms.boundary_from_hidden(S, h)
    oracle = ms.oracle_boundary(S, h)
    xs, ys = checks._near_line_points(S, ind.line_of(oracle), 0, 5000)
    share = ind.classification_agreement(checks._plus(closed), checks._plus(oracle), xs, ys)
    assert share >= checks.BOUNDARY_AGREEMENT


def test_near_line_points_separate_lines_a_small_offset_apart():
    line = ind.sloped_line(7.0, -0.7, PLUS)
    xs, ys = checks._near_line_points(S, line, 0, 20_000)
    assert np.all(np.abs(line.value(xs, ys)) <= 1.0 + 1e-9)
    shifted = ind.sloped_line(7.0, -0.7 + 0.01, PLUS)
    share = ind.classification_agreement(checks._line_plus(line), checks._line_plus(shifted),
                                         xs, ys)
    assert share < checks.BOUNDARY_AGREEMENT


def test_monte_carlo_check_accepts_a_split_run():
    plan = ms.plan_sequence(S, 4, 7.0, 12.0)
    priors, target = [bd for bd, _ in plan.versions[:2]], plan.versions[2][0]
    cfg = ms.AttackSampleConfig("ensemble", 3 * MC_BLOCK, 5)
    whole = mc_block_counts(S, priors, target, cfg, 0, 3)
    left = mc_block_counts(S, priors, target, cfg, 0, 1)
    right = mc_block_counts(S, priors, target, cfg, 1, 3)
    assert (left[0] + right[0], left[1] + right[1]) == whole
    accepted, hits = whole
    assert ind.mc_consistent(hits / accepted, accepted, plan.alpha)


def test_monte_carlo_check_rejects_what_it_should():
    sigma = math.sqrt(0.2 * 0.8 / 10_000)
    assert ind.mc_consistent(0.2 + 5.0 * sigma, 10_000, 0.2)
    assert not ind.mc_consistent(0.2 + 7.0 * sigma, 10_000, 0.2)
    assert not ind.mc_consistent(1e-4, 10_000, 0.0)
    assert ind.mc_consistent(0.0, 10_000, 0.0)


def test_line_of_reads_orientation_from_the_program():
    bd = ms.DecisionBoundary.sloped(7.0, -0.7, S)
    line = ind.line_of(bd)
    xs = np.array([-50.0, 0.0, 50.0])
    ys = np.array([0.0, 10.0, -10.0])
    assert np.array_equal(line.value(xs, ys) >= 0.0, bd.signed_value(xs, ys) >= 0.0)
    assert line.value(*PLUS) > 0.0
