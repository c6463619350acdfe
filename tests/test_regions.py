import math

import pytest

from marginseq import (
    AttackSampleConfig,
    DecisionBoundary,
    DomainError,
    GeometryError,
    UndefinedEstimateError,
    build_attackable_region,
    cautious_transferability,
    check_zero_transfer,
    closed_form_ar_area,
    compound_transferability,
    directional_transferability,
    mc_transferability,
    polygon_area,
    region_area,
    union_area,
)
from marginseq.regions import MC_BLOCK, mc_block_counts
from seeded_rng import philox

AR1_AREA = 61.390714285714285  # boundary y = 7x - 0.7
AR3_AREA = 21.447857142857142  # boundary y = 7x - 12.7
ALPHA_4 = AR3_AREA / (2.0 * AR1_AREA)


def offset_boundary(scenario, k: float, offset: float) -> DecisionBoundary:
    """Boundary y = k*x - offset in the downward-offset parameterization."""
    return DecisionBoundary.sloped(k, -offset, scenario)


def canonical_pair(scenario):
    d = scenario.delta
    return (
        DecisionBoundary.sloped(7.0, -7.0 * d, scenario),
        DecisionBoundary.sloped(-7.0, 7.0 * d, scenario),
    )


def test_canonical_region_pieces(scenario):
    ar = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 0.7))
    left, sliver = ar.pieces
    assert polygon_area(left) == pytest.approx(817.96 / 14.0, rel=1e-12)
    assert polygon_area(sliver) == pytest.approx(2.965, rel=1e-12)
    assert region_area(ar) == pytest.approx(AR1_AREA, rel=1e-12)
    assert round(region_area(ar), 2) == 61.39
    for piece in ar.pieces:
        for p in piece.vertices:
            assert p.x <= scenario.delta
            assert abs(p.y) <= scenario.y_lim


def test_mirror_region_same_area(scenario):
    bd1, bd2 = canonical_pair(scenario)
    assert region_area(build_attackable_region(scenario, bd1)) == pytest.approx(
        region_area(build_attackable_region(scenario, bd2)), rel=1e-12
    )


def test_shifted_region_area(scenario):
    ar = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7))
    assert region_area(ar) == pytest.approx(AR3_AREA, rel=1e-12)
    assert round(region_area(ar), 3) == 21.448


def test_vertical_region_area(scenario):
    ar = build_attackable_region(scenario, DecisionBoundary.vertical(-49.5, scenario))
    expected = (49.5 - 0.1) * 60.0 + 0.1 * 60.0
    assert region_area(ar) == pytest.approx(expected, rel=1e-12)


def test_region_guard_violation(scenario):
    runaway = DecisionBoundary.vertical(150.0, scenario)  # "+" side covers both bands
    with pytest.raises(GeometryError):
        build_attackable_region(scenario, runaway)


def test_closed_form_examples(scenario):
    assert closed_form_ar_area(scenario, 7.0, 0.7) == pytest.approx(AR1_AREA, rel=1e-12)
    assert closed_form_ar_area(scenario, 7.0, 12.7) == pytest.approx(AR3_AREA, rel=1e-12)
    # triangle term vanishes continuously at b = y_lim - k*delta
    b_top = 30.0 - 0.7
    assert closed_form_ar_area(scenario, 7.0, b_top) == pytest.approx(0.105, rel=1e-12)
    ar = build_attackable_region(scenario, offset_boundary(scenario, 7.0, b_top))
    assert region_area(ar) == pytest.approx(0.105, rel=1e-12)


def test_closed_form_domain_errors(scenario):
    with pytest.raises(DomainError):
        closed_form_ar_area(scenario, -7.0, 0.7)
    with pytest.raises(DomainError):
        closed_form_ar_area(scenario, 7.0, 0.0)
    with pytest.raises(DomainError):
        closed_form_ar_area(scenario, 7.0, 29.4)


def test_closed_form_matches_polygon_fuzz(scenario):
    rng = philox(900)
    for _ in range(200):
        k = float(rng.uniform(0.2, 20.0))
        top = scenario.y_lim - k * scenario.delta
        if top <= 0.0:
            continue
        b = float(rng.uniform(1e-6, top))
        expected = closed_form_ar_area(scenario, k, b)
        area = region_area(build_attackable_region(scenario, offset_boundary(scenario, k, b)))
        assert abs(area - expected) <= 1e-9 * expected


def test_directional_examples(scenario):
    bd1, bd2 = canonical_pair(scenario)
    ar1 = build_attackable_region(scenario, bd1)
    ar2 = build_attackable_region(scenario, bd2)
    ar3 = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7))
    assert directional_transferability(ar1, ar2).value == 0.0
    assert directional_transferability(ar2, ar1).value == 0.0
    nested = directional_transferability(ar1, ar3)
    assert nested.value == pytest.approx(AR3_AREA / AR1_AREA, rel=1e-12)
    assert round(nested.value, 4) == 0.3494
    assert directional_transferability(ar1, ar1).value == 1.0


def test_directional_undefined_for_empty_source(scenario):
    empty = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 31.0))
    assert region_area(empty) == 0.0
    other = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 0.7))
    assert not directional_transferability(empty, other).defined


def test_compound_examples(scenario):
    bd1, bd2 = canonical_pair(scenario)
    regions = [build_attackable_region(scenario, bd) for bd in (bd1, bd2)]
    target = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7))
    score = compound_transferability(regions, target)
    assert score.value == pytest.approx(ALPHA_4, rel=1e-12)
    assert round(score.value, 2) == 0.17
    # single prior reduces to the directional ratio
    single = compound_transferability(regions[:1], target)
    assert single.value == pytest.approx(
        directional_transferability(regions[0], target).value, rel=1e-12
    )
    # disjoint target
    assert compound_transferability([regions[0]], regions[1]).value == 0.0


def test_union_area_complement_identity(scenario):
    bd1, bd2 = canonical_pair(scenario)
    regions = [build_attackable_region(scenario, bd) for bd in (bd1, bd2)]
    assert union_area(regions) == pytest.approx(2.0 * AR1_AREA, rel=1e-9)
    nested = [
        build_attackable_region(scenario, offset_boundary(scenario, 7.0, 0.7)),
        build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7)),
    ]
    assert union_area(nested) == pytest.approx(AR1_AREA, rel=1e-9)


def test_cautious_examples(scenario):
    bd1, bd2 = canonical_pair(scenario)
    mirrored = [build_attackable_region(scenario, bd) for bd in (bd1, bd2)]
    target = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7))
    assert not cautious_transferability(mirrored, target).defined

    single = cautious_transferability(mirrored[:1], target)
    assert round(single.value, 4) == 0.3494

    chain = [
        build_attackable_region(scenario, offset_boundary(scenario, 7.0, 0.7)),
        build_attackable_region(scenario, offset_boundary(scenario, 7.0, 4.7)),
    ]
    score = cautious_transferability(chain, target)
    mid_area = closed_form_ar_area(scenario, 7.0, 4.7)
    assert score.value == pytest.approx(AR3_AREA / mid_area, rel=1e-12)
    assert round(score.value, 4) == 0.4684


def test_check_zero_transfer(scenario):
    bd1, bd2 = canonical_pair(scenario)
    assert check_zero_transfer(bd1, bd2, scenario)
    same_sign = offset_boundary(scenario, 7.0, 12.7)
    assert not check_zero_transfer(bd1, same_sign, scenario)
    low_cross = DecisionBoundary.sloped(-7.0, -20.0, scenario)  # x_I = -1.379 < delta
    assert not check_zero_transfer(bd1, low_cross, scenario)
    with pytest.raises(DomainError):
        check_zero_transfer(bd1, DecisionBoundary.vertical(-49.5, scenario), scenario)


def test_zero_transfer_soundness_fuzz(scenario):
    rng = philox(901)
    checked = 0
    while checked < 30:
        k1 = float(rng.uniform(0.5, 10.0))
        k2 = -float(rng.uniform(0.5, 10.0))
        x_i = float(rng.uniform(scenario.delta, 1.0))
        y_i = float(rng.uniform(-8.0, 8.0))
        bd1 = DecisionBoundary.sloped(k1, y_i - k1 * x_i, scenario)
        bd2 = DecisionBoundary.sloped(k2, y_i - k2 * x_i, scenario)
        assert check_zero_transfer(bd1, bd2, scenario)
        ar1 = build_attackable_region(scenario, bd1)
        ar2 = build_attackable_region(scenario, bd2)
        if region_area(ar1) == 0.0 or region_area(ar2) == 0.0:
            continue
        assert directional_transferability(ar1, ar2).value == 0.0
        assert directional_transferability(ar2, ar1).value == 0.0
        checked += 1


def test_mirror_invariance_of_scores(scenario):
    rng = philox(902)
    for _ in range(20):
        ks = rng.uniform(0.5, 9.0, 3)
        bs = rng.uniform(-10.0, 10.0, 3)
        boundaries = [DecisionBoundary.sloped(float(k), float(b), scenario) for k, b in zip(ks, bs)]
        mirrored = [bd.mirrored() for bd in boundaries]
        regions = [build_attackable_region(scenario, bd) for bd in boundaries]
        regions_m = [build_attackable_region(scenario, bd) for bd in mirrored]
        a = compound_transferability(regions[:2], regions[2])
        b = compound_transferability(regions_m[:2], regions_m[2])
        assert a.defined == b.defined
        if a.defined:
            assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-12)


def test_mc_zero_and_self_transfer(scenario):
    bd1, bd2 = canonical_pair(scenario)
    cfg = AttackSampleConfig("ensemble", 200_000, 4242)
    assert mc_transferability(scenario, [bd1], bd2, cfg).value == 0.0
    assert mc_transferability(scenario, [bd1], bd1, cfg).value == 1.0


def test_mc_matches_exact_compound(scenario):
    bd1, bd2 = canonical_pair(scenario)
    target = offset_boundary(scenario, 7.0, 12.7)
    cfg = AttackSampleConfig("ensemble", 1_000_000, 31337)
    est = mc_transferability(scenario, [bd1, bd2], target, cfg)
    sigma = math.sqrt(ALPHA_4 * (1.0 - ALPHA_4) / est.accepted)
    assert abs(est.value - ALPHA_4) <= 3.0 * sigma
    assert est.half_width > 0.0


def test_mc_cautious_mode(scenario):
    priors = [offset_boundary(scenario, 7.0, 0.7), offset_boundary(scenario, 7.0, 4.7)]
    target = offset_boundary(scenario, 7.0, 12.7)
    cfg = AttackSampleConfig("cautious", 1_000_000, 555)
    est = mc_transferability(scenario, priors, target, cfg)
    exact = AR3_AREA / closed_form_ar_area(scenario, 7.0, 4.7)
    sigma = math.sqrt(exact * (1.0 - exact) / est.accepted)
    assert abs(est.value - exact) <= 3.0 * sigma


def test_mc_undefined_when_priors_accept_nothing(scenario):
    empty_prior = offset_boundary(scenario, 7.0, 31.0)
    with pytest.raises(UndefinedEstimateError):
        mc_transferability(
            scenario, [empty_prior], offset_boundary(scenario, 7.0, 0.7),
            AttackSampleConfig("ensemble", 100_000, 9),
        )


def test_mc_partition_merge_identity(scenario):
    bd1, bd2 = canonical_pair(scenario)
    target = offset_boundary(scenario, 7.0, 12.7)
    cfg = AttackSampleConfig("ensemble", 3 * MC_BLOCK + 1234, 77)
    n_blocks = -(-cfg.n_samples // MC_BLOCK)
    whole = mc_block_counts(scenario, [bd1, bd2], target, cfg, 0, n_blocks)
    split = tuple(
        sum(parts)
        for parts in zip(
            mc_block_counts(scenario, [bd1, bd2], target, cfg, 0, 2),
            mc_block_counts(scenario, [bd1, bd2], target, cfg, 2, n_blocks),
        )
    )
    assert whole == split


def test_mc_seed_determinism(scenario):
    bd1, bd2 = canonical_pair(scenario)
    cfg = AttackSampleConfig("ensemble", 100_000, 123)
    a = mc_transferability(scenario, [bd1, bd2], bd1, cfg)
    b = mc_transferability(scenario, [bd1, bd2], bd1, cfg)
    assert a == b
    other = mc_transferability(
        scenario, [bd1, bd2], bd1, AttackSampleConfig("ensemble", 100_000, 124)
    )
    assert other.accepted != a.accepted or other.value != a.value


def test_sample_config_validation():
    with pytest.raises(DomainError):
        AttackSampleConfig("sneaky", 10, 0)
    with pytest.raises(DomainError):
        AttackSampleConfig("ensemble", -1, 0)
    with pytest.raises(DomainError):
        AttackSampleConfig("ensemble", 10, 2**64)


def test_scenario_mismatch_rejected(scenario):
    other = type(scenario)(90.0, 0.1, 30.0)
    ar_a = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 0.7))
    ar_b = build_attackable_region(other, offset_boundary(other, 7.0, 0.7))
    with pytest.raises(DomainError):
        directional_transferability(ar_a, ar_b)


def test_compound_near_origin_sliver_clip(scenario):
    # Two tangent-branch lines pass within ~1e-11 of the sliver band's left
    # edge midpoint; clipping the band used to emit a backtracking crossing.
    prior = build_attackable_region(
        scenario, DecisionBoundary.sloped(-317.45126011347384, 2.8421709430404007e-13, scenario)
    )
    target = build_attackable_region(
        scenario, DecisionBoundary.sloped(-6306.151366477757, 1.000444171950221e-11, scenario)
    )
    score = compound_transferability([prior], target)
    assert score.defined
    assert score.value == pytest.approx(1.0, abs=1e-12)
