import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from marginseq import (
    AttackSampleConfig,
    DecisionBoundary,
    DomainError,
    GeometryError,
    HalfPlane,
    ScenarioConfig,
    build_attackable_region,
    check_zero_transfer,
    closed_form_ar_area,
    compound_transferability,
    generate_candidate_pool,
    mc_transferability,
    plan_sequence,
    polygon_area,
    rectangle,
    union_area,
)
from marginseq import geometry, regions
from marginseq.regions import (
    MC_BLOCK,
    SCORE_BLOCK,
    Breach,
    guard_extent,
    mc_block_counts,
    mc_left_cut,
    paired_scores,
    planes_of,
    shares,
)
from marginseq.versioning import audit_sequence
from breach_reference import reference_breach, reference_score, reference_within
from guard_reference import reference_valid
from mc_reference import full_box_counts, per_target_counts
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
    ar = Breach.within(scenario, offset_boundary(scenario, 7.0, 0.7))
    left, sliver = ar.pieces
    assert polygon_area(left) == pytest.approx(817.96 / 14.0, rel=1e-12)
    assert polygon_area(sliver) == pytest.approx(2.965, rel=1e-12)
    assert ar.area == pytest.approx(AR1_AREA, rel=1e-12)
    assert round(ar.area, 2) == 61.39
    for piece in ar.pieces:
        for p in piece.vertices:
            assert p.x <= scenario.delta
            assert abs(p.y) <= scenario.y_lim


def test_mirror_region_same_area(scenario):
    bd1, bd2 = canonical_pair(scenario)
    assert Breach.within(scenario, bd1).area == pytest.approx(
        Breach.within(scenario, bd2).area, rel=1e-12
    )


def test_shifted_region_area(scenario):
    ar = Breach.within(scenario, offset_boundary(scenario, 7.0, 12.7))
    assert ar.area == pytest.approx(AR3_AREA, rel=1e-12)
    assert round(ar.area, 3) == 21.448


def test_vertical_region_area(scenario):
    ar = Breach.within(scenario, DecisionBoundary.vertical(-49.5, scenario))
    expected = (49.5 - 0.1) * 60.0 + 0.1 * 60.0
    assert ar.area == pytest.approx(expected, rel=1e-12)


def test_region_guard_violation(scenario):
    runaway = DecisionBoundary.vertical(150.0, scenario)  # "+" side covers both bands
    with pytest.raises(GeometryError):
        Breach.within(scenario, runaway)


def _entry_points(scenario, line):
    """Every route that takes a separator's guard, each called on line."""
    seed = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    sampled = AttackSampleConfig("ensemble", 2000, 3)
    return {
        "region": lambda: build_attackable_region(scenario, line),
        "breach-prior": lambda: Breach.of(scenario, [line]),
        "breach-within": lambda: Breach.within(scenario, line),
        "breach-target": lambda: Breach.of(scenario, seed).scores(planes_of([line])),
        "breach-chain": lambda: Breach.of(scenario, seed).chain([line]),
        "paired-target": lambda: paired_scores([Breach.of(scenario, seed)], planes_of([line])),
        # the sequence audit: line as a version the audit breaches, and as a target
        "exact-prior": lambda: audit_sequence(Breach.of(scenario, seed), [line, seed[0]]),
        "exact-scores": lambda: audit_sequence(Breach.of(scenario, seed), [line]),
        "mc-prior": lambda: mc_transferability(scenario, [line], seed[0], sampled),
        "mc-target": lambda: mc_transferability(scenario, seed, line, sampled),
    }


_INVALID_LINES = {
    # a = 0: the "+" side is unbounded on the left
    "horizontal": lambda s: DecisionBoundary.through(HalfPlane(0.0, 1.0, 5.0), s),
    # its real region is about 7e15, yet a clip of its left band under its own
    # guard has area 4.98
    "near-horizontal": lambda s: DecisionBoundary.through(
        HalfPlane(-3.522238128030671e-13, 1.0, 19.789357068308135), s),
    "overflowing-guard": lambda s: DecisionBoundary.through(HalfPlane(-1e-310, 1.0, 5.0), s),
    # clip_convex drops every vertex of its left band's clip under its own guard (an
    # area of about 1e16), as the clipped edges meet at about 3e-14 rad
    "sliver": lambda s: DecisionBoundary.through(HalfPlane(-3.39e-14, 1.0, 48.75), s),
}


@pytest.mark.parametrize("entry", ["region", "breach-prior", "breach-within", "breach-target",
                                   "breach-chain", "paired-target", "exact-prior", "exact-scores",
                                   "mc-prior", "mc-target"])
@pytest.mark.parametrize("name", sorted(_INVALID_LINES))
def test_invalid_separator_raises_at_every_entry_point(scenario, name, entry):
    call = _entry_points(scenario, _INVALID_LINES[name](scenario))[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="left guard"):
            call()


def test_breach_refuses_a_sliver_separator_before_any_clip(scenario, monkeypatch):
    # what keeps every library path off clip_convex's empty sliver
    line = _INVALID_LINES["sliver"](scenario)
    seed = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    breach = Breach.of(scenario, seed)
    clips = []
    for module in (geometry, regions):
        monkeypatch.setattr(module, "clip_convex",
                            lambda p, h, real=module.clip_convex: clips.append(h) or real(p, h))
    for kernel in ("clipped_areas", "clipped_area"):  # the batched and the scalar route
        monkeypatch.setattr(regions, kernel, lambda *args: clips.append(args))
    calls = {
        "within": lambda: Breach.within(scenario, line),
        "of": lambda: Breach.of(scenario, [*seed, line]),
        "extend": lambda: breach.extend(line),
        "scores": lambda: breach.scores(planes_of([line])),
    }
    for name, call in calls.items():
        with pytest.raises(GeometryError, match="left guard"):
            call()
        assert clips == [], name
    Breach.within(scenario, seed[0])  # a valid separator's clips are counted
    assert clips


def _swept_lines(scenario, n):
    """n seeded lines of each kind, each oriented by the "+" centroid."""
    rng = philox(1414)
    c = scenario.c
    kinds = {"typical": [], "a>0": [], "vertical": [], "near-horizontal": []}
    for _ in range(n):
        k = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1.5, 2.0))
        kinds["typical"].append(DecisionBoundary.sloped(k, float(rng.uniform(-40.0, 40.0)), scenario))
        # crosses y = 0 right of the "+" centroid, so its "+" side is bounded on the right
        crossing = float(rng.uniform(c + 1.0, 3.0 * c))
        kinds["a>0"].append(DecisionBoundary.sloped(k, -k * crossing, scenario))
        kinds["vertical"].append(DecisionBoundary.vertical(float(rng.uniform(-3.0 * c, 3.0 * c)),
                                                           scenario))
        a = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-14.0, -8.0))
        kinds["near-horizontal"].append(
            DecisionBoundary.through(HalfPlane(a, 1.0, float(rng.uniform(-60.0, 60.0))), scenario))
    return kinds


def _valid(call) -> bool:
    """False when call raises GeometryError; an undefined score, NaN, is a verdict of valid."""
    try:
        call()
    except GeometryError:
        return False
    return True


def test_guard_verdict_equals_the_clipped_reference_on_a_sweep(scenario):
    # the reference clips each line's region from its own left band, under a
    # guard that is finite on every swept line; guard_extent gives the same
    # verdict, and so does every entry point
    valid_counts = {}
    for kind, lines in _swept_lines(scenario, 500).items():
        planes = np.array([(bd.plus.a, bd.plus.b, bd.plus.c) for bd in lines])
        verdicts = np.array([_valid(lambda p=p: guard_extent(scenario, *p)) for p in planes])
        np.testing.assert_array_equal(verdicts, reference_valid(scenario, planes), err_msg=kind)
        for line, verdict in zip(lines, verdicts):
            for entry, call in _entry_points(scenario, line).items():
                assert _valid(call) == verdict, (kind, entry, line)
        valid_counts[kind] = int(verdicts.sum())
    assert valid_counts["a>0"] == 0
    assert all(0 < valid_counts[kind] < 500 for kind in ("typical", "vertical", "near-horizontal"))


def test_closed_form_examples(scenario):
    assert closed_form_ar_area(scenario, 7.0, 0.7) == pytest.approx(AR1_AREA, rel=1e-12)
    assert closed_form_ar_area(scenario, 7.0, 12.7) == pytest.approx(AR3_AREA, rel=1e-12)
    # triangle term vanishes continuously at b = y_lim - k*delta
    b_top = 30.0 - 0.7
    assert closed_form_ar_area(scenario, 7.0, b_top) == pytest.approx(0.105, rel=1e-12)
    ar = Breach.within(scenario, offset_boundary(scenario, 7.0, b_top))
    assert ar.area == pytest.approx(0.105, rel=1e-12)


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
        area = Breach.within(scenario, offset_boundary(scenario, k, b)).area
        assert abs(area - expected) <= 1e-9 * expected


def test_directional_examples(scenario):
    bd1, bd2 = canonical_pair(scenario)
    bd3 = offset_boundary(scenario, 7.0, 12.7)
    assert Breach.within(scenario, bd1).score(bd2) == 0.0
    assert Breach.within(scenario, bd2).score(bd1) == 0.0
    nested = Breach.within(scenario, bd1).score(bd3)
    assert nested == pytest.approx(AR3_AREA / AR1_AREA, rel=1e-12)
    assert round(nested, 4) == 0.3494
    assert Breach.within(scenario, bd1).score(bd1) == 1.0


def test_directional_undefined_for_empty_source(scenario):
    empty = Breach.within(scenario, offset_boundary(scenario, 7.0, 31.0))
    assert empty.area == 0.0
    assert math.isnan(empty.score(offset_boundary(scenario, 7.0, 0.7)))


def test_compound_examples(scenario):
    bd1, bd2 = canonical_pair(scenario)
    regions = [build_attackable_region(scenario, bd) for bd in (bd1, bd2)]
    bd3 = offset_boundary(scenario, 7.0, 12.7)
    target = build_attackable_region(scenario, bd3)
    score = compound_transferability(regions, target)
    assert score.value == pytest.approx(ALPHA_4, rel=1e-12)
    assert round(score.value, 2) == 0.17
    # single prior reduces to the directional ratio
    single = compound_transferability(regions[:1], target)
    assert single.value == pytest.approx(Breach.within(scenario, bd1).score(bd3), rel=1e-12)
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
        ar1 = Breach.within(scenario, bd1)
        ar2 = Breach.within(scenario, bd2)
        if ar1.area == 0.0 or ar2.area == 0.0:
            continue
        assert ar1.score(bd2) == 0.0
        assert ar2.score(bd1) == 0.0
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
    accepted, hits = mc_block_counts(scenario, [bd1, bd2], target, cfg, 0,
                                     -(-cfg.n_samples // MC_BLOCK))
    assert (repr(est.value), est.accepted) == (repr(hits / accepted), accepted)


def test_mc_undefined_when_priors_accept_nothing(scenario):
    empty_prior = offset_boundary(scenario, 7.0, 31.0)
    est = mc_transferability(
        scenario, [empty_prior], offset_boundary(scenario, 7.0, 0.7),
        AttackSampleConfig("ensemble", 100_000, 9),
    )
    assert math.isnan(est.value) and est.accepted == 0


@pytest.mark.parametrize("n_samples, accepted, value", [
    (3_000_000, 2, math.nan), (3_000_000, 3, 1 / 3), (100, 0, math.nan), (100, 1, 1.0)])
def test_mc_undefined_exactly_below_the_acceptance_floor(scenario, monkeypatch, n_samples,
                                                         accepted, value):
    # the floor is max(1, 1e-6 * n_samples) accepted samples; below it the estimate is NaN
    # and still carries its accepted count
    monkeypatch.setattr(regions, "mc_block_counts", lambda *a: (accepted, min(accepted, 1)))
    bd1, bd2 = canonical_pair(scenario)
    est = mc_transferability(scenario, [bd1], bd2, AttackSampleConfig("ensemble", n_samples, 1))
    assert (repr(est.value), est.accepted) == (repr(value), accepted)


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


def test_mc_counts_partition_merge_identity(scenario):
    # the seed pair, then a 15-prior plan prefix whose last 13 priors are dominated
    plan = [bd for bd, _ in plan_sequence(scenario, 16, 7.0, 12.0).versions]
    assert regions.undominated(plan[:15]) == plan[:2]
    for priors in (list(canonical_pair(scenario)), plan[:15]):
        # the last target's guard is deeper than the priors', yet it counts on their box
        targets = [offset_boundary(scenario, 7.0, 12.7), *priors[:2], plan[15],
                   DecisionBoundary.sloped(0.2, -1.0, scenario)]
        own = [guard_extent(scenario, t.plus.a, t.plus.b, t.plus.c) for t in targets]
        assert own[-1] > max(own[:-1])
        cfg = AttackSampleConfig("ensemble", 3 * MC_BLOCK + 1234, 77)
        n_blocks = -(-cfg.n_samples // MC_BLOCK)
        accepted = set()
        for target in targets:
            whole = mc_block_counts(scenario, priors, target, cfg, 0, n_blocks)
            left = mc_block_counts(scenario, priors, target, cfg, 0, 2)
            right = mc_block_counts(scenario, priors, target, cfg, 2, n_blocks)
            assert whole == (left[0] + right[0], left[1] + right[1])
            assert whole == per_target_counts(scenario, priors, target, cfg, n_blocks)
            accepted.add(whole[0])
        # every target counts its hits among the same accepted points
        assert len(accepted) == 1


def test_mc_counts_when_every_point_is_accepted(scenario):
    # a deep vertical prior accepts nearly every point drawn right of its cut,
    # more than half a block; each target counts its hits among all of them
    priors = [DecisionBoundary.vertical(-1e4, scenario)]
    targets = [*canonical_pair(scenario), DecisionBoundary.sloped(0.2, -1.0, scenario)]
    cfg = AttackSampleConfig("ensemble", MC_BLOCK + 1000, 78)
    for target in targets:
        counts = mc_block_counts(scenario, priors, target, cfg, 0, 2)
        assert MC_BLOCK // counts[0] == 1
        assert counts == per_target_counts(scenario, priors, target, cfg)


def _pool_subset(scenario, seed):
    """One to eight versions of the stock 50-candidate pool, drawn by seed."""
    pool = generate_candidate_pool(scenario, 50, seed=42)
    rng = philox(80, seed)
    chosen = rng.choice(len(pool.boundaries), int(rng.integers(1, 9)), replace=False)
    return [pool.boundaries[i] for i in chosen]


_CUT_PRIORS = {
    # nearly flat lines: the cut lies some 400 units deep, inside a 509-deep box
    "flat-down": lambda s: [DecisionBoundary.sloped(0.074, -0.3, s)],
    "flat-up": lambda s: [DecisionBoundary.sloped(-0.074, 0.3, s)],
    # the cut lies right of the whole left band: only sliver points are drawn
    "steep": lambda s: [DecisionBoundary.sloped(1000.0, -50.0, s)],
    # points on x = -3 itself are accepted
    "vertical": lambda s: [DecisionBoundary.vertical(-3.0, s)],
    "vertical-and-sloped": lambda s: [DecisionBoundary.vertical(-3.0, s),
                                      DecisionBoundary.sloped(-2.0, 1.0, s)],
    **{f"pool-subset-{i}": lambda s, i=i: _pool_subset(s, i) for i in range(6)},
}


@pytest.mark.parametrize("name", sorted(_CUT_PRIORS))
def test_mc_counts_equal_the_uncut_reference(scenario, name):
    priors = _CUT_PRIORS[name](scenario)
    targets = [*canonical_pair(scenario), DecisionBoundary.sloped(0.2, -1.0, scenario), priors[0]]
    cfg = AttackSampleConfig("ensemble", MC_BLOCK + 1000, 79)
    for target in targets:
        counts = mc_block_counts(scenario, priors, target, cfg, 0, 2)
        assert counts[0] > 0
        assert counts == per_target_counts(scenario, priors, target, cfg)


@pytest.mark.parametrize("name", sorted(_CUT_PRIORS))
def test_near_box_rates_agree_with_the_full_box(scenario, name):
    # the near box draws a binomial count for the left band, the full box
    # every point; pooled over seeds, their acceptance and hit rates agree
    priors = _CUT_PRIORS[name](scenario)
    targets = [*canonical_pair(scenario), DecisionBoundary.sloped(0.2, -1.0, scenario), priors[0]]
    near = np.zeros(1 + len(targets), dtype=np.int64)
    full = np.zeros_like(near)
    n_samples, n_seeds = 20_000, 40
    for seed in range(n_seeds):
        cfg = AttackSampleConfig("ensemble", n_samples, 500 + seed)
        counts = [mc_block_counts(scenario, priors, t, cfg, 0, 1) for t in targets]
        near += [counts[0][0], *(h for _, h in counts)]
        cfg = AttackSampleConfig("ensemble", n_samples, 600 + seed)
        counts = [full_box_counts(scenario, priors, t, cfg) for t in targets]
        full += [counts[0][0], *(h for _, h in counts)]
    assert near[0] > 0
    n = n_samples * n_seeds
    for k_near, k_full in zip(near, full):
        p = (k_near + k_full) / (2 * n)
        assert abs(k_near - k_full) / n <= 4.0 * math.sqrt(p * (1.0 - p) * 2.0 / n)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _half_plane_cases(draw):
    """(a, b, c, x, y): a finite half-plane and points of any float coordinates.

    Half the cases put c on or a few ulps from one point's a*x + b*y, where
    the three tests could part, and where a tiny s makes s - c subnormal.
    """
    a, b = draw(_FINITE), draw(_FINITE)
    n = draw(st.integers(1, 8))
    x = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))
    with np.errstate(all="ignore"):
        s = a * x + b * y
    finite = s[np.isfinite(s)].tolist()
    if finite and draw(st.booleans()):
        c = draw(st.sampled_from(finite))
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            c = math.nextafter(c, math.copysign(math.inf, steps))
        assume(math.isfinite(c))
    else:
        c = draw(_FINITE)
    return a, b, c, x, y


_TINY = 5e-324  # the least subnormal


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_half_plane_cases())
# signed zeros in every coefficient and coordinate
@example((-0.0, 0.0, -0.0, np.array([0.0, -0.0, -0.0]), np.array([-0.0, 0.0, -0.0])))
# s and c a subnormal apart, on either side, and equal
@example((1.0, 1.0, _TINY,
          np.array([0.0, 2 * _TINY, _TINY, -_TINY]), np.array([0.0, 0.0, 0.0, _TINY])))
# products that overflow to +inf and -inf, and inf - inf = NaN
@example((1e300, 1e300, 0.0,
          np.array([1e300, -1e300, 1e300, 1.0]), np.array([1.0, 1.0, -1e300, 1e300])))
# infinite and NaN coordinates, and a zero coefficient times inf
@example((0.0, 2.0, 1.0,
          np.array([math.inf, -math.inf, math.nan, 0.0]), np.array([0.0, 0.0, 0.0, math.inf])))
def test_half_plane_test_is_one_comparison(case):
    # the "+" side test, the hit test and mc_block_counts' three-pass test agree
    a, b, c, x, y = case
    with np.errstate(all="ignore"):
        plus_side = -(a * x + b * y - c) >= 0.0
        hit = a * x + b * y - c <= 0.0
        inside = regions._inside(a, b, c, x, y)
    np.testing.assert_array_equal(plus_side, hit)
    np.testing.assert_array_equal(hit, inside)


class _RecordedStream:
    """A block's generator that logs [trials, q, k, pairs drawn] per block."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def binomial(self, n, p):
        k = self.rng.binomial(n, p)
        self.log.append([n, p, int(k)])
        return k

    def random(self, shape):
        self.log[-1].append(shape[0])
        return self.rng.random(shape)


@pytest.mark.parametrize("name, n_samples", [
    ("steep", MC_BLOCK + 1000),
    ("deep-vertical", MC_BLOCK + 1000),
    ("pair", 1),
    ("pair", 1000),
    ("pair", 3 * MC_BLOCK + 1234),
])
def test_mc_counts_draw_only_right_of_the_cut(scenario, monkeypatch, name, n_samples):
    priors = {"steep": _CUT_PRIORS["steep"](scenario),
              "deep-vertical": [DecisionBoundary.vertical(-1e4, scenario)],
              "pair": list(canonical_pair(scenario))}[name]
    targets = [*canonical_pair(scenario), DecisionBoundary.sloped(0.2, -1.0, scenario), priors[0]]
    cfg = AttackSampleConfig("ensemble", n_samples, 81)
    n_blocks = -(-n_samples // MC_BLOCK)
    logs, counts = [], []
    philox_ = regions.philox
    for target in targets:
        log = []
        monkeypatch.setattr(regions, "philox",
                            lambda seed, j, log=log: _RecordedStream(philox_(seed, j), log))
        counts.append(mc_block_counts(scenario, priors, target, cfg, 0, n_blocks))
        logs.append(log)
    monkeypatch.undo()
    # the targets' calls draw the same stream
    assert all(log == logs[0] for log in logs)
    log = logs[0]
    assert len(log) == n_blocks
    sizes = [min(MC_BLOCK, n_samples - j * MC_BLOCK) for j in range(n_blocks)]
    # every block stands for its whole share of n_samples, left band and sliver
    for m, (trials, q, k, pairs) in zip(sizes, log):
        assert 1 <= trials <= m and pairs == m - trials + k
    q = log[0][1]
    if name == "steep":
        assert q == 0.0 and all(k == 0 for _, _, k, _ in log)
    elif name == "deep-vertical":
        assert q > 0.99
    else:
        assert 0.0 < q < 0.05
    for target, got in zip(targets, counts):
        assert got == per_target_counts(scenario, priors, target, cfg)


def test_every_region_vertex_lies_at_or_right_of_the_cut(scenario):
    # a clipped vertex can lie a few ulps left of the bare -reach; the cut's
    # margin keeps it in
    versions = [bd for bd, _ in plan_sequence(scenario, 40, 7.0, 12.0).versions]
    pool = generate_candidate_pool(scenario, 200, seed=5)
    for bd in [*versions, *pool.boundaries]:
        region = Breach.within(scenario, bd)
        guard = _guard(scenario, bd)
        cut = mc_left_cut(scenario, planes_of([bd]), guard)
        assert cut > -guard
        for piece in region.pieces:
            assert all(p.x >= cut for p in piece.vertices)


def test_mc_accepted_count_is_the_same_for_every_target(scenario):
    # candidates 11 and 46 have guards of their own, deeper than the breach's
    # and apart; both count hits on the points accepted in the breach's box
    pool = generate_candidate_pool(scenario, 50, seed=42)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    breached.append(pool.boundaries[16])
    targets = [pool.boundaries[11], pool.boundaries[46]]
    prior_guard = max(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c) for bd in breached)
    shallow, deep = (guard_extent(scenario, t.plus.a, t.plus.b, t.plus.c) for t in targets)
    assert prior_guard < shallow < deep
    cfg = AttackSampleConfig("ensemble", 20_000, 42)
    accepted = {mc_transferability(scenario, breached, t, cfg).accepted for t in targets}
    assert accepted == {202}


def test_sampled_scores_undefined_when_breach_accepts_nothing(scenario):
    empty_prior = offset_boundary(scenario, 7.0, 31.0)
    cfg = AttackSampleConfig("ensemble", 100_000, 9)
    for target in canonical_pair(scenario):
        assert math.isnan(mc_transferability(scenario, [empty_prior], target, cfg).value)


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
        compound_transferability([ar_a], ar_b)
    with pytest.raises(DomainError):
        compound_transferability([ar_b, ar_a], ar_a)
    with pytest.raises(DomainError):
        union_area([ar_a, ar_b])


def test_region_taking_functions_refuse_a_breach_of_several_versions(scenario):
    pair = Breach.of(scenario, list(canonical_pair(scenario)))
    target = build_attackable_region(scenario, offset_boundary(scenario, 7.0, 12.7))
    with pytest.raises(DomainError):
        compound_transferability([pair], target)
    with pytest.raises(DomainError):
        compound_transferability([target], pair)
    with pytest.raises(DomainError):
        union_area([pair])


def test_compound_matches_inclusion_exclusion_over_stock_pool(scenario):
    # The breach cuts its bands under the priors' deepest guard only; a target
    # with a deeper guard must still score S(T n U) = S(T) + S(U) - S(T u U).
    priors = [build_attackable_region(scenario, bd) for bd in canonical_pair(scenario)]
    prior_area = union_area(priors)
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    prior_guard = max(_guard(scenario, bd) for bd in canonical_pair(scenario))
    deeper = 0
    for boundary in pool.boundaries:
        target = build_attackable_region(scenario, boundary)
        deeper += _guard(scenario, boundary) > prior_guard
        overlap = target.area + prior_area - union_area(priors + [target])
        score = compound_transferability(priors, target)
        assert score.value == pytest.approx(overlap / prior_area, abs=1e-12)
    assert deeper > 0


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


def _planes(boundaries):
    return np.array([(bd.plus.a, bd.plus.b, bd.plus.c) for bd in boundaries])


def _guard(scenario, bd):
    return float(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c))


def _six_priors(scenario):
    return [*canonical_pair(scenario), *generate_candidate_pool(scenario, 4, 2.0, 7).boundaries]


def _assert_scores_match(breach, targets):
    got = breach.scores(_planes(targets))
    for value, target in zip(got, targets):
        want = reference_score(breach, target)
        assert not math.isnan(want)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-15)
        if want in (0.0, 1.0):
            assert value == want
    return got


@pytest.mark.parametrize("breach", [
    lambda s: Breach.of(s, list(canonical_pair(s))),
    lambda s: Breach.of(s, _six_priors(s)),
    lambda s: Breach.within(s, offset_boundary(s, 7.0, 0.7)),
], ids=["seed-pair", "six-priors", "one-region"])
def test_breach_scores_match_scalar_over_stock_pool(scenario, breach):
    breach = breach(scenario)
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    got = _assert_scores_match(breach, pool.boundaries)
    assert got.min() < got.max()


def test_breach_scores_near_origin_sliver(scenario):
    source = DecisionBoundary.sloped(-317.45126011347384, 2.8421709430404007e-13, scenario)
    target = DecisionBoundary.sloped(-6306.151366477757, 1.000444171950221e-11, scenario)
    for breach in (Breach.of(scenario, [source]), Breach.within(scenario, source)):
        _assert_scores_match(breach, [target, source])


def _assert_same_breach(got, want):
    assert repr((got.pieces, got.inside, got.area)) == repr((want.pieces, want.inside, want.area))


@pytest.mark.parametrize("name", [*sorted(_CUT_PRIORS), "six-priors"])
def test_breach_of_separators_matches_the_region_built_reference(scenario, name):
    priors = _six_priors(scenario) if name == "six-priors" else _CUT_PRIORS[name](scenario)
    _assert_same_breach(Breach.of(scenario, priors), reference_breach(scenario, priors))


@pytest.mark.parametrize("n", [3, 10, 40])
def test_breach_extend_matches_of_over_plan_prefixes(scenario, n):
    versions = [bd for bd, _ in plan_sequence(scenario, n, 7.0, 12.0).versions]
    breach = Breach.of(scenario, versions[:1])
    _assert_same_breach(breach, reference_breach(scenario, versions[:1]))
    for i in range(1, n):
        # stock plans keep the first guard
        assert _guard(scenario, versions[i]) <= _guard(scenario, versions[0])
        breach = breach.extend(versions[i])
        _assert_same_breach(breach, Breach.of(scenario, versions[: i + 1]))
        _assert_same_breach(breach, reference_breach(scenario, versions[: i + 1]))


def test_breach_extend_rebuilds_under_a_deeper_guard(scenario):
    priors = list(canonical_pair(scenario))
    breach = Breach.of(scenario, priors)
    prior_guard = max(_guard(scenario, bd) for bd in priors)
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    deeper = [bd for bd in pool.boundaries if _guard(scenario, bd) > prior_guard]
    assert deeper
    for bd in deeper:
        grown = breach.extend(bd)
        _assert_same_breach(grown, Breach.of(scenario, priors + [bd]))
        _assert_same_breach(grown, reference_breach(scenario, priors + [bd]))
        assert grown.pieces != breach.pieces


@pytest.mark.parametrize("bd", [
    lambda s: offset_boundary(s, 7.0, 0.7),
    lambda s: DecisionBoundary.vertical(-49.5, s),
    lambda s: DecisionBoundary.sloped(1000.0, -1000.0, s),
], ids=["sloped", "vertical", "zero-area"])
def test_breach_within_holds_the_region_of_its_separator(scenario, bd):
    bd = bd(scenario)
    within = Breach.within(scenario, bd)
    _assert_same_breach(within, reference_within(scenario, bd))
    assert within.priors == (bd,) and all(i.is_empty for i in within.inside)
    assert math.isnan(within.guard)


def test_breach_extend_domain_errors(scenario):
    bd = offset_boundary(scenario, 7.0, 0.7)
    with pytest.raises(DomainError):
        Breach.within(scenario, bd).extend(bd)
    with pytest.raises(DomainError):
        Breach.within(scenario, bd).chain([])


def _deeper_mid_chain(scenario):
    """The seed pair, then pool separators with one deeper-guard separator mid-sequence."""
    seed = list(canonical_pair(scenario))
    seed_guard = max(_guard(scenario, bd) for bd in seed)
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42).boundaries
    shallow = [bd for bd in pool if _guard(scenario, bd) <= seed_guard]
    deeper = [bd for bd in pool if _guard(scenario, bd) > seed_guard]
    return seed, [*shallow[:6], deeper[0], *shallow[6:10], deeper[1], *shallow[10:12]]


def test_breach_chain_matches_successive_of(scenario):
    seed, sequence = _deeper_mid_chain(scenario)
    chain = Breach.of(scenario, seed).chain(sequence)
    assert len(chain) == len(sequence) + 1
    rebuilt = 0
    for i, breach in enumerate(chain):
        want = Breach.of(scenario, seed + sequence[:i])
        _assert_same_breach(breach, want)
        assert (breach.priors, breach.guard) == (want.priors, want.guard)
        rebuilt += i > 0 and breach.guard > chain[i - 1].guard
    # the deeper separators rebuild the bands, the last of them mid-chain
    assert rebuilt == 2 and chain[-1].guard > chain[len(sequence) - 3].guard
    grown = chain[0]
    for bd in sequence:
        grown = grown.extend(bd)
    _assert_same_breach(grown, chain[-1])


def test_breach_chain_of_nothing_is_the_breach_itself(scenario):
    breach = Breach.of(scenario, list(canonical_pair(scenario)))
    assert breach.chain([]) == [breach]


def _paired_rows(scenario):
    """Breaches and targets of a mixed paired call: chained breaches,
    single-region breaches and zero-area breaches, more rows than SCORE_BLOCK."""
    seed, sequence = _deeper_mid_chain(scenario)
    pool = generate_candidate_pool(scenario, 60, 2.0, seed=5).boundaries
    chained = Breach.of(scenario, seed).chain(sequence)
    within = [Breach.within(scenario, bd) for bd in pool[:8]]
    empty = Breach.of(scenario, [DecisionBoundary.sloped(1000.0, -1000.0, scenario)])
    kinds = [*chained, *within, empty]
    rng = philox(1919)
    breaches = [kinds[i] for i in rng.integers(0, len(kinds), SCORE_BLOCK + 45)]
    targets = [pool[i] for i in rng.integers(0, len(pool), len(breaches))]
    return breaches, targets


def test_paired_scores_equal_per_row_scores(scenario):
    breaches, targets = _paired_rows(scenario)
    got = paired_scores(breaches, planes_of(targets))
    want = np.array([b.scores(planes_of([t]))[0] for b, t in zip(breaches, targets)])
    assert repr(got.tolist()) == repr(want.tolist())
    assert np.isnan(got).any() and not np.isnan(got).all()
    assert got[~np.isnan(got)].min() < got[~np.isnan(got)].max()


@pytest.mark.parametrize("block", [1, 7, SCORE_BLOCK])
def test_shared_and_per_row_polygons_score_the_same_bits_in_any_block(scenario, monkeypatch,
                                                                      block):
    # one breach's polygons broadcast over the rows, or repeated as one row each
    seed, sequence = _deeper_mid_chain(scenario)
    breaches = Breach.of(scenario, seed).chain(sequence)
    planes = planes_of(generate_candidate_pool(scenario, 60, 2.0, seed=5).boundaries)
    want = [repr(breach.scores(planes).tolist()) for breach in breaches]
    monkeypatch.setattr(regions, "SCORE_BLOCK", block)
    for breach, expected in zip(breaches, want):
        held = regions.plus_band_areas(scenario, breach.guard, planes)
        assert repr(breach.scores(planes).tolist()) == expected
        assert repr(shares(breach.exposed(planes, held), breach.area).tolist()) == expected
        assert repr(paired_scores([breach] * len(planes), planes).tolist()) == expected


def test_calls_on_each_side_of_the_scalar_crossover_score_the_same_bits(scenario,
                                                                        monkeypatch):
    # few cells are scored one at a time, many by the batched kernel: shared rows, held
    # band areas and per-row breaches give every row the bits of one 60-row kernel call
    seed, sequence = _deeper_mid_chain(scenario)
    planes = planes_of(generate_candidate_pool(scenario, 60, 2.0, seed=5).boundaries)
    routes = []
    for kernel in ("clipped_areas", "clipped_area"):
        monkeypatch.setattr(regions, kernel, lambda *args, real=getattr(regions, kernel),
                            name=kernel: routes.append(name) or real(*args))
    for breach in Breach.of(scenario, seed).chain(sequence):
        whole = breach.scores(planes).tolist()
        for rows in (1, 2, 3, 5, 6, 7, 8, 12, 13, 24, 25):
            part, held = planes[:rows], regions.plus_band_areas(scenario, breach.guard,
                                                                planes[:rows])
            for got in (breach.scores(part), paired_scores([breach] * rows, part),
                        shares(breach.exposed(part, held), breach.area)):
                assert repr(got.tolist()) == repr(whole[:rows])
    assert {"clipped_areas", "clipped_area"} <= set(routes)


def test_a_clip_keeping_a_corner_1e_9_wide_keeps_its_order(scenario):
    # the sliver band's clip keeps a corner about 1e-9 wide near (0.1, 30) whose shoelace
    # rounds negative: clip_convex reversed it and refused it as not convex
    line = DecisionBoundary.sloped(-22.353882690234826, 32.2353882687472, scenario)
    bands = regions.plus_band_areas(scenario, regions.deepest_guard(scenario, [line]),
                                    planes_of([line]))[0]
    assert bands.tolist() == [0.0, 2.220446049250313e-16]
    assert repr(Breach.within(scenario, line).area) == repr(float(bands[0] + bands[1]))


def test_paired_scores_domain_errors(scenario):
    seed = list(canonical_pair(scenario))
    breach = Breach.of(scenario, seed)
    assert paired_scores([], planes_of([])).shape == (0,)
    with pytest.raises(DomainError):
        paired_scores([breach], planes_of(seed))
    other = ScenarioConfig(50.0, 0.1, 30.0)
    elsewhere = Breach.of(other, [DecisionBoundary.sloped(7.0, -0.7, other)])
    with pytest.raises(DomainError):
        paired_scores([breach, elsewhere], planes_of(seed))


def test_paired_scores_reject_one_invalid_row(scenario):
    breaches, targets = _paired_rows(scenario)
    targets[SCORE_BLOCK + 7] = _INVALID_LINES["near-horizontal"](scenario)
    with pytest.raises(GeometryError, match="left guard"):
        paired_scores(breaches, planes_of(targets))


def test_breach_scores_undefined_for_empty_breach(scenario):
    # this version's "+" side misses both "-" bands, so it exposes nothing
    breach = Breach.of(scenario, [DecisionBoundary.sloped(1000.0, -1000.0, scenario)])
    assert breach.area == 0.0
    assert np.isnan(breach.scores(_planes(canonical_pair(scenario)))).all()


def _with_c(bd, c):
    """bd's "+" normal (a, b) with another c: a parallel shift, oriented as bd is."""
    return DecisionBoundary(HalfPlane(bd.plus.a, bd.plus.b, c))


def _dominance_case(scenario, name):
    """(separators, the undominated ones) of one edge of the dominance rule."""
    bd1, bd2 = canonical_pair(scenario)
    c1 = bd1.plus.c
    vertical = DecisionBoundary.vertical(-3.0, scenario)
    if name == "duplicate":
        return [bd1, bd2, bd1], [bd1, bd2]
    if name == "ulp-inward":
        return [bd1, bd2, _with_c(bd1, math.nextafter(c1, -math.inf))], [bd1, bd2]
    if name == "ulp-outward":
        wider = _with_c(bd1, math.nextafter(c1, math.inf))
        return [bd1, bd2, wider], [bd1, bd2, wider]
    if name == "dominated-first":
        inner = _with_c(bd1, c1 - 5.0)
        return [inner, bd2, bd1, _with_c(bd1, c1 - 2.0)], [inner, bd2, bd1]
    if name == "vertical-signed-zero":
        mirrored = vertical.mirrored()
        assert math.copysign(1.0, vertical.plus.b) != math.copysign(1.0, mirrored.plus.b)
        return [vertical, bd1, mirrored], [vertical, bd1]
    if name == "deeper-guard":
        # x >= 150 lies inside x >= -3 but reaches deeper, so its guard rebuilds the bands
        far = _with_c(vertical, -150.0)
        assert _guard(scenario, far) > max(_guard(scenario, bd) for bd in (vertical, bd1, bd2))
        return [vertical, bd1, bd2, far, _with_c(bd2, bd2.plus.c - 1.0)], [vertical, bd1, bd2]
    raise KeyError(name)


_DOMINANCE = ["duplicate", "ulp-inward", "ulp-outward", "dominated-first",
              "vertical-signed-zero", "deeper-guard"]


def _assert_chain_matches_reference(scenario, separators, prefixes):
    """Breach.of and every prefix of Breach.chain against the breach clipped by every separator."""
    chain = Breach.of(scenario, separators[:1]).chain(separators[1:])
    for i in prefixes:
        want = reference_breach(scenario, separators[:i])
        _assert_same_breach(chain[i - 1], want)
        _assert_same_breach(Breach.of(scenario, separators[:i]), want)
        assert chain[i - 1].priors == tuple(separators[:i])
    return chain


def _assert_mc_matches_reference(scenario, priors, targets, n_samples):
    cfg = AttackSampleConfig("ensemble", n_samples, 83)
    for target in targets:
        counts = mc_block_counts(scenario, priors, target, cfg, 0, 1)
        assert counts[0] > 0
        assert counts == per_target_counts(scenario, priors, target, cfg)


@pytest.mark.parametrize("name", _DOMINANCE)
def test_dominated_separators_leave_breach_and_counts_bit_for_bit(scenario, name):
    separators, kept = _dominance_case(scenario, name)
    assert regions.undominated(separators) == kept
    chain = _assert_chain_matches_reference(scenario, separators, range(1, len(separators) + 1))
    if name == "deeper-guard":
        assert chain[3].guard > chain[2].guard and chain[3].inside != chain[2].inside
    targets = [*canonical_pair(scenario), DecisionBoundary.sloped(0.2, -1.0, scenario),
               *separators]
    _assert_mc_matches_reference(scenario, separators, targets, MC_BLOCK // 4)


@pytest.mark.parametrize("n", [*range(3, 41), 1000])
def test_stock_plans_match_the_every_separator_references(scenario, n):
    versions = [bd for bd, _ in plan_sequence(scenario, n, 7.0, 12.0).versions]
    # every later version is a parallel shift of version 1 or 2
    assert regions.undominated(versions) == versions[:2]
    prefixes = range(1, n + 1) if n <= 40 else [1, 2, 3, 4, 97, 500, 999, 1000]
    _assert_chain_matches_reference(scenario, versions, prefixes)
    targets = [versions[-1], versions[2], DecisionBoundary.sloped(0.2, -1.0, scenario)]
    _assert_mc_matches_reference(scenario, versions[:-1], targets, MC_BLOCK // 8)


def test_chain_clips_only_by_undominated_separators(scenario, monkeypatch):
    versions = [bd for bd, _ in plan_sequence(scenario, 40, 7.0, 12.0).versions]
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42).boundaries
    shallow = [bd for bd in pool if _guard(scenario, bd) <= _guard(scenario, versions[0])][:5]
    seed = Breach.of(scenario, versions[:2])
    clips = []
    real = regions.clip_convex
    monkeypatch.setattr(regions, "clip_convex", lambda p, h: clips.append(h) or real(p, h))
    seed.chain(versions[2:])
    assert clips == []
    grown = seed.chain(shallow)
    # one clip per inside polygon not yet empty: the sliver band's empties at the first
    assert len(clips) == sum(not i.is_empty for b in grown[:-1] for i in b.inside) == 6


def test_band_rectangles_are_built_once_per_guard(scenario):
    bands = regions.band_rectangles(scenario, 250.0)
    assert regions.band_rectangles(scenario, 250.0) is bands
    y = scenario.y_lim
    assert bands == (rectangle(-250.0, -scenario.delta, -y, y), rectangle(0.0, scenario.delta, -y, y))
