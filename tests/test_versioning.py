import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginseq import (
    AttackSampleConfig,
    CandidatePool,
    DecisionBoundary,
    DomainError,
    GeometryError,
    HalfPlane,
    HiddenPoint,
    PoolExhaustedError,
    ScenarioConfig,
    TransferabilityScore,
    UndefinedEstimateError,
    anchor_admissible,
    boundary_from_hidden,
    build_attackable_region,
    check_boundary_feasibility,
    compound_transferability,
    find_bmax,
    generate_candidate_pool,
    greedy_select_next,
    mc_transferability,
    plan_sequence,
    random_baseline_sequence,
    reconstruct_hidden_point,
    verify_plan,
)
from marginseq import geometry, regions, versioning
from marginseq.geometry import clipped_areas
from marginseq.regions import Breach, guard_extent
from marginseq.versioning import (
    BMAX_TOL,
    admissible_share,
    audit_sequence,
    draw_hidden_points,
    select_next,
)
from breach_reference import reference_score, reference_verify_plan
from mc_reference import per_target_counts
from seeded_rng import philox

EXACT = AttackSampleConfig("ensemble", 0, 0)

# Anchor coordinates of the boundary y = 7x - 0.7 (reflection of the "-"
# disk support point across the line), and the alpha ladder of the
# alternating construction at k = 7, b_max = 12.
ANCHOR_V = 95.20605050633883
ANCHOR_W = -27.88657864376269
ALPHAS = {2: 0.0, 4: 0.17468, 6: 0.31640, 8: 0.37294, 10: 0.40296}


def test_reconstruct_canonical_anchor(scenario):
    h = reconstruct_hidden_point(scenario, 7.0, -0.7)
    assert h.v == pytest.approx(ANCHOR_V, abs=1e-10)
    assert h.w == pytest.approx(ANCHOR_W, abs=1e-10)


def test_reconstruct_mirror_symmetry(scenario):
    h = reconstruct_hidden_point(scenario, 7.0, -0.7)
    m = reconstruct_hidden_point(scenario, -7.0, 0.7)
    assert m.v == h.v and m.w == -h.w


def test_reconstruct_rejects_out_of_band(scenario):
    with pytest.raises(DomainError):
        reconstruct_hidden_point(scenario, 7.0, -20.0)
    with pytest.raises(DomainError):
        reconstruct_hidden_point(scenario, 0.0, 1.0)


def test_feasibility_flags_canonical(scenario):
    # The downward-offset boundary family is never realizable: its anchor
    # sits in the band (constraints 1-2) but the tangent face occludes it
    # (constraint 3), and the trained separator snaps to the tangent midline.
    report = check_boundary_feasibility(scenario, 7.0, -0.7)
    assert (report.constraint_1, report.constraint_2, report.constraint_3) == (True, True, False)
    assert not report.feasible
    assert report.reconstructed_h is None

    boundary, deriv = boundary_from_hidden(
        scenario, reconstruct_hidden_point(scenario, 7.0, -0.7)
    )
    assert deriv.case_tag == "w_neg_tangent"
    assert boundary.k == pytest.approx(7.368081548735, rel=1e-9)
    assert abs(boundary.b) < 1e-10


def test_feasibility_positive_side(scenario):
    # realizable boundaries keep the x-axis crossing at or left of the origin;
    # small slopes need large intercepts before the anchor re-enters the strip
    for k, b in ((7.0, 0.7), (7.0, 40.0), (3.0, 160.0), (-5.0, -115.0)):
        report = check_boundary_feasibility(scenario, k, b)
        assert report.feasible, (k, b)
        boundary, _ = boundary_from_hidden(scenario, report.reconstructed_h)
        assert boundary.kind == "sloped"
        assert boundary.k == pytest.approx(k, rel=1e-9)
        assert boundary.b == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_feasibility_near_horizontal_fails(scenario):
    report = check_boundary_feasibility(scenario, 0.01, 0.0)
    assert not report.feasible
    assert not report.constraint_3 or not report.constraint_1


def test_feasibility_mirror_consistency(scenario):
    a = check_boundary_feasibility(scenario, 7.0, -0.7)
    b = check_boundary_feasibility(scenario, -7.0, 0.7)
    assert (a.feasible, a.constraint_1, a.constraint_2, a.constraint_3) == (
        b.feasible, b.constraint_1, b.constraint_2, b.constraint_3,
    )


def test_feasibility_requires_nonzero_slope(scenario):
    with pytest.raises(DomainError):
        check_boundary_feasibility(scenario, 0.0, 1.0)


def test_round_trip_fuzz(scenario):
    rng = philox(1001)
    found = 0
    while found < 100:
        k = float(rng.uniform(0.2, 12.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.uniform(0.0, 200.0)) * math.copysign(1.0, k)
        report = check_boundary_feasibility(scenario, k, b)
        if not report.feasible:
            continue
        found += 1
        boundary, _ = boundary_from_hidden(scenario, report.reconstructed_h)
        assert abs(boundary.k - k) <= 1e-6 * max(1.0, abs(k))
        assert abs(boundary.b - b) <= 1e-6 * max(1.0, abs(b))


def test_find_bmax_value(scenario):
    b_max = find_bmax(scenario, 7.0)
    assert b_max > 12.0
    assert b_max == pytest.approx(14.249819, abs=1e-4)


def test_find_bmax_monotone_in_k(scenario):
    # decreasing in k once the band constraint binds (k >= 7 here); below
    # that the strip constraint takes over and eventually rejects the base
    values = [find_bmax(scenario, k) for k in (7.0, 8.0, 9.0)]
    assert values[0] > values[1] > values[2]
    with pytest.raises(DomainError):
        find_bmax(scenario, 6.0)


def test_find_bmax_bisection_contract(scenario):
    b_max = find_bmax(scenario, 7.0)
    assert anchor_admissible(scenario, 7.0, -b_max)
    assert not anchor_admissible(scenario, 7.0, -(b_max + 2.0 * BMAX_TOL))


def test_find_bmax_domain_errors(scenario):
    with pytest.raises(DomainError):
        find_bmax(scenario, -7.0)
    with pytest.raises(DomainError):
        find_bmax(scenario, 0.05)  # base boundary anchor far outside the band


def test_plan_two_versions(scenario):
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    (bd1, _), (bd2, _) = plan.versions
    assert (bd1.k, bd1.b) == (7.0, -(7.0 * scenario.delta))
    assert (bd2.k, bd2.b) == (-7.0, 7.0 * scenario.delta)
    assert plan.alpha == 0.0
    assert plan.n_tiers == 0


def test_plan_tiers_and_alpha(scenario):
    plan4 = plan_sequence(scenario, 4, 7.0, 12.0)
    assert plan4.n_tiers == 1 and plan4.step == 12.0
    assert plan4.alpha == pytest.approx(ALPHAS[4], abs=5e-6)
    plan8 = plan_sequence(scenario, 8, 7.0, 12.0)
    assert plan8.n_tiers == 3 and plan8.step == 4.0
    assert plan8.alpha == pytest.approx(ALPHAS[8], abs=5e-6)
    # odd N uses the same tier formula; N=3 matches N=4
    plan3 = plan_sequence(scenario, 3, 7.0, 12.0)
    assert plan3.n_tiers == 1
    assert plan3.alpha == plan4.alpha


def test_plan_alpha_non_decreasing(scenario):
    alphas = [plan_sequence(scenario, n, 7.0, 12.0).alpha for n in range(2, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))


def test_plan_hidden_anchors_in_band(scenario):
    plan = plan_sequence(scenario, 10, 7.0, 12.0)
    for boundary, hidden in plan.versions:
        assert abs(hidden.v) < scenario.c - 1.0
        assert abs(hidden.w) <= scenario.y_lim
        assert anchor_admissible(scenario, boundary.k, boundary.b)


def test_plan_domain_errors(scenario):
    with pytest.raises(DomainError):
        plan_sequence(scenario, 1, 7.0, 12.0)
    with pytest.raises(DomainError):
        plan_sequence(scenario, 4, -7.0, 12.0)
    with pytest.raises(DomainError):
        plan_sequence(scenario, 4, 7.0, 50.0)  # shifts run out of the band


def test_verify_plan_passes(scenario):
    for n in (2, 4, 8):
        plan = plan_sequence(scenario, n, 7.0, 12.0)
        report = verify_plan(plan)
        assert report.passed
        assert report.at_first_pair == 0.0
        assert report.union_max_rel_dev <= 1e-9
    plan8 = plan_sequence(scenario, 8, 7.0, 12.0)
    report8 = verify_plan(plan8)
    assert report8.max_at_version == 3
    assert report8.max_compound == pytest.approx(ALPHAS[8], abs=5e-6)


def test_verify_plan_catches_tampering(scenario):
    plan = plan_sequence(scenario, 8, 7.0, 12.0)
    versions = list(plan.versions)
    versions[2] = versions[0]
    tampered = dataclasses.replace(plan, versions=tuple(versions))
    report = verify_plan(tampered)
    assert not report.bound_ok
    assert report.max_compound > plan.alpha


def test_verify_plan_equals_the_per_prefix_reference(scenario):
    # the stock slope and budget, then a steeper slope at 30% and a steeper one at 100%
    # of the budget find_bmax leaves above the base line
    sweep = [(7.0, 12.0)] + [(k, share * (find_bmax(scenario, k) - k * scenario.delta - 1e-9))
                             for k, share in ((12.0, 0.3), (30.0, 1.0))]
    plans = [plan_sequence(scenario, n, k, b_max) for k, b_max in sweep for n in range(2, 61)]
    for plan in plans + [plan_sequence(scenario, 1000, 7.0, 12.0)]:
        assert repr(verify_plan(plan)) == repr(reference_verify_plan(plan))


@pytest.mark.parametrize("n", [40, 1000])
def test_verify_plan_scores_in_one_clip_per_block(scenario, monkeypatch, n):
    plan = plan_sequence(scenario, n, 7.0, 12.0)
    calls = []

    def counting(x, y, a, b, c):
        calls.append((x.shape[1:], len(a)))
        return clipped_areas(x, y, a, b, c)

    monkeypatch.setattr(regions, "clipped_areas", counting)
    verify_plan(plan)
    assert len(calls) == math.ceil((n - 1) / regions.SCORE_BLOCK)
    # each prefix row takes its own breach's bands and inside polygons
    assert all(shape == (4, rows) for shape, rows in calls)
    assert sum(rows for _, rows in calls) == n - 1


def test_pool_generation(scenario):
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=7)
    assert len(pool.hidden_points) == 50
    assert len(pool.boundaries) == 50
    for h in pool.hidden_points:
        assert abs(h.v) < scenario.c - 1.0
        assert abs(h.w) <= scenario.y_lim
        assert (h.v - scenario.c) ** 2 + h.w**2 > 4.0
        assert (h.v + scenario.c) ** 2 + h.w**2 > 4.0
    again = generate_candidate_pool(scenario, 50, 2.0, seed=7)
    assert again == pool
    other = generate_candidate_pool(scenario, 50, 2.0, seed=8)
    assert other != pool


def test_pool_validation(scenario):
    with pytest.raises(DomainError):
        generate_candidate_pool(scenario, 0, 2.0, seed=1)
    with pytest.raises(DomainError):
        generate_candidate_pool(scenario, 5, 0.5, seed=1)
    with pytest.raises(DomainError):
        generate_candidate_pool(scenario, 5, 5000.0, seed=1)


@pytest.mark.parametrize("eps_d", ["hypot", 1000.0])
def test_pool_empty_by_geometry_draws_nothing(scenario, monkeypatch, eps_d):
    # (0, +-y_lim) is the band point farthest from both centroids; at this
    # eps_d no candidate can exist, so not one stream is opened
    eps_d = float(np.hypot(scenario.c, scenario.y_lim)) if eps_d == "hypot" else eps_d
    streams = []
    monkeypatch.setattr(versioning, "philox", lambda *key: streams.append(key))
    with pytest.raises(DomainError, match="empty"):
        generate_candidate_pool(scenario, 100_000, eps_d, seed=1)
    assert streams == []


def _quadrature_share(scenario, eps_d, n=1_000_000):
    """Midpoint rule over w in [0, y_lim] of the uncovered band width at height w."""
    c, y = scenario.c, scenario.y_lim
    w = (np.arange(n) + 0.5) * (y / n)
    width = np.clip(c - np.sqrt(np.maximum(0.0, eps_d**2 - w**2)), 0.0, c - 1.0)
    return width.sum() * (y / n) / ((c - 1.0) * y)


@pytest.mark.parametrize("eps_d", [2.0, 31.0, 99.5, 100.5, 104.0])
def test_admissible_share_matches_quadrature(scenario, eps_d):
    assert admissible_share(scenario, eps_d) == pytest.approx(
        _quadrature_share(scenario, eps_d), rel=1e-6)


def test_nearly_empty_pool_draws_nothing(scenario, monkeypatch):
    # eps_d = 104.4 leaves 5.7e-9 of the band: 10,000 candidates would take
    # about 1.7e12 draws, so the pool is refused before a stream is opened
    streams = []
    monkeypatch.setattr(versioning, "philox", lambda *key: streams.append(key))
    assert admissible_share(scenario, 104.4) == pytest.approx(5.747e-9, rel=1e-3)
    with pytest.raises(DomainError, match="nearly empty"):
        generate_candidate_pool(scenario, 10_000, 104.4, seed=1)
    assert streams == []


def test_nearly_empty_pool_verdict_follows_expected_draws(scenario, monkeypatch):
    # at eps_d = 104.0 the verdict turns on size / share against the draw
    # limit, whatever the seed; a lower limit keeps the admitted run short
    share = admissible_share(scenario, 104.0)
    largest = int(versioning.MAX_POOL_DRAWS * share)
    streams = []
    real = versioning.philox
    monkeypatch.setattr(versioning, "philox", lambda *key: streams.append(key) or real(*key))
    with pytest.raises(DomainError, match="nearly empty"):
        generate_candidate_pool(scenario, largest + 1, 104.0, seed=1)
    assert streams == []
    monkeypatch.setattr(versioning, "MAX_POOL_DRAWS", 1_000_000)
    assert 100 / share <= 1_000_000 < 101 / share
    with pytest.raises(DomainError, match="nearly empty"):
        generate_candidate_pool(scenario, 101, 104.0, seed=1)
    assert streams == []
    assert len(generate_candidate_pool(scenario, 100, 104.0, seed=1).boundaries) == 100
    assert streams == [(1, 0)]


def test_a_draw_that_runs_past_four_times_the_limit_is_refused(scenario, monkeypatch):
    # at eps_d = 103.093 one point takes 908 draws on average, inside a limit of 1,000; the
    # draws come 64 a batch, so the 63rd batch is the last: seed 22 finds no point by then
    # and is refused, seed 47 finds its point in that batch and gets the pool it got before
    assert 908 < 1 / admissible_share(scenario, 103.093) < 909
    before = generate_candidate_pool(scenario, 1, 103.093, seed=47)
    monkeypatch.setattr(versioning, "MAX_POOL_DRAWS", 1000)
    drawn = []
    real = versioning.philox

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, low, high, size):
            drawn.append(size)
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(versioning, "philox", lambda *key: Counting(real(*key)))
    with pytest.raises(DomainError, match="nearly empty: 4032 draws gave 0 of 1 points"):
        generate_candidate_pool(scenario, 1, 103.093, seed=22)
    assert sum(drawn) == 2 * 63 * 64  # v and w of 63 batches
    drawn.clear()
    assert repr(generate_candidate_pool(scenario, 1, 103.093, seed=47)) == repr(before)
    assert sum(drawn) == 2 * 63 * 64


def _line_pool(scenario, offsets):
    boundaries = tuple(DecisionBoundary.sloped(7.0, -b, scenario) for b in offsets)
    hidden = tuple(reconstruct_hidden_point(scenario, 7.0, -b) for b in offsets)
    return CandidatePool(hidden, boundaries)


def test_greedy_selects_smallest_overlap(scenario):
    pool = _line_pool(scenario, [12.7, 0.8])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    index, score = greedy_select_next(scenario, pool, breached, EXACT)
    assert index == 0
    assert score.value == pytest.approx(0.17468, abs=5e-6)
    scores = []
    for bd in pool.boundaries:
        target = build_attackable_region(scenario, bd)
        priors = [build_attackable_region(scenario, b) for b in breached]
        scores.append(compound_transferability(priors, target).value)
    assert round(scores[1], 4) == 0.4966


def test_greedy_single_candidate_and_ties(scenario):
    pool = _line_pool(scenario, [5.0])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    index, _ = greedy_select_next(scenario, pool, breached, EXACT)
    assert index == 0

    twins = _line_pool(scenario, [5.0, 5.0])
    index, _ = greedy_select_next(scenario, twins, breached, EXACT)
    assert index == 0


def test_greedy_excludes_breached_and_exhausts(scenario):
    pool = _line_pool(scenario, [5.0, 9.0])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    first, _ = greedy_select_next(scenario, pool, breached, EXACT)
    breached.append(pool.boundaries[first])
    second, _ = greedy_select_next(scenario, pool, breached, EXACT)
    assert {first, second} == {0, 1}
    breached.append(pool.boundaries[second])
    with pytest.raises(PoolExhaustedError):
        greedy_select_next(scenario, pool, breached, EXACT)
    with pytest.raises(DomainError):
        greedy_select_next(scenario, pool, [], EXACT)


def test_greedy_exact_steps_match_scalar_scores(scenario):
    # ROADMAP reference picks over the stock eps_d = 2 pool of 1000, seed 7.
    pool = generate_candidate_pool(scenario, 1000, 2.0, seed=7)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    picks = []
    for _ in range(8):
        index, score = greedy_select_next(scenario, pool, breached, EXACT)
        breach = Breach.of(scenario, breached)
        scalar = reference_score(breach, pool.boundaries[index])
        assert repr(score.value) == repr(scalar)
        picks.append(index)
        breached.append(pool.boundaries[index])
    assert picks == [896, 453, 724, 266, 731, 271, 552, 187]


def _held_and_list_steps(scenario, pool, cfg, steps):
    """Greedy picks from one held breach and greedy_select_next's score reprs under cfg,
    each checked against greedy_select_next over the breached list and against a fresh
    step that scores every candidate."""
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    breach = Breach.of(scenario, breached)
    picks = []
    for _ in range(steps):
        index, exact = select_next(pool, breach)
        listed, listed_score = greedy_select_next(scenario, pool, breached, cfg)
        fresh = _fresh_step(scenario, pool, breached, cfg)
        assert (index, repr(listed_score.value)) == (listed, fresh[1]) and index == fresh[0]
        if not cfg.n_samples:
            assert repr(exact) == fresh[1]
        picks.append((index, repr(listed_score.value)))
        breach = breach.extend(pool.boundaries[index])
        breached.append(pool.boundaries[index])
    return picks


# Exact picks over 1000-candidate pools at the stock eps_d = 2, drawn from the
# 32-bit seed np.random.SeedSequence(s) derives for s = 0, 7 and 15: tangent-branch
# candidates whose separators pass within rounding of the origin, 8 steps each.
_STOCK_EPS_PICKS = {
    0: [995, 457, 337, 403, 534, 940, 628, 978],
    7: [239, 914, 162, 608, 554, 0, 315, 792],
    15: [826, 141, 26, 519, 174, 673, 770, 123],
}


@pytest.mark.parametrize("seed", sorted(_STOCK_EPS_PICKS))
def test_greedy_exact_steps_at_stock_eps_d(scenario, seed):
    (pool_seed,) = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint32)
    pool = generate_candidate_pool(scenario, 1000, 2.0, int(pool_seed))
    picks = _held_and_list_steps(scenario, pool, EXACT, 8)
    assert [index for index, _ in picks] == _STOCK_EPS_PICKS[seed]


def test_held_breach_sampled_steps_equal_list_steps(scenario):
    # the stock pool at 20,000 samples: the greedy rows of pool_samples20000_len5.csv
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    picks = _held_and_list_steps(scenario, pool, AttackSampleConfig("ensemble", 20_000, 42), 3)
    assert [(index, f"{float(value):.9g}") for index, value in picks] == [
        (16, "0.346534653"), (11, "0.564356436"), (20, "0.0537891986")]


def _exposes_nothing(scenario):
    """A version whose "+" side misses both "-" bands: its region has area 0."""
    return DecisionBoundary.sloped(1000.0, -1000.0, scenario)


def _counting_breach_of(monkeypatch):
    """A list that Breach.of appends its priors' count to on every call."""
    built = []
    real = Breach.of.__func__
    monkeypatch.setattr(Breach, "of", classmethod(
        lambda cls, scenario, priors: built.append(len(priors)) or real(cls, scenario, priors)))
    return built


def _fresh_step(scenario, pool, breached, cfg):
    """select_next over a fresh Breach.of and a fresh copy of pool, which holds no state
    (every candidate scored), and the repr of its pick's score under cfg: the exact ratio,
    or the pick's mc_transferability estimate."""
    index, value = select_next(CandidatePool(pool.hidden_points, pool.boundaries),
                               Breach.of(scenario, breached))
    if cfg.n_samples:
        value = mc_transferability(scenario, breached, pool.boundaries[index], cfg).value
    return index, repr(value)


def _list_step(scenario, pool, breached, cfg, built):
    """greedy_select_next's pick, checked against a fresh step that scores every
    candidate, and the number of Breach.of calls the list-form step made."""
    want = _fresh_step(scenario, pool, breached, cfg)
    before = len(built)
    got = greedy_select_next(scenario, pool, breached, cfg)
    assert (got[0], repr(got[1].value)) == want
    return got[0], len(built) - before


@pytest.mark.parametrize("cfg", [EXACT, AttackSampleConfig("ensemble", 20_000, 42)])
def test_list_form_grows_the_held_breach(scenario, monkeypatch, cfg):
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    built = _counting_breach_of(monkeypatch)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    deepened = []
    for restart in range(2):  # the benchmark's rounds: each restarts from the seed pair
        breached = list(seed_pair)
        builds = []
        for _ in range(5):  # grown by one per step
            guard = regions.deepest_guard(scenario, breached)
            index, n = _list_step(scenario, pool, breached, cfg, built)
            builds.append(n)
            breached.append(pool.boundaries[index])
            deepened.append(regions.deepest_guard(scenario, breached) > guard)
        # the first step builds the state; a restart takes the state's root, and a
        # grown step rebuilds only when its pick deepens the guard
        assert builds == [0 if restart else 1, *deepened[-5:-1]]
    assert any(deepened)
    # grown by several at once, the last pick and three no deeper than it: only
    # that pick can rebuild
    shallow = [bd for bd in pool.boundaries if bd not in breached
               and regions.deepest_guard(scenario, [bd]) <= regions.deepest_guard(scenario, breached)]
    breached += shallow[:3]
    assert _list_step(scenario, pool, breached, cfg, built)[1] == deepened[-1]
    # an unrelated list, then equal copies of the boundaries, which are not the held ones
    assert _list_step(scenario, pool, list(pool.boundaries[5:8]), cfg, built)[1] == 1
    copies = [DecisionBoundary(bd.plus) for bd in pool.boundaries[5:8]]
    assert _list_step(scenario, pool, copies, cfg, built)[1] == 1
    assert _list_step(scenario, pool, copies + [seed_pair[0]], cfg, built)[1] == 0


def test_list_form_holds_a_breach_per_scenario(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 50, 2.0, seed=42)
    built = _counting_breach_of(monkeypatch)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    wider = ScenarioConfig(scenario.c, scenario.delta, 2.0 * scenario.y_lim)
    assert _list_step(scenario, pool, breached, EXACT, built)[1] == 1
    assert _list_step(wider, pool, breached, EXACT, built)[1] == 1
    assert _list_step(scenario, pool, breached, EXACT, built)[1] == 1
    # an equal scenario is the same scenario
    same = ScenarioConfig(scenario.c, scenario.delta, scenario.y_lim)
    assert _list_step(same, pool, breached + [pool.boundaries[0]], EXACT, built)[1] == 0


def test_list_form_after_a_raised_step(scenario, monkeypatch):
    pool = _line_pool(scenario, [5.0, 9.0])
    built = _counting_breach_of(monkeypatch)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for _ in range(2):
        breached.append(pool.boundaries[_list_step(scenario, pool, breached, EXACT, built)[0]])
    with pytest.raises(PoolExhaustedError):
        greedy_select_next(scenario, pool, breached, EXACT)
    # a retreat short of the held breach grows the state's root
    assert _list_step(scenario, pool, breached[:3], EXACT, built)[1] == 0
    with pytest.raises(UndefinedEstimateError):
        greedy_select_next(scenario, pool, [_exposes_nothing(scenario)], EXACT)
    assert _list_step(scenario, pool, breached[:2], EXACT, built)[1] == 1
    with pytest.raises(UndefinedEstimateError):
        greedy_select_next(scenario, pool, breached[:2], AttackSampleConfig("ensemble", 1, 42))
    assert _list_step(scenario, pool, breached[:3], EXACT, built)[1] == 0


def test_greedy_guard_violation(scenario):
    runaway = DecisionBoundary.vertical(150.0, scenario)  # "+" side covers both bands
    pool = _line_pool(scenario, [5.0])
    pool = CandidatePool(pool.hidden_points + (HiddenPoint(0.0, 1.0),),
                         pool.boundaries + (runaway,))
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    with pytest.raises(GeometryError, match="left guard"):
        greedy_select_next(scenario, pool, breached, EXACT)
    # a breach of zero area leaves every score undefined; the guard check
    # still runs first
    with pytest.raises(GeometryError, match="left guard"):
        greedy_select_next(scenario, pool, [_exposes_nothing(scenario)], EXACT)


def test_greedy_without_a_defined_score_raises_in_either_mode(scenario):
    # NaN marks an undefined score, and a step with no defined score has
    # nothing to pick by: exact, the breach exposes no area; sampled, one
    # sample accepts nothing
    assert not TransferabilityScore(math.nan).defined
    assert TransferabilityScore(0.0).defined
    pool = _line_pool(scenario, [5.0, 9.0])
    with pytest.raises(UndefinedEstimateError, match=r"^step 2: .*expose no area"):
        greedy_select_next(scenario, pool, [_exposes_nothing(scenario)], EXACT)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    with pytest.raises(UndefinedEstimateError, match=r"^step 3: .*n_samples = 1$"):
        greedy_select_next(scenario, pool, breached, AttackSampleConfig("ensemble", 1, 42))


def _assert_sampled_step_is_exact(scenario, pool, breached, cfg):
    """A sampled greedy step: the exact step's pick, scored by mc_transferability alone."""
    index, score = greedy_select_next(scenario, pool, breached, cfg)
    assert index == _full_scoring(scenario, pool, breached)[0]
    estimate = mc_transferability(scenario, breached, pool.boundaries[index], cfg)
    assert repr(score.value) == repr(estimate.value)
    return index, score


def test_greedy_sampled_mode_matches_exact_choice(scenario):
    pool = _line_pool(scenario, [12.7, 0.8])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    sampled = AttackSampleConfig("ensemble", 200_000, 99)
    index, score = _assert_sampled_step_is_exact(scenario, pool, breached, sampled)
    assert index == 0
    assert score.value == pytest.approx(0.1747, abs=0.02)


def test_greedy_sampled_choice_near_exact_optimum(scenario):
    # a sampled step picks the exact argmin, whatever its estimate
    pool = _line_pool(scenario, [12.7, 11.9, 12.3, 0.8, 6.0])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    priors = [build_attackable_region(scenario, bd) for bd in breached]
    exact_scores = [
        compound_transferability(priors, build_attackable_region(scenario, bd)).value
        for bd in pool.boundaries
    ]
    sampled = AttackSampleConfig("ensemble", 100_000, 1234)
    index, _ = _assert_sampled_step_is_exact(scenario, pool, breached, sampled)
    assert index == int(np.argmin(exact_scores))


@pytest.mark.parametrize("n_samples", [1_000, 20_000])
def test_sampled_picks_are_the_exact_picks_on_seeded_pools(scenario, n_samples):
    # 6 sampled steps over the 50-candidate pools of seeds 0-19, each scored from the
    # breach of the steps before it, the attack seed equal to the pool seed
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for pool_seed in range(20):
        pool = generate_candidate_pool(scenario, 50, 2.0, pool_seed)
        cfg = AttackSampleConfig("ensemble", n_samples, pool_seed)
        breached = list(seed_pair)
        for _ in range(6):
            index, _ = _assert_sampled_step_is_exact(scenario, pool, breached, cfg)
            breached.append(pool.boundaries[index])


def test_greedy_rejects_an_invalid_separator_in_either_mode(scenario):
    # the near-flat first candidate separates nothing: its region reaches the
    # left guard, so a sampled step must refuse it as the exact step does
    boundaries = (DecisionBoundary.sloped(1e-4, -5.0, scenario),
                  DecisionBoundary.sloped(7.0, -3.0, scenario))
    pool = CandidatePool((HiddenPoint(0.0, 1.0),) * 2, boundaries)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for n_samples in (0, 2000):
        with pytest.raises(GeometryError, match="left guard"):
            greedy_select_next(scenario, pool, breached, AttackSampleConfig("ensemble", n_samples, 3))


def test_greedy_rejects_an_invalid_breached_version_in_either_mode(scenario):
    # vertical(150)'s "+" side holds both bands, so no step may score against it
    pool = generate_candidate_pool(scenario, 50, seed=42)
    seed = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    breached = [seed[0], DecisionBoundary.vertical(150.0, scenario)]
    for n_samples in (0, 20_000):
        with pytest.raises(GeometryError, match="left guard"):
            greedy_select_next(scenario, pool, breached, AttackSampleConfig("ensemble", n_samples, 3))


def _per_candidate_scores(scenario, breached, planes, cfg):
    """One mc_transferability estimate per row, NaN where it is undefined,
    each checked against the point-by-point counts."""
    values = []
    for a, b, c in planes:
        target = DecisionBoundary(HalfPlane(a, b, c))
        accepted, hits = per_target_counts(scenario, breached, target, cfg)
        values.append(mc_transferability(scenario, breached, target, cfg).value)
        assert math.isnan(values[-1]) == (accepted < max(1.0, 1e-6 * cfg.n_samples))
        if not math.isnan(values[-1]):
            assert values[-1] == hits / accepted
    return np.array(values)


@pytest.mark.parametrize("pool_seed, steps, n_samples",
                         [(42, 1, 30_000), (42, 1, 200), (1, 2, 30_000), (2, 2, 30_000)])
def test_sampled_scores_equal_per_candidate_estimates(scenario, pool_seed, steps, n_samples):
    # every row's estimate is its point-by-point count, the rows share one accepted count,
    # which makes NaN all or nothing, and a sampled step's score is its pick's row
    pool = generate_candidate_pool(scenario, 50, seed=pool_seed)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    cfg = AttackSampleConfig("ensemble", n_samples, 1000 + pool_seed)
    for _ in range(steps):
        rows = [i for i, bd in enumerate(pool.boundaries) if bd not in breached]
        planes = pool.planes[rows]
        prior_guard = max(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c)
                          for bd in breached)
        deep_guard = guard_extent(scenario, *planes.T) > prior_guard
        assert deep_guard.any()
        expected = _per_candidate_scores(scenario, breached, planes, cfg)
        if pool_seed == 42:
            # the stock pool from the seed pair
            assert deep_guard.sum() == 7
        assert np.isnan(expected).all() or not np.isnan(expected).any()
        index, score = _assert_sampled_step_is_exact(scenario, pool, breached, cfg)
        assert repr(score.value) == repr(float(expected[rows.index(index)]))
        breached.append(pool.boundaries[index])


@pytest.mark.parametrize("size, eps_d, pool_seed, n_samples",
                         [(1000, eps_d, seed, 0) for eps_d in (2.0, 31.0) for seed in (0, 1, 2)]
                         + [(50, 2.0, 42, 20_000)])
def test_audit_of_the_greedy_picks_gives_their_scores(scenario, size, eps_d, pool_seed, n_samples):
    # pick first, then score: one audit of the picked sequence gives each pick's score, the
    # exact ratio select_next picked by or greedy_select_next's estimate of the pick
    seed = Breach.of(scenario, [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions])
    pool = generate_candidate_pool(scenario, size, eps_d, pool_seed)
    cfg = AttackSampleConfig("ensemble", n_samples, pool_seed)
    picks, scores, breach = [], [], seed
    for _ in range(8):
        index, exact = select_next(pool, breach)
        listed, score = greedy_select_next(scenario, pool, list(breach.priors), cfg)
        assert listed == index
        if not n_samples:
            assert repr(score.value) == repr(exact)
        picks.append(pool.boundaries[index])
        scores.append(score.value)
        breach = breach.extend(pool.boundaries[index])
    assert repr(audit_sequence(seed, picks, cfg).tolist()) == repr(scores)


def test_audit_rows_score_against_the_breach_of_their_prefix(scenario):
    pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    seed = Breach.of(scenario, pair)
    for cfg in (EXACT, AttackSampleConfig("ensemble", 1_000, 3)):
        assert audit_sequence(seed, [], cfg).shape == (0,)
    for baseline_seed in range(20):
        sequence = [bd for _, bd in random_baseline_sequence(scenario, 8, baseline_seed)]
        got = audit_sequence(seed, sequence, EXACT).tolist()
        want = [Breach.of(scenario, pair + sequence[:i]).scores(regions.planes_of([bd]))[0]
                for i, bd in enumerate(sequence)]
        assert repr(got) == repr([float(v) for v in want])


def test_random_baseline_determinism(scenario):
    a = random_baseline_sequence(scenario, 6, seed=11)
    b = random_baseline_sequence(scenario, 6, seed=11)
    assert a == b
    c = random_baseline_sequence(scenario, 6, seed=12)
    assert c != a
    for h, boundary in a:
        assert abs(h.v) < scenario.c - 1.0
        assert (h.v - scenario.c) ** 2 + h.w**2 > 1.0
        rebuilt, _ = boundary_from_hidden(scenario, h)
        assert rebuilt == boundary


def test_pool_and_baseline_draw_streams_0_and_1(scenario):
    pool = generate_candidate_pool(scenario, 50, 31.0, seed=9)
    assert pool.hidden_points == draw_hidden_points(scenario, 50, 31.0, 9, 0)
    baseline = random_baseline_sequence(scenario, 50, seed=9, eps_d=31.0)
    assert tuple(h for h, _ in baseline) == draw_hidden_points(scenario, 50, 31.0, 9, 1)
    assert random_baseline_sequence(scenario, 0, seed=9) == ()


@pytest.mark.parametrize("eps_d", [2.0, 31.0])
def test_random_baseline_keeps_out_of_the_exclusion_disks(scenario, eps_d):
    # before the baseline applied eps_d, seed 42's 58 points put 14 within 31
    # of a centroid, and seed 7's one within 2
    for seed in range(20):
        for n in (6, 18, 58, 98):
            baseline = random_baseline_sequence(scenario, n, seed, eps_d)
            assert len(baseline) == n
            for h, _ in baseline:
                assert abs(h.v) < scenario.c - 1.0 and abs(h.w) <= scenario.y_lim
                assert math.hypot(h.v - scenario.c, h.w) > eps_d
                assert math.hypot(h.v + scenario.c, h.w) > eps_d


@pytest.mark.parametrize("eps_d, match", [(104.4, "nearly empty"), (1000.0, "empty")])
def test_nearly_empty_band_refuses_the_baseline_before_any_draw(scenario, monkeypatch, eps_d,
                                                                match):
    # at eps_d = 104.4, 98 points would take about 1.7e10 draws
    streams = []
    monkeypatch.setattr(versioning, "philox", lambda *key: streams.append(key))
    with pytest.raises(DomainError, match=match):
        random_baseline_sequence(scenario, 98, seed=1, eps_d=eps_d)
    assert streams == []


def test_random_baseline_same_side_fraction(scenario):
    rng = philox(1002)
    same = 0
    trials = 400
    for i in range(trials):
        pair = random_baseline_sequence(scenario, 2, seed=int(rng.integers(0, 2**63)))
        same += (pair[0][0].w > 0.0) == (pair[1][0].w > 0.0)
    assert 0.42 <= same / trials <= 0.58


def test_pool_parallel_lists_validated(scenario):
    with pytest.raises(DomainError):
        CandidatePool((), (DecisionBoundary.vertical(-1.0, scenario),))


def test_pool_holds_its_planes_outside_eq_and_repr(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 50, seed=42)
    np.testing.assert_array_equal(pool.planes, regions.planes_of(pool.boundaries))
    again = CandidatePool(pool.hidden_points, pool.boundaries)
    assert again == pool and hash(again) == hash(pool) and repr(again) == repr(pool)
    assert "planes" not in repr(pool)
    # building the pool computes what its steps read; only the selection state changes after
    fixed = [(name, getattr(pool, name)) for name in ("planes", "_by_c", "_flat")]
    # a step reads the pool's rows, and looks the breached versions up in its index
    built = []
    real = versioning.planes_of
    monkeypatch.setattr(versioning, "planes_of", lambda bds: built.append(len(bds)) or real(bds))
    seed_pair = [pool.boundaries[0], pool.boundaries[1]]
    select_next(pool, Breach.of(scenario, seed_pair))
    assert built == []
    greedy_select_next(scenario, pool, seed_pair, AttackSampleConfig("ensemble", 0, 0))
    assert pool._selection is not None and again._selection is None
    assert all(getattr(pool, name) is value for name, value in fixed)
    # the band areas, the index and the selection state those steps held stay out of ==,
    # hash and repr too
    assert again == pool and hash(again) == hash(pool) and repr(again) == repr(pool)
    for held in ("band", "by_c", "flat", "breach", "selection", "exposed"):
        assert held not in repr(pool)


def test_pool_finds_every_taken_candidate_by_float_equality(scenario):
    # x >= -50 four times, once with b = -0.0 and once a hair to the right, then x >= -50 again
    lines = [HalfPlane(-1.0, 0.0, 50.0), HalfPlane(-1.0, -0.0, 50.0), HalfPlane(-1.0, 0.0, 50.0),
             HalfPlane(-1.0, 0.0, 50.0 + 2**-46), HalfPlane(-2.0, 0.0, 100.0)]
    boundaries = tuple(DecisionBoundary.through(line, scenario) for line in lines)
    pool = CandidatePool((HiddenPoint(0.0, 0.0),) * len(lines), boundaries)
    for bd in boundaries[:3]:
        assert sorted(pool.rows_of([bd])) == [0, 1, 2]
    assert pool.rows_of([boundaries[3]]).tolist() == [3]
    assert pool.rows_of([boundaries[4]]).tolist() == [4]
    assert pool.rows_of([]).tolist() == []
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    assert pool.rows_of(seed_pair).tolist() == []
    breach = Breach.of(scenario, seed_pair + [boundaries[1], boundaries[3]])
    assert select_next(pool, breach)[0] == 4
    with pytest.raises(PoolExhaustedError):
        select_next(pool, breach.extend(boundaries[4]))
    # the index agrees with comparing every row with every breached version
    stock = generate_candidate_pool(scenario, 50, seed=42)
    taken = [*stock.boundaries[3:9], *stock.boundaries[3:5], *seed_pair]
    planes = regions.planes_of(taken)
    want = np.flatnonzero((stock.planes[:, None, :] == planes).all(axis=2).any(axis=1))
    assert set(stock.rows_of(taken)) == set(want) == set(range(3, 9))


def _counting_band_areas(monkeypatch):
    """Guards of every plus_band_areas call the pool makes, in order."""
    guards = []
    real = versioning.plus_band_areas
    monkeypatch.setattr(versioning, "plus_band_areas",
                        lambda scenario, guard, planes: guards.append(guard) or
                        real(scenario, guard, planes))
    return guards


def test_pool_band_areas_held_per_guard(scenario, monkeypatch):
    # the stock pool: the second pick deepens the breach's guard
    pool = generate_candidate_pool(scenario, 50, seed=42)
    computed = _counting_band_areas(monkeypatch)
    breach = Breach.of(scenario, [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions])
    guards = []
    for _ in range(6):
        guards.append(breach.guard)
        index, _ = select_next(pool, breach)
        held = pool._selection.bands[breach.guard]
        np.testing.assert_array_equal(held, regions.plus_band_areas(scenario, breach.guard,
                                                                    pool.planes))
        assert held.shape == (50, 2) and not held.flags.writeable
        breach = breach.extend(pool.boundaries[index])
    assert guards[1] == guards[0] < guards[2] == guards[5]
    assert computed == [guards[0], guards[2]]
    # the root's guard and the deeper one are held, both read-only
    assert sorted(pool._selection.bands) == [guards[0], guards[2]]
    # a sampled step's estimate reads no band areas
    sampled = AttackSampleConfig("ensemble", 2_000, 1)
    greedy_select_next(scenario, pool, list(breach.priors), sampled)
    assert computed == [guards[0], guards[2]]


def test_a_restart_under_the_held_guard_clips_no_band(scenario, monkeypatch):
    # no pick of the stock 1,000-candidate pool deepens the seed pair's guard
    pool = generate_candidate_pool(scenario, 1000, 2.0, seed=42)
    computed = _counting_band_areas(monkeypatch)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for _ in range(3):
        breached = list(seed_pair)
        for _ in range(8):
            index, score = greedy_select_next(scenario, pool, breached, EXACT)
            assert (index, repr(score.value)) == _full_scoring(scenario, pool, breached)
            breached.append(pool.boundaries[index])
    assert computed == [regions.deepest_guard(scenario, seed_pair)]


def test_a_restart_after_a_deeper_guard_clips_no_band(scenario, monkeypatch):
    # the stock pool's second pick deepens the guard; the state holds the band areas of the
    # seed pair's guard beside the deeper one's, so a restart from the seed pair clips none
    pool = generate_candidate_pool(scenario, 50, seed=42)
    computed = _counting_band_areas(monkeypatch)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for _ in range(2):
        breached = list(seed_pair)
        for _ in range(4):
            index, score = greedy_select_next(scenario, pool, breached, EXACT)
            assert (index, repr(score.value)) == _full_scoring(scenario, pool, breached)
            breached.append(pool.boundaries[index])
    shallow, deep = regions.deepest_guard(scenario, seed_pair), pool._selection.breach.guard
    assert shallow < deep and computed == [shallow, deep]


def test_pool_construction_clips_nothing(scenario, monkeypatch):
    computed = _counting_band_areas(monkeypatch)
    pool = generate_candidate_pool(scenario, 50, seed=42)
    CandidatePool(pool.hidden_points, pool.boundaries)
    assert computed == []


def test_warm_exact_step_clips_only_live_inside_polygons(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 1000, 31.0, seed=3)
    breach = Breach.of(scenario, [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions])
    for _ in range(3):
        index, _ = select_next(pool, breach)
        breach = breach.extend(pool.boundaries[index])
    select_next(pool, breach)  # holds the band areas under this guard
    live = sum(not inside.is_empty for inside in breach.inside)
    assert live == 1  # the sliver band's inside polygon is empty
    calls = []

    def counting(x, y, a, b, c):
        calls.append((x.shape[1:], len(a)))
        return clipped_areas(x, y, a, b, c)

    monkeypatch.setattr(regions, "clipped_areas", counting)
    # equal copies of the breached versions rebuild the selection state, so every row is
    # scored, under the guard whose band areas the pool holds
    copies = [DecisionBoundary(bd.plus) for bd in breach.priors]
    select_next(pool, Breach.of(scenario, copies))
    remaining = sum(bd not in breach.priors for bd in pool.boundaries)
    assert len(calls) == math.ceil(remaining / regions.SCORE_BLOCK)
    # the live inside polygon, taken once and broadcast over each block's rows
    assert all(shape == (live, 1) for shape, _ in calls)
    assert sum(rows for _, rows in calls) == remaining


def test_warm_list_form_step_clips_each_live_inside_polygon_once(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 1000, 31.0, seed=3)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    clipped = []
    # halfplane_intersection looks clip_convex up in geometry, Breach.chain in regions
    for module in (geometry, regions):
        monkeypatch.setattr(module, "clip_convex",
                            lambda p, h, real=module.clip_convex: clipped.append(p) or real(p, h))
    index, _ = greedy_select_next(scenario, pool, breached, EXACT)
    held = Breach.of(scenario, breached)
    calls = []
    for _ in range(7):
        breached.append(pool.boundaries[index])
        before = len(clipped)
        index, _ = greedy_select_next(scenario, pool, breached, EXACT)
        step = clipped[before:]
        grown = held.extend(breached[-1])
        if grown.guard == held.guard:  # a pick that deepens the guard rebuilds by Breach.of
            # at most one clip per inside polygon the held breach has not emptied
            assert len(step) <= sum(not i.is_empty for i in held.inside)
            assert not any(p.is_empty for p in step)
            calls.append(len(step))
        held = grown
    # after the first pick only the left band's inside polygon is left to clip
    assert calls == [1] * 6


def test_greedy_steps_at_the_benchmark_eps_d_match_scalar_scores_warm_and_fresh(scenario):
    # the stock pool, then 1000-candidate pools at eps_d = 31, drawn from the
    # 32-bit seed np.random.SeedSequence(s) derives for s = 0, 1 and 2
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    pools = [generate_candidate_pool(scenario, 50, seed=42)]
    for seed in range(3):
        (pool_seed,) = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint32)
        pools.append(generate_candidate_pool(scenario, 1000, 31.0, int(pool_seed)))
    guards = []
    for pool in pools:
        breach = Breach.of(scenario, seed_pair)
        guards.append(set())
        for _ in range(8):
            guards[-1].add(breach.guard)
            # held band areas score every candidate as the scorer's own band clips do
            held = regions.plus_band_areas(scenario, breach.guard, pool.planes)
            exposed = breach.exposed(pool.planes, held)
            assert (repr(regions.shares(exposed, breach.area).tolist())
                    == repr(breach.scores(pool.planes).tolist()))
            index, score = select_next(pool, breach)
            fresh = select_next(CandidatePool(pool.hidden_points, pool.boundaries), breach)
            assert (index, repr(score)) == (fresh[0], repr(fresh[1]))
            assert repr(score) == repr(reference_score(breach, pool.boundaries[index]))
            breach = breach.extend(pool.boundaries[index])
    # the stock pool and seed 2's pool score later steps under a guard a pick deepened
    assert [len(g) for g in guards] == [2, 1, 1, 2]


def _full_scoring(scenario, pool, breached):
    """(index, score repr) of the least score over every candidate not breached, from a
    fresh Breach.of and Breach.scores: no selection state, no bounds."""
    taken = set(pool.rows_of(breached).tolist())
    rows = [i for i in range(len(pool.boundaries)) if i not in taken]
    values = Breach.of(scenario, breached).scores(pool.planes[rows])
    best = int(np.argmin(values))
    return rows[best], repr(float(values[best]))


def _counting_rows(monkeypatch):
    """The number of rows of every call to the kernel that computes exact numerators."""
    rows = []
    real = regions._exposed
    monkeypatch.setattr(regions, "_exposed", lambda breaches, planes, band_areas=None:
                        rows.append(len(planes)) or real(breaches, planes, band_areas))
    return rows


@pytest.mark.parametrize("eps_d, deepening_picks", [(2.0, 0), (31.0, 14)])
def test_pruned_exact_steps_equal_full_scoring(scenario, eps_d, deepening_picks):
    # 1000-candidate pools from the 32-bit seed np.random.SeedSequence(s) derives for
    # s = 0-19, 8 list-form steps from the seed pair, and two rounds per pool, as the
    # benchmark runs them: 320 steps per eps_d, each pick and score repr that of scoring
    # every candidate
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    deepened = 0
    for seed in range(20):
        (pool_seed,) = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint32)
        pool = generate_candidate_pool(scenario, 1000, eps_d, int(pool_seed))
        for _ in range(2):
            breached = list(seed_pair)
            for _ in range(8):
                index, score = greedy_select_next(scenario, pool, breached, EXACT)
                assert (index, repr(score.value)) == _full_scoring(scenario, pool, breached)
                guard = regions.deepest_guard(scenario, breached)
                breached.append(pool.boundaries[index])
                deepened += regions.deepest_guard(scenario, breached) > guard
    # a pick that deepens the guard resets the bounds of the step after it
    assert deepened == deepening_picks


_STOCK = ScenarioConfig(100.0, 0.1, 30.0)
_STOCK_PAIR = [bd for bd, _ in plan_sequence(_STOCK, 2, 7.0, 12.0).versions]
_MOVES = ("greedy", "other", "deeper", "retreat", "copies")


@settings(max_examples=100, deadline=None)
@given(eps_d=st.sampled_from([2.0, 31.0]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pruned_steps_of_a_random_walk_equal_full_scoring(eps_d, seed, data):
    # a walk over the breaches of one pool: the greedy pick, a candidate that is not the
    # pick, one that deepens the guard, a retreat to a prefix of the path, or equal copies
    # of the breached versions, which rebuild the state with a longer root; every step's
    # pick and score repr is that of scoring every candidate of a fresh Breach.of
    pool = generate_candidate_pool(_STOCK, 40, eps_d, seed)
    guards = guard_extent(_STOCK, *pool.planes.T)
    path = [Breach.of(_STOCK, _STOCK_PAIR)]
    for move in data.draw(st.lists(st.sampled_from(_MOVES), min_size=1, max_size=12)):
        priors = list(path[-1].priors)
        index, score = select_next(pool, path[-1])
        assert (index, repr(score)) == _full_scoring(_STOCK, pool, priors)
        taken = set(pool.rows_of(priors).tolist())
        others = [i for i in range(len(pool.boundaries)) if i not in taken | {index}]
        if move == "deeper":
            others = [i for i in others if guards[i] > path[-1].guard]
        if move == "retreat" and len(path) > 1:
            del path[data.draw(st.integers(1, len(path) - 1)):]
        elif move == "copies":
            copies = [DecisionBoundary(bd.plus) for bd in priors]
            path = Breach.of(_STOCK, copies[:2]).chain(copies[2:])
        elif move in ("other", "deeper") and others:
            path.append(path[-1].extend(pool.boundaries[data.draw(st.sampled_from(others))]))
        else:
            path.append(path[-1].extend(pool.boundaries[index]))
    index, score = select_next(pool, path[-1])
    assert (index, repr(score)) == _full_scoring(_STOCK, pool, list(path[-1].priors))


def test_exact_steps_score_only_rows_that_can_win(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 1000, 2.0, seed=42)
    scored = _counting_rows(monkeypatch)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    rounds = []
    for _ in range(2):
        breached, steps = list(seed_pair), []
        for _ in range(8):
            before = len(scored)
            index, _ = greedy_select_next(scenario, pool, breached, EXACT)
            steps.append(sum(scored[before:]))
            breached.append(pool.boundaries[index])
        rounds.append(steps)
    # the state's first step scores every row; a restart retreats to the seed pair and keeps
    # the bounds its rows' numerators give
    assert rounds[0][0] == 1000 and max(rounds[0][1:]) <= 2
    assert max(rounds[1]) <= 2
    # a step repeated on the same breach keeps only rows within the margin of the least
    greedy_select_next(scenario, pool, breached, EXACT)
    before = len(scored)
    greedy_select_next(scenario, pool, breached, EXACT)
    assert 1 <= sum(scored[before:]) <= 4
    # on the stock pool the second pick deepens the guard: the step after it scores every
    # row left, as the reset bounds keep them all
    pool = generate_candidate_pool(scenario, 50, seed=42)
    breached, steps, guards = list(seed_pair), [], []
    for _ in range(4):
        before = len(scored)
        guards.append(regions.deepest_guard(scenario, breached))
        index, _ = greedy_select_next(scenario, pool, breached, EXACT)
        steps.append(sum(scored[before:]))
        breached.append(pool.boundaries[index])
    assert guards[0] == guards[1] < guards[2] == guards[3]
    assert steps == [50, 1, 48, 1]


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 3141])
def test_a_restart_scores_few_rows_on_the_benchmark_pools(scenario, monkeypatch, seed):
    # the 1000-candidate pools greedy-exact draws at eps_d = 31 from the 32-bit seed
    # np.random.SeedSequence(seed) derives; their picks keep the seed pair's guard, so the
    # restart after a round of 8 steps is a retreat whose bounds stay tight
    (pool_seed,) = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint32)
    pool = generate_candidate_pool(scenario, 1000, 31.0, int(pool_seed))
    scored = _counting_rows(monkeypatch)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    firsts = []
    for _ in range(2):
        breached = list(seed_pair)
        for step in range(8):
            before = len(scored)
            index, _ = greedy_select_next(scenario, pool, breached, EXACT)
            if step == 0:
                firsts.append(sum(scored[before:]))
            breached.append(pool.boundaries[index])
    assert firsts[0] == 1000 and firsts[1] <= 30


def test_a_deeper_guard_resets_the_bounds(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 1000, 2.0, seed=42)
    scored = _counting_rows(monkeypatch)
    breach = Breach.of(scenario, [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions])
    # a version the first seed version dominates, shifted so far right that it exposes
    # nothing but reaches deeper than the guard: the union stays, the guard deepens
    line = breach.priors[0].plus
    deeper = breach.extend(DecisionBoundary(HalfPlane(line.a, line.b, line.c - 800.0)))
    assert deeper.area == breach.area and deeper.guard > breach.guard
    steps = []
    for step in (breach, breach, deeper, deeper):
        before = len(scored)
        index, score = select_next(pool, step)
        steps.append(sum(scored[before:]))
        assert (index, repr(score)) == _full_scoring(scenario, pool, list(step.priors))
    # held numerators bound only steps under their own guard: the deeper one scores all
    assert steps == [1000, 1, 1000, 1]


def test_pruned_steps_break_exact_ties_toward_the_lowest_index(scenario):
    # every stock candidate twice, the copies in reverse order, so each candidate's twin
    # scores the same bits at index 99 - i until a pick takes both
    stock = generate_candidate_pool(scenario, 50, seed=42)
    pool = CandidatePool(stock.hidden_points + stock.hidden_points[::-1],
                         stock.boundaries + stock.boundaries[::-1])
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    picks = []
    for _ in range(8):
        for _ in range(2):  # the second step of each pair is scored on tight bounds
            index, score = greedy_select_next(scenario, pool, breached, EXACT)
            assert (index, repr(score.value)) == _full_scoring(scenario, pool, breached)
        picks.append(index)
        breached.append(pool.boundaries[index])
    assert all(i < 50 for i in picks) and len(set(picks)) == 8


def test_sampled_and_exact_steps_share_one_state(scenario, monkeypatch):
    pool = generate_candidate_pool(scenario, 50, seed=42)
    computed = _counting_band_areas(monkeypatch)
    sampled = AttackSampleConfig("ensemble", 20_000, 42)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    guards = []
    for cfg in (sampled, EXACT, sampled, sampled, EXACT, EXACT):
        guards.append(regions.deepest_guard(scenario, breached))
        if cfg.n_samples:
            index, _ = _assert_sampled_step_is_exact(scenario, pool, breached, cfg)
        else:
            index, score = greedy_select_next(scenario, pool, breached, cfg)
            assert (index, repr(score.value)) == _full_scoring(scenario, pool, breached)
        breached.append(pool.boundaries[index])
    # either step reads the band areas of a guard once; the second pick deepens the guard
    assert guards[0] < guards[-1] and computed == list(dict.fromkeys(guards))


def test_pruned_steps_of_a_breach_that_exposes_nothing_stay_undefined(scenario):
    pool = generate_candidate_pool(scenario, 50, seed=42)
    breach = Breach.of(scenario, [_exposes_nothing(scenario)])
    for _ in range(2):  # the state's first step, then a step from its held numerators
        with pytest.raises(UndefinedEstimateError, match="expose no area"):
            select_next(pool, breach)
    # grown by a second version that exposes nothing, the state advances and stays undefined
    grown = breach.extend(DecisionBoundary.sloped(1000.0, -2000.0, scenario))
    assert grown.area == 0.0
    with pytest.raises(UndefinedEstimateError, match=r"^step 3: .*expose no area"):
        select_next(pool, grown)
    assert pool._selection.breach is grown


@pytest.mark.parametrize("cfg", [EXACT, AttackSampleConfig("ensemble", 2_000, 3)])
def test_an_invalid_candidate_raises_at_every_first_step_of_a_state(scenario, cfg):
    runaway = DecisionBoundary.vertical(150.0, scenario)  # "+" side covers both bands
    stock = generate_candidate_pool(scenario, 50, seed=42)
    pool = CandidatePool(stock.hidden_points + (HiddenPoint(0.0, 1.0),),
                         stock.boundaries + (runaway,))
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    for _ in range(2):  # no state is held for it, so the next step checks again
        with pytest.raises(GeometryError, match="left guard"):
            greedy_select_next(scenario, pool, seed_pair, cfg)
        assert pool._selection is None
    # a state held for the valid pool does not carry over to one that holds the runaway
    greedy_select_next(scenario, stock, seed_pair, cfg)
    with pytest.raises(GeometryError, match="left guard"):
        select_next(pool, stock._selection.breach)


def test_select_next_needs_breached_versions(scenario):
    pool = generate_candidate_pool(scenario, 50, seed=42)
    within = Breach.within(scenario, pool.boundaries[0])
    with pytest.raises(DomainError):
        select_next(pool, within)


def test_sampled_scores_of_a_within_breach_are_directional_estimates(scenario):
    source, *targets = [bd for bd, _ in plan_sequence(scenario, 6, 7.0, 12.0).versions]
    cfg = AttackSampleConfig("ensemble", 20_000, 5)
    priors = Breach.within(scenario, source).priors
    n_blocks = -(-cfg.n_samples // regions.MC_BLOCK)
    got = []
    for bd in targets:
        accepted, hits = regions.mc_block_counts(scenario, priors, bd, cfg, 0, n_blocks)
        assert (accepted, hits) == per_target_counts(scenario, [source], bd, cfg)
        got.append(hits / accepted)
    want = [mc_transferability(scenario, [source], bd, cfg).value for bd in targets]
    assert repr(got) == repr(want)
    assert 0.0 < min(v for v in want if v > 0.0) < max(want) < 1.0
