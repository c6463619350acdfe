import dataclasses
import math

import pytest

from marginseq import (
    AttackSampleConfig,
    CandidatePool,
    DecisionBoundary,
    DomainError,
    GeometryError,
    HiddenPoint,
    PoolExhaustedError,
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
from marginseq.regions import Breach
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
    tol = 1e-6
    b_max = find_bmax(scenario, 7.0, tol)
    assert anchor_admissible(scenario, 7.0, -b_max)
    assert not anchor_admissible(scenario, 7.0, -(b_max + 2.0 * tol))


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


def _line_pool(scenario, offsets):
    boundaries = tuple(DecisionBoundary.sloped(7.0, -b, scenario) for b in offsets)
    hidden = tuple(reconstruct_hidden_point(scenario, 7.0, -b) for b in offsets)
    return CandidatePool(hidden, boundaries, 0, 2.0)


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
        breach = Breach.of([build_attackable_region(scenario, bd) for bd in breached])
        scalar = breach.score(build_attackable_region(scenario, pool.boundaries[index]))
        assert repr(score.value) == repr(scalar.value)
        picks.append(index)
        breached.append(pool.boundaries[index])
    assert picks == [896, 453, 724, 266, 731, 271, 552, 187]


def test_greedy_guard_violation(scenario):
    runaway = DecisionBoundary.vertical(150.0, scenario)  # "+" side covers both bands
    pool = _line_pool(scenario, [5.0])
    pool = CandidatePool(pool.hidden_points + (HiddenPoint(0.0, 1.0),),
                         pool.boundaries + (runaway,), 0, 2.0)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    with pytest.raises(GeometryError, match="left guard"):
        greedy_select_next(scenario, pool, breached, EXACT)
    # the cautious breach of the seed pair has zero area, so every score is
    # undefined; the guard check still runs first
    with pytest.raises(GeometryError, match="left guard"):
        greedy_select_next(scenario, pool, breached, AttackSampleConfig("cautious", 0, 0))


def test_greedy_cautious_undefined_scores(scenario):
    pool = _line_pool(scenario, [5.0, 9.0])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]  # mirrored pair: empty intersection
    cfg = AttackSampleConfig("cautious", 0, 0)
    index, score = greedy_select_next(scenario, pool, breached, cfg)
    assert index == 0
    assert not score.defined


def test_greedy_sampled_mode_matches_exact_choice(scenario):
    pool = _line_pool(scenario, [12.7, 0.8])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    sampled = AttackSampleConfig("ensemble", 200_000, 99)
    index, score = greedy_select_next(scenario, pool, breached, sampled)
    assert index == 0
    assert score.value == pytest.approx(0.1747, abs=0.02)


def test_greedy_sampled_choice_near_exact_optimum(scenario):
    # a sampled selection may miss the exact argmin only by less than the
    # estimate's interval width
    pool = _line_pool(scenario, [12.7, 11.9, 12.3, 0.8, 6.0])
    plan = plan_sequence(scenario, 2, 7.0, 12.0)
    breached = [bd for bd, _ in plan.versions]
    priors = [build_attackable_region(scenario, bd) for bd in breached]
    exact_scores = [
        compound_transferability(priors, build_attackable_region(scenario, bd)).value
        for bd in pool.boundaries
    ]
    sampled = AttackSampleConfig("ensemble", 100_000, 1234)
    index, score = greedy_select_next(scenario, pool, breached, sampled)
    width = 2.0 * 1.96 * math.sqrt(score.value * (1.0 - score.value) / 500.0)
    assert exact_scores[index] <= min(exact_scores) + max(width, 0.05)


def test_greedy_sampled_undefined_score_before_defined(scenario):
    # the near-flat first candidate pushes the sampling guard so far left that
    # no sample lands in the breach; the defined second score must win
    boundaries = (DecisionBoundary.sloped(1e-4, -5.0, scenario),
                  DecisionBoundary.sloped(7.0, -3.0, scenario))
    pool = CandidatePool((HiddenPoint(0.0, 1.0),) * 2, boundaries, 0, 2.0)
    breached = [bd for bd, _ in plan_sequence(scenario, 2, 7.0, 12.0).versions]
    cfg = AttackSampleConfig("ensemble", 2000, 3)
    with pytest.raises(UndefinedEstimateError):
        mc_transferability(scenario, breached, boundaries[0], cfg)
    second = mc_transferability(scenario, breached, boundaries[1], cfg)
    assert second.accepted == 19
    index, score = greedy_select_next(scenario, pool, breached, cfg)
    assert index == 1
    assert score.defined and score.value == second.value


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
        CandidatePool((), (DecisionBoundary.vertical(-1.0, scenario),), 0, 2.0)
