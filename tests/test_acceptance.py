"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s``) so a run
doubles as a checklist.  All randomness is Philox-seeded and deterministic.
"""

import argparse
import io
import math
import time

import numpy as np

from marginseq import (
    AttackSampleConfig,
    DecisionBoundary,
    HiddenPoint,
    ScenarioConfig,
    boundary_from_hidden,
    build_attackable_region,
    check_boundary_feasibility,
    check_zero_transfer,
    compound_transferability,
    mc_transferability,
    oracle_boundary,
    plan_sequence,
    random_baseline_sequence,
    generate_candidate_pool,
    greedy_select_next,
    verify_plan,
)
from marginseq.cli import DEFAULT_SETTINGS, cmd_table
from marginseq.regions import Breach
from marginseq.selfcheck import separates_training_disks
from seeded_rng import philox

SCENARIO = ScenarioConfig(100.0, 0.1, 30.0)
PLAN_K, PLAN_B_MAX = 7.0, 12.0
EXACT = AttackSampleConfig("ensemble", 0, 0)


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {name}: {detail}")


def sample_hidden(rng, w_sign=0) -> HiddenPoint:
    c, y_lim = SCENARIO.c, SCENARIO.y_lim
    while True:
        v = float(rng.uniform(-(c - 1.0), c - 1.0))
        w = float(rng.uniform(-y_lim, y_lim))
        if w_sign and math.copysign(1.0, w) != w_sign:
            w = -w
        if (v - c) ** 2 + w**2 > 1.0 and (v + c) ** 2 + w**2 > 1.0:
            return HiddenPoint(v, w)


def separating_pair(rng):
    """Opposite-slope boundaries crossing at x_I >= delta with usable regions."""
    d, y = SCENARIO.delta, SCENARIO.y_lim
    while True:
        k = float(rng.uniform(0.5, 10.0))
        x_i = float(rng.uniform(d, 1.0))
        y_i = float(rng.uniform(-0.2 * y, 0.2 * y))
        bd1 = DecisionBoundary.sloped(k, y_i - k * x_i, SCENARIO)
        bd2 = DecisionBoundary.sloped(-k, y_i + k * x_i, SCENARIO)
        if not (separates_training_disks(SCENARIO, bd1) and separates_training_disks(SCENARIO, bd2)):
            continue
        ar1 = Breach.within(SCENARIO, bd1)
        ar2 = Breach.within(SCENARIO, bd2)
        if ar1.area >= 0.5 and ar2.area >= 0.5:
            return bd1, bd2, ar1, ar2


def test_criterion_1_reference_table():
    """Stock table: S(AR1) = 61.39 +- 0.01, alphas within +-0.005, < 1 s."""
    start = time.perf_counter()
    out = io.StringIO()
    cmd_table(DEFAULT_SETTINGS, argparse.Namespace(), out)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"

    rows = [line.split(",") for line in out.getvalue().splitlines()]
    header = rows[0]
    body = {int(r[header.index("n_versions")]): r for r in rows[1:]}
    ar1 = float(body[4][header.index("ar1_area")])
    assert abs(ar1 - 61.39) <= 0.01
    expected = {2: 0.0, 4: 0.17, 6: 0.32, 8: 0.37, 10: 0.40}
    for n, ref in expected.items():
        alpha = float(body[n][header.index("alpha")])
        assert abs(alpha - ref) <= 0.005, (n, alpha, ref)
    report("criterion 1", f"ar1={ar1:.5f}, alphas match tiers, {elapsed * 1e3:.0f} ms")


def test_criterion_1_condensed_headline_lags_one_tier():
    """The four-entry condensed summary lags the derived ladder by one tier
    at N = 6 and N = 8; the derived tier values are the binding reference."""
    derived = {n: plan_sequence(SCENARIO, n, PLAN_K, PLAN_B_MAX).alpha for n in (2, 4, 6, 8, 10)}
    condensed = {2: 0.0, 4: 0.17, 6: 0.37, 8: 0.40}
    assert abs(derived[4] - condensed[4]) <= 0.005
    assert abs(derived[6] - condensed[6]) > 0.005
    assert abs(derived[8] - condensed[6]) <= 0.005
    assert abs(derived[8] - condensed[8]) > 0.005
    assert abs(derived[10] - condensed[8]) <= 0.005
    report("criterion 1 (tier labels)",
           "condensed 6->0.37, 8->0.40 match derived N=8, N=10 instead")


def test_criterion_2_zero_transfer_soundness():
    """100 opposite-slope pairs with x_I >= delta: exact and sampled AT = 0, < 30 s."""
    start = time.perf_counter()
    rng = philox(2020)
    cfg = AttackSampleConfig("ensemble", 1_000_000, 2021)
    for i in range(100):
        if i == 0:
            # boundary case: the stock pair crosses exactly at x_I = delta
            plan = plan_sequence(SCENARIO, 2, PLAN_K, PLAN_B_MAX)
            bd1, bd2 = (bd for bd, _ in plan.versions)
            ar1 = Breach.within(SCENARIO, bd1)
            ar2 = Breach.within(SCENARIO, bd2)
        else:
            bd1, bd2, ar1, ar2 = separating_pair(rng)
        assert check_zero_transfer(bd1, bd2, SCENARIO)
        assert ar1.score(bd2) == 0.0
        assert ar2.score(bd1) == 0.0
        source, target = (bd1, bd2) if i % 2 == 0 else (bd2, bd1)
        assert mc_transferability(SCENARIO, [source], target, cfg).value == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    report("criterion 2", f"100 pairs exact and 1e6-sample AT all 0.0 in {elapsed:.1f}s")


def _agreement(bd_a, bd_b, rng, n=100_000) -> float:
    x = rng.uniform(-2.0 * SCENARIO.c, 2.0 * SCENARIO.c, n)
    y = rng.uniform(-SCENARIO.y_lim, SCENARIO.y_lim, n)
    return float(np.mean((bd_a.signed_value(x, y) >= 0.0) == (bd_b.signed_value(x, y) >= 0.0)))


def test_criterion_3_closed_form_vs_oracle():
    """1000 hidden points across all case branches: >= 99.99% agreement, < 5 min."""
    start = time.perf_counter()
    rng = philox(3030)
    points: list[HiddenPoint] = []
    for _ in range(450):
        points.append(sample_hidden(rng, w_sign=+1))
    for _ in range(450):
        points.append(sample_hidden(rng, w_sign=-1))
    for _ in range(50):
        points.append(HiddenPoint(sample_hidden(rng).v, 0.0))
    c = SCENARIO.c
    while len(points) < 1000:
        v = float(rng.uniform(0.955 * (c - 1.0), 0.999 * (c - 1.0)))
        w = float(rng.uniform(0.8, 1.0)) * SCENARIO.y_lim * (1.0 if rng.random() < 0.5 else -1.0)
        if (v - c) ** 2 + w**2 <= 1.0:
            continue
        _, deriv = boundary_from_hidden(SCENARIO, HiddenPoint(v, w))
        if deriv.case_tag.endswith("tangent"):
            points.append(HiddenPoint(v, w))

    cases = set()
    worst_agree = 1.0
    worst_slope = 0.0
    for h in points:
        closed, deriv = boundary_from_hidden(SCENARIO, h)
        cases.add(deriv.case_tag)
        numeric = oracle_boundary(SCENARIO, h)
        assert numeric.kind == closed.kind
        if closed.kind == "sloped":
            worst_slope = max(worst_slope, abs(numeric.k - closed.k) / max(1.0, abs(closed.k)))
        else:
            worst_slope = max(worst_slope, abs(numeric.x0 - closed.x0) / max(1.0, abs(closed.x0)))
        agree = _agreement(closed, numeric, rng)
        worst_agree = min(worst_agree, agree)
        assert agree >= 0.9999, (h, agree)
    assert worst_slope <= 1e-6
    assert cases == {"w_zero", "w_pos_tangent", "w_pos_direct", "w_neg_tangent", "w_neg_direct"}
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    report(
        "criterion 3",
        f"1000 points, min agreement {worst_agree:.6f}, max slope dev {worst_slope:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_round_trip():
    """500 feasible (k, b): anchor reconstruction recovers (k, b) to 1e-6, < 1 min."""
    start = time.perf_counter()
    rng = philox(4040)
    found = 0
    worst = 0.0
    while found < 500:
        k = float(rng.uniform(0.2, 12.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.uniform(0.0, 2.0 * SCENARIO.c)) * math.copysign(1.0, k)
        rep = check_boundary_feasibility(SCENARIO, k, b)
        if not rep.feasible:
            continue
        found += 1
        boundary, _ = boundary_from_hidden(SCENARIO, rep.reconstructed_h)
        dev = max(
            abs(boundary.k - k) / max(1.0, abs(k)),
            abs(boundary.b - b) / max(1.0, abs(b)),
        )
        worst = max(worst, dev)
        assert dev <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    report("criterion 4", f"500 round trips, max dev {worst:.2e}, {elapsed:.1f}s")


def _random_boundary(rng) -> DecisionBoundary:
    c = SCENARIO.c
    if rng.random() < 0.15:
        return DecisionBoundary.vertical(float(rng.uniform(-(c - 2.0), 0.0)), SCENARIO)
    while True:
        k = float(rng.uniform(0.5, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        offset = float(rng.uniform(0.0, 0.9 * SCENARIO.y_lim))
        b = -math.copysign(offset, k)
        bd = DecisionBoundary.sloped(k, b, SCENARIO)
        if separates_training_disks(SCENARIO, bd):
            return bd


def test_criterion_5_exact_vs_sampled():
    """50 boundary sets: 1e6-sample estimates within 3 sigma of exact, < 5 min."""
    start = time.perf_counter()
    rng = philox(5050)
    compared = 0
    worst = 0.0
    for i in range(50):
        n_priors = int(rng.integers(2, 9))
        priors = [_random_boundary(rng) for _ in range(n_priors)]
        target = _random_boundary(rng)
        prior_regions = [build_attackable_region(SCENARIO, b) for b in priors]
        target_region = build_attackable_region(SCENARIO, target)
        cfg = AttackSampleConfig("ensemble", 1_000_000, 5100 + i)

        exact = compound_transferability(prior_regions, target_region)
        if exact.defined:
            est = mc_transferability(SCENARIO, priors, target, cfg)
            sigma = math.sqrt(max(exact.value * (1.0 - exact.value), 0.0) / est.accepted)
            if sigma == 0.0:
                assert est.value == exact.value
            else:
                worst = max(worst, abs(est.value - exact.value) / (3.0 * sigma))
                assert abs(est.value - exact.value) <= 3.0 * sigma
            compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    report(
        "criterion 5",
        f"{compared} exact-vs-sampled comparisons, max |dev|/3sigma {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_plan_bounds():
    """For N in 2..10: prefix compound AT <= alpha, alpha monotone, unions stable, < 10 s."""
    start = time.perf_counter()
    alphas = []
    for n in range(2, 11):
        plan = plan_sequence(SCENARIO, n, PLAN_K, PLAN_B_MAX)
        audit = verify_plan(plan)
        assert audit.passed, (n, audit)
        assert audit.max_compound <= plan.alpha + 1e-12
        assert audit.union_max_rel_dev <= 1e-9
        alphas.append(plan.alpha)
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    assert alphas[0] == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    report("criterion 6", f"alpha ladder {[round(a, 4) for a in alphas]}, {elapsed:.1f}s")


def test_criterion_7_random_baseline():
    """Same-side fraction 0.50 +- 0.05 over 1000 pairs; greedy beats the random
    baseline's mean max compound AT paired over 20 seeds; < 2 min."""
    start = time.perf_counter()
    same = 0
    for seed in range(1000):
        pair = random_baseline_sequence(SCENARIO, 2, seed=seed)
        same += (pair[0][0].w > 0.0) == (pair[1][0].w > 0.0)
    fraction = same / 1000.0
    assert 0.45 <= fraction <= 0.55

    seed_plan = plan_sequence(SCENARIO, 2, PLAN_K, PLAN_B_MAX)
    greedy_max = []
    random_max = []
    for seed in range(20):
        pool = generate_candidate_pool(SCENARIO, 50, 2.0, seed=1000 + seed)
        breached = [bd for bd, _ in seed_plan.versions]
        worst = 0.0
        for _ in range(6):
            index, score = greedy_select_next(SCENARIO, pool, breached, EXACT)
            worst = max(worst, score.value)
            breached.append(pool.boundaries[index])
        greedy_max.append(worst)

        versions = [bd for bd, _ in seed_plan.versions]
        worst = 0.0
        for _, boundary in random_baseline_sequence(SCENARIO, 6, seed=1000 + seed):
            priors = [build_attackable_region(SCENARIO, b) for b in versions]
            target = build_attackable_region(SCENARIO, boundary)
            worst = max(worst, compound_transferability(priors, target).value)
            versions.append(boundary)
        random_max.append(worst)

    greedy_mean = sum(greedy_max) / len(greedy_max)
    random_mean = sum(random_max) / len(random_max)
    assert greedy_mean <= random_mean
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    report(
        "criterion 7",
        f"same-side fraction {fraction:.3f}, greedy mean max AT {greedy_mean:.4f} "
        f"<= random mean max AT {random_mean:.4f}, {elapsed:.1f}s",
    )
