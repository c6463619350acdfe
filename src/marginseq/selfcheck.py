"""Deterministic cross-checks backing the ``verify`` CLI command.

Each check pits an exact computation against an independent route (numeric
oracle, closed-form area, Monte Carlo) and reports the measured deviation.
All randomness is Philox-seeded, so a given scenario always produces the
same pass/fail lines.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .regions import (
    AttackSampleConfig,
    Breach,
    check_zero_transfer,
    closed_form_ar_area,
    mc_transferability,
    paired_scores,
    philox,
    planes_of,
)
from .separators import (
    DecisionBoundary,
    HiddenPoint,
    ScenarioConfig,
    boundary_from_hidden,
    oracle_boundary,
)
from .versioning import (
    anchor_admissible,
    check_boundary_feasibility,
    draw_hidden_points,
    find_bmax,
    plan_sequence,
    verify_plan,
)

_PROBE_SLOPES = (7.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.8, 0.5, 0.3)

REFERENCE_SCENARIO = ScenarioConfig(100.0, 0.1, 30.0)
REFERENCE_PLAN = (7.0, 12.0)
REFERENCE_AR1 = 61.39
REFERENCE_ALPHAS = {2: 0.0, 4: 0.17, 6: 0.32, 8: 0.37, 10: 0.40}
REFERENCE_TOL = 0.005

# sample counts of the randomized checks
_ORACLE_POINTS = 40
_ROUND_TRIP_PAIRS = 60
_ZERO_TRANSFER_PAIRS = 20
_MC_SETS = 6


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def boundary_deviation(a: DecisionBoundary, b: DecisionBoundary) -> float:
    """Deviation between two separators as unit-normalised "+" half-planes.

    The larger of the distance between the unit normals and the difference
    of the offsets relative to max(1, |offset|), so a line has one reading
    however steep it is.
    """
    na, nb = math.hypot(a.plus.a, a.plus.b), math.hypot(b.plus.a, b.plus.b)
    dev_n = math.hypot(a.plus.a / na - b.plus.a / nb, a.plus.b / na - b.plus.b / nb)
    dev_c = abs(a.plus.c / na - b.plus.c / nb) / max(1.0, abs(a.plus.c / na))
    return max(dev_n, dev_c)


def check_oracle_agreement(scenario: ScenarioConfig) -> CheckResult:
    worst = 0.0
    # eps_d = 1 leaves the whole band; every eighth point is moved onto w = 0
    for i, h in enumerate(draw_hidden_points(scenario, _ORACLE_POINTS, 1.0, 9001, 0)):
        h = HiddenPoint(h.v, 0.0) if i % 8 == 0 else h
        closed, _ = boundary_from_hidden(scenario, h)
        numeric = oracle_boundary(scenario, h)
        worst = max(worst, boundary_deviation(closed, numeric))
    return CheckResult(
        "closed-form vs oracle max slope dev <= 1e-06", worst <= 1e-6, f"measured={worst:.3e}"
    )


def check_round_trip(scenario: ScenarioConfig) -> CheckResult:
    rng = philox(9002, 0)
    worst = 0.0
    found = 0
    attempts = 0
    while found < _ROUND_TRIP_PAIRS and attempts < 400 * _ROUND_TRIP_PAIRS:
        attempts += 1
        k = float(rng.uniform(0.2, 12.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.uniform(0.0, 2.0 * scenario.c)) * math.copysign(1.0, k)
        report = check_boundary_feasibility(scenario, k, b)
        if not report.feasible:
            continue
        found += 1
        boundary, _ = boundary_from_hidden(scenario, report.reconstructed_h)
        ref = DecisionBoundary.sloped(k, b, scenario)
        worst = max(worst, boundary_deviation(ref, boundary))
    passed = found == _ROUND_TRIP_PAIRS and worst <= 1e-6
    return CheckResult(
        "round-trip boundary -> anchor -> boundary dev <= 1e-06",
        passed,
        f"measured={worst:.3e} over {found} feasible pairs",
    )


def check_area_closed_form(scenario: ScenarioConfig) -> CheckResult:
    d, y = scenario.delta, scenario.y_lim
    worst = 0.0
    count = 0
    for k in (1.0, 3.0, 7.0, 12.0):
        # stay inside the strip and keep the offset line a separator
        top = min(y - k * d, 0.95 * (k * scenario.c - math.hypot(k, 1.0)))
        if top <= 0.0:
            continue
        for frac in (0.1, 0.35, 0.6, 0.9, 1.0):
            b = frac * top
            try:
                expected = closed_form_ar_area(scenario, k, b)
            except DomainError:
                continue
            if expected <= 0.0:
                continue  # the formula is stated for positive areas; this one underflowed
            boundary = DecisionBoundary.sloped(k, -b, scenario)
            area = Breach.within(scenario, boundary).area
            worst = max(worst, abs(area - expected) / expected)
            count += 1
    return CheckResult(
        "polygon area vs closed form dev <= 1e-09",
        count > 0 and worst <= 1e-9,
        f"measured={worst:.3e} over {count} boundaries",
    )


def separates_training_disks(scenario: ScenarioConfig, boundary: DecisionBoundary) -> bool:
    """Both unit training disks strictly on their own sides of the boundary."""
    c = scenario.c
    norm = math.hypot(boundary.plus.a, boundary.plus.b)
    return (
        boundary.signed_value(c, 0.0) / norm > 1.0
        and boundary.signed_value(-c, 0.0) / norm < -1.0
    )


def _zero_transfer_pair(scenario: ScenarioConfig, rng: "np.random.Generator") -> list[Breach]:
    """:meth:`Breach.within` each of two separating, opposite-slope versions, both with area."""
    d, y = scenario.delta, scenario.y_lim
    for _ in range(100_000):
        k = float(rng.uniform(0.5, 10.0))
        x_i = float(rng.uniform(d, 5.0 * d + 0.5))
        y_i = float(rng.uniform(-0.2 * y, 0.2 * y))
        bd1 = DecisionBoundary.sloped(k, y_i - k * x_i, scenario)
        bd2 = DecisionBoundary.sloped(-k, y_i + k * x_i, scenario)
        if not (separates_training_disks(scenario, bd1) and separates_training_disks(scenario, bd2)):
            continue
        within = [Breach.within(scenario, bd1), Breach.within(scenario, bd2)]
        if within[0].area > 0.0 and within[1].area > 0.0:
            return within
    raise DomainError("could not generate a separating zero-transfer pair for this scenario")


def check_zero_transfer_pairs(scenario: ScenarioConfig) -> CheckResult:
    rng = philox(9003, 0)
    breaches, targets = [], []
    worst_mc = 0.0
    for _ in range(_ZERO_TRANSFER_PAIRS):
        within = _zero_transfer_pair(scenario, rng)
        bd1, bd2 = (breach.priors[0] for breach in within)
        assert check_zero_transfer(bd1, bd2, scenario)
        # both directional ratios, scored below with every other pair's
        breaches += within
        targets += [bd2, bd1]
        cfg = AttackSampleConfig("ensemble", 100_000, 77)
        worst_mc = max(worst_mc, mc_transferability(scenario, [bd1], bd2, cfg).value)
    worst_exact = max(0.0, *paired_scores(breaches, planes_of(targets)).tolist())
    passed = worst_exact == 0.0 and worst_mc == 0.0
    return CheckResult(
        "zero-transfer pairs exact and sampled == 0",
        passed,
        f"exact_max={worst_exact:.3e} mc_max={worst_mc:.3e}",
    )


def check_mc_consistency(scenario: ScenarioConfig) -> CheckResult:
    rng = philox(9004, 0)
    breaches, targets, estimates = [], [], []
    for _ in range(_MC_SETS):
        bd1, bd2 = (breach.priors[0] for breach in _zero_transfer_pair(scenario, rng))
        k = bd1.k
        # deepest downward offset that still separates and keeps the region
        # inside the strip
        norm = math.hypot(k, 1.0)
        cap = 0.9 * min(k * scenario.c - norm, scenario.y_lim - k * scenario.delta)
        offset = float(rng.uniform(0.1, 1.0)) * max(cap, abs(bd1.b))
        target = DecisionBoundary.sloped(k, min(bd1.b, 0.0) - offset, scenario)
        if not separates_training_disks(scenario, target):
            target = DecisionBoundary.sloped(k, -cap, scenario)
        priors = [bd1, bd2]
        breaches.append(Breach.of(scenario, priors))
        targets.append(target)
        cfg = AttackSampleConfig("ensemble", 200_000, 78)
        estimates.append(mc_transferability(scenario, priors, target, cfg))
    worst_sigma = 0.0
    for exact, est in zip(paired_scores(breaches, planes_of(targets)).tolist(), estimates):
        sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / est.accepted)
        worst_sigma = max(worst_sigma, abs(est.value - exact) / (3.0 * sigma))
    return CheckResult(
        "monte carlo within 3 sigma of exact ratios",
        worst_sigma <= 1.0,
        f"max |dev|/3sigma={worst_sigma:.3f}",
    )


def check_plan_bounds(scenario: ScenarioConfig, preferred_k: float) -> CheckResult:
    # The alternating construction shifts from the base y = k*(x - delta), so
    # the usable step budget is the ray frontier minus the base offset.
    k = None
    b_max = 0.0
    for cand in (preferred_k, *_PROBE_SLOPES):
        if cand <= 0.0 or not anchor_admissible(scenario, cand, -cand * scenario.delta):
            continue
        budget = find_bmax(scenario, cand) - cand * scenario.delta - 1e-9
        if budget > 0.0:
            k, b_max = cand, budget
            break
    if k is None:
        return CheckResult("plan alpha bound and monotonicity", False, "no admissible base slope")
    last = -1.0
    for n in range(2, 11):
        plan = plan_sequence(scenario, n, k, b_max)
        if plan.alpha < last - 1e-12:
            return CheckResult(
                "plan alpha bound and monotonicity", False, f"alpha decreased at N={n}"
            )
        last = plan.alpha
        if n >= 3 and not verify_plan(plan).passed:
            return CheckResult(
                "plan alpha bound and monotonicity", False, f"plan audit failed at N={n}"
            )
    return CheckResult(
        "plan alpha bound and monotonicity", True, f"k={k:g} b_max={b_max:.6f} alpha(10)={last:.4f}"
    )


def check_reference_table(scenario: ScenarioConfig, k: float, b_max: float) -> CheckResult | None:
    """Stock-configuration regression against the published alpha tiers."""
    if scenario != REFERENCE_SCENARIO or (k, b_max) != REFERENCE_PLAN:
        return None
    ar1 = Breach.within(scenario, plan_sequence(scenario, 2, k, b_max).versions[0][0]).area
    worst = abs(ar1 - REFERENCE_AR1)
    ok = worst <= 0.01
    for n, ref in REFERENCE_ALPHAS.items():
        alpha = plan_sequence(scenario, n, k, b_max).alpha
        ok = ok and abs(alpha - ref) <= REFERENCE_TOL
        worst = max(worst, abs(alpha - ref))
    return CheckResult(
        "reference alpha table within 0.005", ok, f"max |dev|={worst:.4f} ar1={ar1:.4f}"
    )


def run_all(scenario: ScenarioConfig, plan_k: float, plan_b_max: float) -> list[CheckResult]:
    checks = [
        check_oracle_agreement(scenario),
        check_round_trip(scenario),
        check_area_closed_form(scenario),
        check_zero_transfer_pairs(scenario),
        check_mc_consistency(scenario),
        check_plan_bounds(scenario, plan_k),
    ]
    ref = check_reference_table(scenario, plan_k, plan_b_max)
    if ref is not None:
        checks.append(ref)
    return checks
