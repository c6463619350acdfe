"""Output checks for each workload, against the independent routines.

Every round repeats the same calls on the same inputs, so later rounds must
return exactly what the first returned; the first is checked in depth.  Each
check function returns a list of problems, empty when the outputs hold.
Lines are compared by how they classify seeded points and greedy choices by
score, never by kind/k/b or pool index, since near-ties among 1000 candidates
may break either way.
"""

import csv
import io
import math

import numpy as np

import marginseq as ms

import independent as ind
from workloads import STOCK_B_MAX, STOCK_K

EXACT_TOL = 1e-9  # scores from the API against vertex enumeration
CSV_TOL = 1e-6  # scores parsed from 9-significant-digit CSV
REFERENCE_AR1 = 61.39
REFERENCE_ALPHAS = {2: 0.0, 4: 0.17, 6: 0.32, 8: 0.37, 10: 0.40}
REFERENCE_TOL = 0.005
GREEDY_ALTERNATIVES = 60
POOLED_SEEDS = 8
CLASSIFY_POINTS = 20_000
BOUNDARY_AGREEMENT = 0.9999


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def repeat_problems(rounds, kinds=None) -> list[str]:
    """Later rounds must reproduce the first round's outputs exactly."""
    first = rounds[0]
    problems = []
    for n, r in enumerate(rounds[1:], start=2):
        for a, b in zip(first, r):
            if (kinds is None or a.kind in kinds) and a.output != b.output:
                problems.append(f"round {n}: {a.kind} output differs from round 1")
    return problems


def _plus(boundary):
    return lambda x, y: ms.classify(boundary, (x, y)) == "+"


def _line_plus(line: ind.Line):
    return lambda x, y: line.value(x, y) >= 0.0


def _points(scenario, seed: int, n: int):
    rng = _rng(seed, 11)
    c, y = scenario.c + 2.0, scenario.y_lim
    return rng.uniform(-c, c, n), rng.uniform(-y, y, n)


def _near_line_points(scenario, line: ind.Line, seed: int, n: int):
    """Points within distance 1 of the line, along its whole run across the world.

    Uniform points over the world would rarely fall where two nearly equal
    lines disagree; near the line a 0.01 offset already splits ~0.5% of them.
    """
    rng = _rng(seed, 13)
    X, Y = scenario.c + 2.0, scenario.y_lim
    dx, dy = -line.b, line.a
    px, py = -line.c * line.a, -line.c * line.b
    lo, hi = -math.inf, math.inf
    for p, d, bound in ((px, dx, X), (py, dy, Y)):
        if abs(d) > 1e-12:
            t1, t2 = sorted(((-bound - p) / d, (bound - p) / d))
            lo, hi = max(lo, t1), min(hi, t2)
    t = rng.uniform(lo, hi, n)
    s = rng.uniform(-1.0, 1.0, n)
    return px + t * dx + s * line.a, py + t * dy + s * line.b


def same_line(scenario, boundary, line: ind.Line, seed: int, n: int = 2000) -> bool:
    """The boundary classifies exactly like the line, away from the line itself."""
    xs, ys = _points(scenario, seed, n)
    keep = np.abs(line.value(xs, ys)) > 1e-6
    return ind.classification_agreement(_plus(boundary), _line_plus(line),
                                        xs[keep], ys[keep]) == 1.0


def succeeded_chain(ops):
    """The leading operations of a chain in which each depends on the last."""
    out = []
    for op in ops:
        if op.failed:
            break
        out.append(op)
    return out


def greedy_exact(inputs, rounds) -> list[str]:
    problems = repeat_problems(rounds)
    S, pool = inputs.scenario, inputs.pool
    lines = [ind.line_of(bd) for bd in pool.boundaries]
    breached = list(inputs.seed_pair)
    priors = [ind.line_of(bd) for bd in breached]
    rng = _rng(inputs.seed, 12)
    for step, op in enumerate(succeeded_chain(rounds[0]), start=len(breached) + 1):
        index, value, defined = op.output
        chosen = ind.compound_score(S, priors, lines[index])
        if not (defined and 0.0 <= value <= 1.0 and abs(value - chosen) <= EXACT_TOL):
            problems.append(f"step {step}: score {value} vs independent {chosen}")
        regions = [ms.build_attackable_region(S, bd) for bd in breached]
        others = [i for i, bd in enumerate(pool.boundaries) if bd not in breached and i != index]
        for i in rng.choice(others, size=min(GREEDY_ALTERNATIVES, len(others)), replace=False):
            score = ms.compound_transferability(
                regions, ms.build_attackable_region(S, pool.boundaries[i])).value
            exact = ind.compound_score(S, priors, lines[i])
            if not (0.0 <= score <= 1.0 and abs(score - exact) <= EXACT_TOL):
                problems.append(f"step {step}: candidate {i} scores {score} vs {exact}")
            if chosen > exact + EXACT_TOL:
                problems.append(f"step {step}: chose {chosen} over candidate {i} at {exact}")
        breached.append(pool.boundaries[index])
        priors.append(lines[index])
    return problems


def _plan_problems(S, plan, b_max, seed) -> list[str]:
    """The plan follows the alternating construction and its bound holds."""
    n = len(plan.versions)
    ref = ind.plan_lines(S, n, STOCK_K, b_max)
    problems = [f"N={n}: version {i} is not the alternating construction"
                for i, ((bd, _), line) in enumerate(zip(plan.versions, ref), start=1)
                if not same_line(S, bd, line, seed + i)]
    alpha = ind.compound_score(S, ref[:2], ref[2]) if n >= 3 else 0.0
    if abs(plan.alpha - alpha) > EXACT_TOL:
        problems.append(f"N={n}: alpha {plan.alpha} vs independent {alpha}")
    return problems


def _pooled_mc_problems(S, plan, ref, cfg, seed) -> list[str]:
    """Estimates under further seeds, pooled, against the exact ratio.

    One estimate at 10^6 samples keeps only ~1% of them, so its sigma is
    ~0.005 and a bias of a few percent hides inside 6 sigmas; pooling
    POOLED_SEEDS estimates narrows the test by their square root.
    """
    versions = [bd for bd, _ in plan.versions]
    problems = []
    for i in (3, len(versions)):
        exact = ind.compound_score(S, ref[: i - 1], ref[i - 1])
        hits = accepted = 0
        for s in range(POOLED_SEEDS):
            est = ms.mc_transferability(S, versions[: i - 1], versions[i - 1],
                                        ms.AttackSampleConfig(cfg.mode, cfg.n_samples,
                                                              (seed * POOLED_SEEDS + s) % 2**32))
            hits += round(est.value * est.accepted)
            accepted += est.accepted
        if not ind.mc_consistent(hits / accepted, accepted, exact):
            problems.append(f"prefix {i}: pooled Monte Carlo {hits / accepted} over {accepted} "
                            f"accepted vs exact {exact}")
    return problems


def sampled_audit(inputs, rounds) -> list[str]:
    problems = repeat_problems(rounds)
    S, x = inputs.scenario, inputs.extra
    ops = [op for op in rounds[0] if not op.failed]
    for op in (op for op in ops if op.kind == "verify"):
        plan = x["plans"][op.work["plan"]]
        n = len(plan.versions)
        problems += _plan_problems(S, plan, x["b_max"], inputs.seed)
        if not op.output.passed:
            problems.append(f"N={n}: verify_plan did not pass")
        ref = ind.plan_lines(S, n, STOCK_K, x["b_max"])
        alpha = ind.compound_score(S, ref[:2], ref[2])
        for i, value in op.output.compound_by_version:
            exact = ind.compound_score(S, ref[: i - 1], ref[i - 1])
            if abs(value - exact) > EXACT_TOL or exact > alpha + EXACT_TOL:
                problems.append(f"N={n}: prefix {i} scores {value}, independent {exact}, "
                                f"alpha {alpha}")

    ref = ind.plan_lines(S, len(x["mc_plan"].versions), STOCK_K, x["b_max"])
    for op in (op for op in ops if op.kind == "mc"):
        i, est = op.work["prefix"], op.output
        exact = ind.compound_score(S, ref[: i - 1], ref[i - 1])
        if i == 2 and est.value != 0.0:
            problems.append(f"seed pair: Monte Carlo gives {est.value}, not exactly 0")
        if not ind.mc_consistent(est.value, est.accepted, exact):
            problems.append(f"prefix {i}: Monte Carlo {est.value} ({est.accepted} accepted) "
                            f"vs exact {exact}")
    problems += _pooled_mc_problems(S, x["mc_plan"], ref, x["mc_cfg"], inputs.seed)

    pool, cfg = inputs.pool, x["greedy_cfg"]
    lines = [ind.line_of(bd) for bd in pool.boundaries]
    breached = list(inputs.seed_pair)
    priors = [ind.line_of(bd) for bd in breached]
    for op in succeeded_chain(o for o in rounds[0] if o.kind == "sampled_greedy"):
        index, value, defined = op.output
        chosen = ind.compound_score(S, priors, lines[index])
        # The estimator's sample size for this candidate, from the public
        # Monte Carlo call with the same configuration.
        accepted = ms.mc_transferability(S, breached, pool.boundaries[index], cfg).accepted
        if not (defined and ind.mc_consistent(value, accepted, chosen)):
            problems.append(f"sampled step: estimate {value} vs exact {chosen}")
        slack = ind.MC_Z * math.sqrt(0.5 / accepted)
        for i, bd in enumerate(pool.boundaries):
            if bd not in breached and chosen > ind.compound_score(S, priors, lines[i]) + slack:
                problems.append(f"sampled step: chose exact {chosen}, candidate {i} is lower")
        breached.append(pool.boundaries[index])
        priors.append(lines[index])
    return problems


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv_line(S, row) -> ind.Line:
    if row["kind"] == "vertical":
        return ind.vertical_line(float(row["x0"]), (S.c, 0.0))
    return ind.sloped_line(float(row["k"]), float(row["b"]), (S.c, 0.0))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _table_problems(S, rows) -> list[str]:
    problems = []
    ar1 = ind.closed_form_ar_area(S, STOCK_K, STOCK_K * S.delta)
    if abs(ar1 - REFERENCE_AR1) > 0.01:
        problems.append(f"closed-form AR1 {ar1} is not {REFERENCE_AR1}")
    if sorted(int(r["n_versions"]) for r in rows) != sorted(REFERENCE_ALPHAS):
        return problems + ["table rows are not N = 2, 4, 6, 8, 10"]
    for r in rows:
        n = int(r["n_versions"])
        if not _close(float(r["ar1_area"]), ar1, CSV_TOL):
            problems.append(f"table N={n}: ar1_area {r['ar1_area']} vs closed form {ar1}")
        if abs(float(r["alpha"]) - REFERENCE_ALPHAS[n]) > REFERENCE_TOL:
            problems.append(f"table N={n}: alpha {r['alpha']} vs {REFERENCE_ALPHAS[n]}")
        if n >= 4:
            step = STOCK_B_MAX / (n // 2 - 1)
            ar3 = ind.closed_form_ar_area(S, STOCK_K, STOCK_K * S.delta + step)
            ref = ind.plan_lines(S, n, STOCK_K, STOCK_B_MAX)
            alpha = ind.compound_score(S, ref[:2], ref[2])
            if not (_close(float(r["ar3_area"]), ar3, CSV_TOL)
                    and _close(float(r["alpha"]), alpha, CSV_TOL)):
                problems.append(f"table N={n}: ar3/alpha {r['ar3_area']}/{r['alpha']} "
                                f"vs {ar3}/{alpha}")
    return problems


def _plan_csv_problems(S, rows, seed) -> list[str]:
    versions = [r for r in rows if r["row"] == "version"]
    summary = [r for r in rows if r["row"] == "summary"]
    ref = ind.plan_lines(S, 10, STOCK_K, STOCK_B_MAX)
    if len(versions) != 10 or len(summary) != 1:
        return ["plan --n 10 did not print 10 versions and a summary"]
    alpha = ind.compound_score(S, ref[:2], ref[2])
    problems = []
    if not _close(float(summary[0]["alpha"]), alpha, CSV_TOL):
        problems.append(f"plan: alpha {summary[0]['alpha']} vs {alpha}")
    xs, ys = _points(S, seed, 2000)
    for i, r in enumerate(versions, start=1):
        line = _csv_line(S, r)
        keep = np.abs(ref[i - 1].value(xs, ys)) > 1e-6
        if (math.copysign(1.0, float(r["k"])) != (1.0 if i % 2 else -1.0)
                or ind.classification_agreement(_line_plus(line), _line_plus(ref[i - 1]),
                                                xs[keep], ys[keep]) != 1.0):
            problems.append(f"plan: version {i} is not the alternating construction")
        if not _close(float(r["ar_area"]), ind.attackable_area(S, ref[i - 1]), CSV_TOL):
            problems.append(f"plan: version {i} ar_area {r['ar_area']}")
        if i >= 2:
            exact = ind.compound_score(S, ref[: i - 1], ref[i - 1])
            at = float(r["compound_at"])
            if not _close(at, exact, CSV_TOL) or exact > alpha + EXACT_TOL:
                problems.append(f"plan: version {i} compound_at {at} vs {exact}, alpha {alpha}")
            if i == 2 and at != 0.0:
                problems.append("plan: the seed pair transfers")
    return problems


def _pool_problems(S, rows, pool, seed_pair) -> list[str]:
    problems = []
    seeds = [ind.line_of(bd) for bd in seed_pair]
    pool_lines = [ind.line_of(bd) for bd in pool.boundaries]
    greedy = [r for r in rows if r["row"] == "greedy"]
    randoms = [r for r in rows if r["row"] == "random"]
    if not greedy or len(greedy) != len(randoms):
        return ["pool: expected matching greedy and random rows"]
    xs, ys = _points(S, 5, CLASSIFY_POINTS)
    priors, used = list(seeds), set()
    for r in greedy:
        line = _csv_line(S, r)
        index = int(r["pool_index"])
        at = float(r["compound_at"])
        exact = ind.compound_score(S, priors, line)
        if not _close(at, exact, CSV_TOL):
            problems.append(f"pool step {r['step']}: compound_at {at} vs {exact}")
        if ind.classification_agreement(_line_plus(line), _line_plus(pool_lines[index]),
                                        xs, ys) < BOUNDARY_AGREEMENT:
            problems.append(f"pool step {r['step']}: printed line is not candidate {index}")
        used.add(index)
        for i, other in enumerate(pool_lines):
            if i not in used and ind.compound_score(S, priors, other) < exact - CSV_TOL:
                problems.append(f"pool step {r['step']}: candidate {i} scores lower")
        priors.append(line)
    priors = list(seeds)
    for r in randoms:
        line = _csv_line(S, r)
        exact = ind.compound_score(S, priors, line)
        if not _close(float(r["compound_at"]), exact, CSV_TOL):
            problems.append(f"pool random step {r['step']}: {r['compound_at']} vs {exact}")
        priors.append(line)
    return problems


def _verify_problems(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or not all(line.startswith("PASS ") for line in lines):
        return ["verify: not every line is PASS"]
    return []


def cli(inputs, rounds) -> list[str]:
    """Commands are independent, so each is checked wherever it succeeded."""
    S = inputs.scenario
    problems = repeat_problems(rounds, kinds={"table", "plan", "pool", "verify"})
    out = {}
    for op in (op for r in rounds for op in r if not op.failed):
        out.setdefault(op.kind, op.output[1])
    checks = {
        "table": lambda text: _table_problems(S, _csv(text)),
        "plan": lambda text: _plan_csv_problems(S, _csv(text), inputs.seed),
        "pool": lambda text: _pool_problems(S, _csv(text), inputs.pool, inputs.seed_pair),
        "verify": _verify_problems,
    }
    for kind, text in out.items():
        if kind in checks:
            problems += checks[kind](text)

    for op in (op for r in rounds for op in r if op.kind == "boundary" and not op.failed):
        v, w = (float(t) for t in op.work["argv"][1].removeprefix("--h=").split(","))
        (row,) = _csv(op.output[1])
        oracle = ms.oracle_boundary(S, ms.HiddenPoint(v, w))
        xs, ys = _near_line_points(S, ind.line_of(oracle), inputs.seed, CLASSIFY_POINTS)
        share = ind.classification_agreement(_line_plus(_csv_line(S, row)), _plus(oracle), xs, ys)
        if share < BOUNDARY_AGREEMENT:
            problems.append(f"boundary --h {v},{w}: agrees with the oracle on {share:.6f}")
    return problems


CHECKS = {"greedy-exact": greedy_exact, "sampled-audit": sampled_audit, "cli": cli}
