"""Per-layer timings for the traced run.

After the traced workload loop, ``probe`` calls each layer's public function
directly on the workload's own inputs (its pool, the stock plan, the seed
pair), inside spans, so that every layer is timed on every workload.
``per_layer_metrics`` then reduces the loop's spans and the probe's spans to
the metrics listed in BENCHMARK.json.  Times are rescaled to nominal speed by
the median reference-kernel time of the whole run (see reference.py).
"""

import io
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

import marginseq as ms
import marginseq.cli
import marginseq.selfcheck

import independent
from spans import duration, span_cost_s
from workloads import EXACT, STOCK_B_MAX, STOCK_K, child_env, remaining_candidates, sub_seeds

PROBE_CALLS = 200
ORACLE_CALLS = 5
MC_SAMPLES = 1_000_000
SAMPLED_POOL = 50
SAMPLED_SAMPLES = 200_000
IMPORTS = 3
CLI_MAIN = {
    "table": ["table"],
    "plan": ["plan", "--n", "10"],
    "pool": ["pool"],
    "verify": ["verify"],
    "boundary": ["boundary", "--h=10,5"],
}

IMPORT_CODE = ("import time; t = time.perf_counter(); import marginseq.cli; "
               "print(time.perf_counter() - t)")


def probe(inputs, tracer, speed) -> None:
    """Time every layer on the workload's inputs; the kernel runs between layers."""
    tracer.request = "probe"
    S, pool = inputs.scenario, inputs.pool
    (seed32,) = sub_seeds(inputs.seed + 1, 1)
    hidden = [pool.hidden_points[i % len(pool.hidden_points)] for i in range(PROBE_CALLS)]
    boundaries = [pool.boundaries[i % len(pool.boundaries)] for i in range(PROBE_CALLS)]

    with tracer.span("separators.boundary_from_hidden", count=len(hidden)):
        for h in hidden:
            ms.boundary_from_hidden(S, h)
    for h in hidden[:ORACLE_CALLS]:
        with tracer.span("separators.oracle_boundary"):
            ms.oracle_boundary(S, h)
    speed.sample()

    bands = [ms.rectangle(-2.0 * S.c, -S.delta, -S.y_lim, S.y_lim),
             ms.rectangle(0.0, S.delta, -S.y_lim, S.y_lim)]
    halves = []
    for bd in boundaries:
        ln = independent.line_of(bd)
        halves.append(ms.HalfPlane(-ln.a, -ln.b, ln.c))
    with tracer.span("geometry.clip_convex", count=len(halves) * len(bands)):
        for half in halves:
            for band in bands:
                ms.clip_convex(band, half)
    speed.sample()

    with tracer.span("regions.build_attackable_region", count=len(boundaries)):
        targets = [ms.build_attackable_region(S, bd) for bd in boundaries]
    plan = ms.plan_sequence(S, 10, STOCK_K, STOCK_B_MAX)
    plan_bds = [bd for bd, _ in plan.versions]
    plan_regions = [ms.build_attackable_region(S, bd) for bd in plan_bds]
    with tracer.span("regions.compound_transferability", count=len(targets)):
        for target in targets:
            ms.compound_transferability(plan_regions[:-1], target)
    with tracer.span("regions.union_area", count=len(plan_regions) - 1):
        for i in range(2, len(plan_regions) + 1):
            ms.union_area(plan_regions[:i])
    speed.sample()

    cfg = ms.AttackSampleConfig("ensemble", MC_SAMPLES, seed32)
    for i in (2, 3, 10):
        with tracer.span("regions.mc_transferability", samples=MC_SAMPLES) as sp:
            sp["accepted"] = ms.mc_transferability(S, plan_bds[: i - 1], plan_bds[i - 1],
                                                   cfg).accepted
    speed.sample()

    for _ in range(3):
        with tracer.span("versioning.generate_candidate_pool"):
            ms.generate_candidate_pool(S, len(pool.boundaries), seed=seed32)
    with tracer.span("versioning.greedy_select_next",
                     candidates=remaining_candidates(pool, inputs.seed_pair)):
        ms.greedy_select_next(S, pool, inputs.seed_pair, EXACT)
    small = ms.generate_candidate_pool(S, SAMPLED_POOL, seed=seed32)
    n = remaining_candidates(small, inputs.seed_pair)
    with tracer.span("versioning.greedy_select_next_sampled", candidates=n,
                     samples=n * SAMPLED_SAMPLES):
        ms.greedy_select_next(S, small, inputs.seed_pair,
                              ms.AttackSampleConfig("ensemble", SAMPLED_SAMPLES, seed32))
    plans = []
    for versions in (10, 20, 40):
        with tracer.span("versioning.plan_sequence"):
            plans.append(ms.plan_sequence(S, versions, STOCK_K, STOCK_B_MAX))
    for p in plans:
        with tracer.span("versioning.verify_plan"):
            ms.verify_plan(p)
    speed.sample()

    with tracer.span("selfcheck.run_all"):
        marginseq.selfcheck.run_all(S, STOCK_K, STOCK_B_MAX)
    for command, argv in CLI_MAIN.items():
        with tracer.span(f"cli.main.{command}"), redirect_stdout(io.StringIO()):
            marginseq.cli.main(argv)
    speed.sample()
    for _ in range(IMPORTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        tracer.record("cli.import", float(out.stdout.strip().splitlines()[-1]))
        speed.sample()


def _per_call(tracer, name: str) -> float:
    return statistics.median(duration(s) / s.get("count", 1) for s in tracer.named(name))


def per_layer_metrics(tracer, rounds: int, loop_seconds: float, factor: float) -> dict:
    """Every per-layer metric from the spans of one traced run.

    ``factor`` rescales wall seconds to seconds at nominal kernel speed.
    """
    times = {
        "geometry.clip_convex_us": ("geometry.clip_convex", 1e6, "us"),
        "separators.boundary_from_hidden_us": ("separators.boundary_from_hidden", 1e6, "us"),
        "separators.oracle_boundary_ms": ("separators.oracle_boundary", 1e3, "ms"),
        "regions.build_attackable_region_us": ("regions.build_attackable_region", 1e6, "us"),
        "regions.compound_transferability_us": ("regions.compound_transferability", 1e6, "us"),
        "regions.union_area_us": ("regions.union_area", 1e6, "us"),
        "versioning.generate_candidate_pool_s": ("versioning.generate_candidate_pool", 1.0, "s"),
        "versioning.greedy_select_next_s": ("versioning.greedy_select_next", 1.0, "s"),
        "versioning.greedy_select_next_sampled_s":
            ("versioning.greedy_select_next_sampled", 1.0, "s"),
        "versioning.plan_sequence_ms": ("versioning.plan_sequence", 1e3, "ms"),
        "versioning.verify_plan_ms": ("versioning.verify_plan", 1e3, "ms"),
        "selfcheck.run_all_s": ("selfcheck.run_all", 1.0, "s"),
        "cli.import_s": ("cli.import", 1.0, "s"),
        **{f"cli.main_{c}_s": (f"cli.main.{c}", 1.0, "s") for c in CLI_MAIN},
    }
    m = {metric: (scale * factor * _per_call(tracer, name), unit)
         for metric, (name, scale, unit) in times.items()}

    mc = tracer.named("regions.mc_transferability")
    m["regions.mc_transferability_s"] = (
        factor * statistics.median(duration(s) * 1e6 / s["samples"] for s in mc), "s")
    m["regions.mc_acceptance"] = (sum(s["accepted"] for s in mc) / sum(s["samples"] for s in mc),
                                  "ratio")
    loop = [s for s in tracer.spans if s["request"] != "probe"]
    m["regions.mc_samples_drawn"] = (sum(s.get("samples", 0) for s in loop) / rounds, "count")
    m["versioning.candidates_scored"] = (sum(s.get("candidates", 0) for s in loop) / rounds,
                                         "count")
    m["trace.overhead_pct"] = (100.0 * len(loop) * span_cost_s() / loop_seconds, "%")
    return m
