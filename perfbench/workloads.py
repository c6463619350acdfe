"""The three workloads: their inputs, made from a seed, and one round of calls.

Each workload is a closed loop from one caller: an operation starts when the
previous one returns.  A round is a fixed sequence of operations on the same
inputs, so every round of a run repeats the same work and the same outputs.
Only public names of ``marginseq`` are called.
"""

import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import marginseq as ms

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

STOCK = ms.ScenarioConfig(100.0, 0.1, 30.0)
STOCK_K = 7.0
STOCK_B_MAX = 12.0
EXACT = ms.AttackSampleConfig("ensemble", 0, 0)


def sub_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def stock_seed_pair() -> list:
    """y = +-7*(x - 0.1): versions 1 and 2 of the stock plan."""
    return [bd for bd, _ in ms.plan_sequence(STOCK, 2, STOCK_K, STOCK_B_MAX).versions]


@dataclass
class Op:
    """One timed call: what it was, how long it took and what it returned."""

    kind: str
    seconds: float
    norm_seconds: float = 0.0
    output: object = None
    work: dict = field(default_factory=dict)
    failed: bool = False


def timed(meter, kind: str, span: str, call, after=None, rescale=None, **work) -> Op:
    """Run one operation inside a span; an exception marks it failed.

    ``meter`` carries the tracer and the reference speed (see reference.py).
    ``rescale(seconds, out)`` gives (seconds, seconds at nominal speed) when
    the operation measured its own speed, else None; then the kernel runs here.
    """
    tracer, speed = meter
    out, error = None, None
    with tracer.span(span, **work) as counters:
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if error is None and after is not None:
            counters.update(after(out))
    failed = error is not None
    if failed:
        print(f"perfbench: {kind} failed:\n{error}", file=sys.stderr)
    scaled = rescale(seconds, out) if rescale is not None and not failed else None
    if scaled is None:
        scaled = seconds, speed.rescale(seconds)
    return Op(kind, *scaled, out, counters, failed)


def remaining_candidates(pool, breached) -> int:
    """Candidates greedy_select_next scores: those not already breached."""
    return sum(1 for bd in pool.boundaries if bd not in breached)


def total_rate(ops, kind: str, work_key: str) -> float:
    """Work per second at nominal speed over every operation of one kind."""
    chosen = [op for op in ops if op.kind == kind]
    return sum(op.work[work_key] for op in chosen) / sum(op.norm_seconds for op in chosen)


def median_round_sum(rounds, kind: str) -> float:
    return statistics.median(sum(op.norm_seconds for op in r if op.kind == kind)
                             for r in rounds)


@dataclass
class Inputs:
    scenario: ms.ScenarioConfig
    seed: int
    pool: ms.CandidatePool
    seed_pair: list
    extra: dict = field(default_factory=dict)


class GreedyExact:
    """Exact greedy selection over a pool of 1000, from the seed pair to 10 versions.

    Each step scores ~1000 candidates against 2-9 breached versions, so the
    time goes to half-plane clipping in regions/geometry; Monte Carlo and
    process start-up are not involved.
    """

    name = "greedy-exact"
    pool_size = 1000
    length = 10
    # Exclusion disks wider than y_lim cover both ends of the band (|v| > 92.2),
    # which keeps every candidate separator ~6 units from the origin.  Closer
    # tangent-branch separators make clip_convex raise on some seeds (see
    # README, "Why eps_d = 31").
    eps_d = 31.0

    def setup(self, seed: int) -> Inputs:
        (pool_seed,) = sub_seeds(seed, 1)
        pool = ms.generate_candidate_pool(STOCK, self.pool_size, self.eps_d, pool_seed)
        return Inputs(STOCK, seed, pool, stock_seed_pair())

    def round(self, inputs: Inputs, meter, index: int) -> list[Op]:
        breached = list(inputs.seed_pair)
        ops = []
        for _ in range(len(breached) + 1, self.length + 1):
            n = remaining_candidates(inputs.pool, breached)
            op = timed(meter, "greedy", "versioning.greedy_select_next",
                       lambda: ms.greedy_select_next(inputs.scenario, inputs.pool, breached, EXACT),
                       candidates=n)
            ops.append(op)
            if op.failed:
                break
            idx, score = op.output
            op.output = (idx, score.value, score.defined)
            breached.append(inputs.pool.boundaries[idx])
        return ops

    def figures(self, rounds) -> dict:
        ops = [op for r in rounds for op in r]
        return {"greedy_candidates_per_s": (total_rate(ops, "greedy", "candidates"), "1/s")}


class SampledAudit:
    """Long alternating plans audited exactly and by sampling, plus sampled greedy steps.

    verify_plan runs over plans of 8 to 40 versions (few targets, many
    priors).  mc_transferability runs at 10^6 samples on every prefix of the
    16-version plan, and greedy_select_next scores a 50-candidate pool at
    2*10^5 samples per candidate.  The time goes to Philox draws, most of
    which are rejected; the 1000-candidate exact scoring is not involved.
    """

    name = "sampled-audit"
    sweep = (8, 16, 24, 32, 40)
    mc_plan_versions = 16
    mc_samples = 1_000_000
    pool_size = 50
    greedy_samples = 200_000
    greedy_steps = 2

    def setup(self, seed: int) -> Inputs:
        s_bmax, s_mc, s_pool, s_greedy = sub_seeds(seed, 4)
        # Any step budget below the stock frontier (13.55 for k = 7) keeps
        # every version's anchor admissible.
        b_max = 6.0 + 7.0 * s_bmax / 2**32
        plans = [ms.plan_sequence(STOCK, n, STOCK_K, b_max) for n in self.sweep]
        pool = ms.generate_candidate_pool(STOCK, self.pool_size, seed=s_pool)
        return Inputs(STOCK, seed, pool, stock_seed_pair(), {
            "b_max": b_max,
            "plans": plans,
            "mc_plan": plans[self.sweep.index(self.mc_plan_versions)],
            "mc_cfg": ms.AttackSampleConfig("ensemble", self.mc_samples, s_mc),
            "greedy_cfg": ms.AttackSampleConfig("ensemble", self.greedy_samples, s_greedy),
        })

    def round(self, inputs: Inputs, meter, index: int) -> list[Op]:
        S, x = inputs.scenario, inputs.extra
        ops = []
        for n, plan in enumerate(x["plans"]):
            ops.append(timed(meter, "verify", "versioning.verify_plan",
                             lambda: ms.verify_plan(plan), plan=n))
        versions = [bd for bd, _ in x["mc_plan"].versions]
        for i in range(2, len(versions) + 1):
            ops.append(timed(meter, "mc", "regions.mc_transferability",
                             lambda: ms.mc_transferability(S, versions[: i - 1], versions[i - 1],
                                                           x["mc_cfg"]),
                             after=lambda est: {"accepted": est.accepted},
                             prefix=i, samples=self.mc_samples))
        # Each sampled step depends on the one before it.
        breached = list(inputs.seed_pair)
        for _ in range(self.greedy_steps):
            n = remaining_candidates(inputs.pool, breached)
            op = timed(meter, "sampled_greedy", "versioning.greedy_select_next_sampled",
                       lambda: ms.greedy_select_next(S, inputs.pool, breached, x["greedy_cfg"]),
                       candidates=n, samples=n * self.greedy_samples)
            ops.append(op)
            if op.failed:
                return ops
            idx, score = op.output
            op.output = (idx, score.value, score.defined)
            breached.append(inputs.pool.boundaries[idx])
        return ops

    def figures(self, rounds) -> dict:
        ops = [op for r in rounds for op in r]
        return {
            "audit_exact_s": (median_round_sum(rounds, "verify"), "s"),
            "mc_accepted_per_s": (total_rate(ops, "mc", "accepted"), "1/s"),
            "mc_candidates_per_s": (total_rate(ops, "sampled_greedy", "candidates"), "1/s"),
        }


class Cli:
    """The commands a model owner runs, each in a fresh interpreter.

    Interpreter start and ``import marginseq`` cost about as much as the
    maths here; ``verify`` is the only path that reaches the numeric oracle.
    """

    name = "cli"
    n_points = 64
    commands = ("table", "plan", "pool", "verify", "boundary")

    def setup(self, seed: int) -> Inputs:
        (s_points,) = sub_seeds(seed, 1)
        # The pool the stock `pool` command draws (size 50, seed 42).
        pool = ms.generate_candidate_pool(STOCK, 50, seed=42)
        return Inputs(STOCK, seed, pool, stock_seed_pair(),
                      {"points": band_points(STOCK, self.n_points, s_points)})

    def argv(self, inputs: Inputs, command: str, index: int) -> list[str]:
        if command == "plan":
            return ["plan", "--n", "10"]
        if command == "boundary":
            h = inputs.extra["points"][index % self.n_points]
            # "=" keeps argparse from reading a negative V as an option
            return ["boundary", f"--h={h.v!r},{h.w!r}"]
        return [command]

    def round(self, inputs: Inputs, meter, index: int) -> list[Op]:
        ops = []
        for command in self.commands:
            argv = self.argv(inputs, command, index)
            op = timed(meter, command, f"cli.process.{command}", lambda: run_cli(argv),
                       rescale=child_rescale)
            if not op.failed:
                code, stdout, stderr = op.output
                op.output = (code, stdout)
                if code != 0:
                    print(f"perfbench: marginseq {' '.join(argv)} exited {code}:\n{stderr}",
                          file=sys.stderr)
                    op.failed = True
            op.work["argv"] = argv
            ops.append(op)
        return ops

    def figures(self, rounds) -> dict:
        return {f"cli_{c}_s": (statistics.median(op.norm_seconds for r in rounds for op in r
                                                 if op.kind == c), "s")
                for c in self.commands}


def band_points(scenario, n: int, seed: int) -> list:
    """n hidden points uniform over the determining band, outside both disks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    c, y = scenario.c, scenario.y_lim
    out = []
    while len(out) < n:
        v = float(rng.uniform(-(c - 1.0), c - 1.0))
        w = float(rng.uniform(-y, y))
        if (v - c) ** 2 + w**2 > 1.0 and (v + c) ** 2 + w**2 > 1.0:
            out.append(ms.HiddenPoint(v, w))
    return out


def child_env() -> dict:
    """Environment for a child interpreter that imports marginseq from src/."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv: list[str], timeout: float = 120.0) -> tuple[int, str, str]:
    """Run ``marginseq ARGV`` in a fresh interpreter and wait for it to exit."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_child.py"), *argv],
                          env=child_env(), capture_output=True, text=True, timeout=timeout,
                          check=False)
    return proc.returncode, proc.stdout, proc.stderr


def child_rescale(seconds: float, out) -> tuple[float, float] | None:
    """A command's time without its speed report, and at nominal kernel speed."""
    report = reference.parse_report(out[2])
    if report is None:
        return None
    kernel, cost = report
    seconds -= cost
    return seconds, seconds * reference.NOMINAL_S / kernel


WORKLOADS = {w.name: w for w in (GreedyExact(), SampledAudit(), Cli())}
