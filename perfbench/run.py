"""Benchmark for marginseq: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload greedy-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the same loop with spans around every call into marginseq, then times
each layer on the workload's inputs, and reports the per-layer metrics.  The
result and the spans are also written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["greedy-exact", "sampled-audit", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup_seconds(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Median of fresh-interpreter set-ups, at nominal kernel speed and raw.

    Each child imports marginseq, builds the inputs and prints the time.  The
    kernel runs here between the children; their median speed rescales the
    median set-up, since one kernel timing beside a 0.2 s child is too noisy.
    """
    from reference import NOMINAL_S, kernel_seconds

    raw, kernel = [], [kernel_seconds()]
    for _ in range(SETUPS):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), workload,
                              str(seed)], env=env, capture_output=True, text=True, timeout=120,
                             check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        kernel.append(kernel_seconds())
    wall = statistics.median(raw)
    return wall * NOMINAL_S / statistics.median(kernel), wall


def environment() -> dict:
    import numpy

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"numpy": numpy.__version__, "nproc": os.cpu_count(), "git_sha": sha,
            "python": platform.python_version()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marginseq", "__init__.py")):
        print(f"perfbench: no marginseq sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every child it starts: the reference kernel
    # then times the same virtual CPU as the work it rescales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    from reference import Speed
    from spans import Tracer
    from workloads import WORKLOADS, child_env

    workload = WORKLOADS[args.workload]
    setup_s, setup_wall_s = setup_seconds(args.workload, args.seed, child_env())
    speed = Speed()
    inputs = workload.setup(args.seed)

    tracer = Tracer(bool(args.trace))
    rounds, round_wall_s = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        tracer.request = f"round-{len(rounds)}"
        t0 = time.perf_counter()
        rounds.append(workload.round(inputs, (tracer, speed), len(rounds)))
        round_wall_s.append(time.perf_counter() - t0)
    loop_s = time.perf_counter() - start
    round_s = [sum(op.norm_seconds for op in r) for r in rounds]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    attempted = sum(len(r) for r in rounds)
    failed = sum(op.failed for r in rounds for op in r)
    figures = workload.figures(rounds) if not failed else {}
    if args.trace:
        from layers import per_layer_metrics, probe

        probe(inputs, tracer, speed)
        metrics = per_layer_metrics(tracer, len(rounds), loop_s, speed.factor())
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
                   "round_s": (statistics.median(round_s), "s")}

    from checks import CHECKS

    problems = CHECKS[args.workload](inputs, rounds)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "setup_wall_s": setup_wall_s,
                   "round_s": round_s, "round_wall_s": round_wall_s,
                   "op_wall_s": [[op.seconds for op in r] for r in rounds],
                   "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
                   "environment": environment()}, fh, indent=1)
    if args.trace:
        tracer.write(stem + "-spans.json")

    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} correct={not problems}")
    for name, (value, unit) in {**figures, **metrics}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
