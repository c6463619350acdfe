"""Command-line front end: scenario files, CSV reports, SVG figures.

Commands
--------
boundary   separator induced by one hidden point, or feasibility of (k, b)
plan       alternating version sequence with per-version regions and alpha
table      alpha bound as a function of sequence length, stock reproduction
pool       greedy pool selection vs the random baseline, seed-reproducible
verify     deterministic cross-check suite (exit 4 on any failure)

All numeric output is printed with 9 significant digits so runs can be
diffed textually.  Exit codes: 0 success, 1 standard output closed before
the report was written (as by `| head -1`; nothing is printed on stderr), 2
domain/feasibility error or a pool step with no defined score, 3
scenario-file parse error, 4 verification failure.
"""

import argparse
import configparser
import csv
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

from .errors import DomainError, MarginSeqError, ScenarioFileError
from .regions import MODE_ENSEMBLE, AttackSampleConfig, Breach, planes_of
from .selfcheck import REFERENCE_ALPHAS, REFERENCE_PLAN, REFERENCE_SCENARIO, run_all
from .separators import HiddenPoint, ScenarioConfig, boundary_from_hidden
from .versioning import (
    DEFAULT_EPS_D,
    check_boundary_feasibility,
    generate_candidate_pool,
    plan_sequence,
    random_baseline_sequence,
    reconstruct_anchor,
    score_candidates,
    select_next,
    verify_plan,
)

SCHEMA_VERSION = "1"

# cmd_plan reads every prefix score from verify_plan, which grows its prefix breaches
# in one chain and scores them in one clipped_areas call per 4096 prefixes.  On a 2-core
# host running about 1.9 times slower than when quiet, `plan --n 1000 --svg` takes about
# 0.65 s end to end and `--n 200` about 0.38 s.  This is the only bound on --n.
MAX_PLAN_VERSIONS = 1000

# generate_candidate_pool draws its first batch at full size.  On a 2-core host 100,000
# candidates build in about 1.4 s.  The first exact greedy step over them scores every
# candidate: 0.1-0.2 s when it clips their band areas under a new guard, 0.05-0.1 s when
# the pool's selection state holds them, as after a restart under the same guard.  A
# later step of the same sequence scores only the candidates whose bounds let them still
# win, about 1 ms at the stock eps_d.
MAX_POOL_SIZE = 100_000

# cmd_pool holds one breach per sequence and extends it by one version a row, and the
# pool's selection state drops each pick and bounds every later score, so most of a
# greedy step's time goes to growing the breach, not to scoring the pool.  One cost
# grows with the versions breached: Breach.extend, which rebuilds its dominance record
# from them; MAX_SAMPLED_WORK counts a sampled step's tests against them.  On a 2-core
# host, with 3,000 candidates, 100 versions take 0.40-0.60 s end to end, of which
# drawing the pool takes about 0.13 s and starting the interpreter about 0.15 s.
MAX_SEQUENCE_LENGTH = 100

# The greedy steps of cmd_pool score at most pool size * (length - 2) candidates in all,
# which the two limits above bound only by their product.  On a 2-core host a run of
# 300,000 takes 0.40-0.60 s end to end as 3,000 candidates over 98 steps and 1.3-1.8 s
# as 100,000 over 3 steps, most of it drawing the pool; 100,000 candidates over 18
# steps, 1.8 million, take 1.5-1.9 s.
MAX_CANDIDATES_SCORED = 300_000

# A sampled step of cmd_pool tests each point it draws against every undominated
# breached version, at most length, and each it keeps against every candidate, one in a
# random step.  Over the length - 2 greedy and random steps that is at most
# samples * (length - 2) * (pool size + 2 * length) tests, which this bounds; nothing
# else bounds samples.  The stock 50 candidates over 8 versions run at up to 3,333,333.
# On a 2-core host runs at the limit take 3.2-4.3 s as 3,000 candidates over 100
# versions, 2.6-3.4 s as 12 over 12 and 2.0 s stock; no other shape of README's grid
# took longer.
MAX_SAMPLED_WORK = 1_320_000_000


@dataclass(frozen=True)
class Settings:
    """One run's configuration; each command-line flag stores under the field it overrides."""

    scenario: ScenarioConfig = REFERENCE_SCENARIO
    plan_k: float = REFERENCE_PLAN[0]
    plan_b_max: float = REFERENCE_PLAN[1]
    n_versions: int = 8
    pool_size: int = 50
    pool_eps_d: float = DEFAULT_EPS_D
    pool_seed: int = 42
    attack_samples: int = 0
    attack_seed: int = 42


DEFAULT_SETTINGS = Settings()

# Scenario-file key and type of every field but the scenario, whose [scenario]
# keys are the ScenarioConfig fields.  Values are checked in this order.
_KEYS = {
    "plan_k": ("plan", "k", float),
    "plan_b_max": ("plan", "b_max", float),
    "n_versions": ("plan", "n_versions", int),
    "pool_size": ("pool", "size", int),
    "pool_eps_d": ("pool", "eps_d", float),
    "pool_seed": ("pool", "seed", int),
    "attack_samples": ("attack", "samples", int),
    "attack_seed": ("attack", "seed", int),
}

_SECTIONS = {"scenario": {f.name for f in fields(ScenarioConfig)}}
for _section, _key, _ in _KEYS.values():
    _SECTIONS.setdefault(_section, set()).add(_key)


def _value(parser: configparser.ConfigParser, section: str, key: str, kind):
    raw = parser.get(section, key)
    try:
        value = kind(raw)
        finite = math.isfinite(value)
    except ValueError:
        raise ScenarioFileError(f"[{section}] {key}={raw!r} is not a valid number")
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ScenarioFileError(f"[{section}] {key}={raw!r} must be finite")
    return value


def load_settings(path: str | None) -> Settings:
    if path is None:
        return DEFAULT_SETTINGS
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioFileError(f"scenario file {path} is not UTF-8: {exc}")
    except configparser.MissingSectionHeaderError as exc:  # its message runs over three lines
        raise ScenarioFileError(f"{exc.line!r} comes before any section header", exc.lineno)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None and getattr(exc, "errors", None):
            line = exc.errors[0][0]
        raise ScenarioFileError(str(exc), line)  # main prefixes "parse error (line N)"

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioFileError(f"unknown section [{section}]")
        unknown = set(parser[section]) - _SECTIONS[section]
        if unknown:
            raise ScenarioFileError(f"unknown keys in [{section}]: {sorted(unknown)}")
    if not parser.has_section("scenario"):
        raise ScenarioFileError("scenario file must contain a [scenario] section")
    missing = _SECTIONS["scenario"] - set(parser["scenario"])
    if missing:
        raise ScenarioFileError(f"[scenario] missing keys: {sorted(missing)}")

    try:
        scenario = ScenarioConfig(*(_value(parser, "scenario", f.name, float)
                                    for f in fields(ScenarioConfig)))
    except DomainError as exc:
        raise ScenarioFileError(f"invalid [scenario] values: {exc}")
    given = {field: _value(parser, section, key, kind)
             for field, (section, key, kind) in _KEYS.items() if parser.has_option(section, key)}
    return Settings(scenario, **given)


def fmt(value) -> str:
    # NaN is how the scorers mark an undefined score
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


class ReportWriter:
    """CSV emitter with the scenario echo and schema version on every row."""

    def __init__(self, scenario: ScenarioConfig, columns: list[str], out):
        self._columns = ["schema", "c", "delta", "y_lim", *columns]
        self._prefix = [SCHEMA_VERSION, fmt(scenario.c), fmt(scenario.delta), fmt(scenario.y_lim)]
        self._writer = csv.writer(out, lineterminator="\n")
        self._writer.writerow(self._columns)

    def row(self, *values) -> None:
        assert len(values) == len(self._columns) - 4, "report row width mismatch"
        self._writer.writerow(self._prefix + [fmt(v) for v in values])


def _boundary_fields(boundary):
    return boundary.kind, boundary.k, boundary.b, boundary.x0


def cmd_boundary(settings: Settings, args, out) -> int:
    scenario = settings.scenario
    if args.h is not None and (args.k is not None or args.b is not None):
        raise DomainError("boundary takes either --h V,W or --k and --b, not both")
    if args.h is not None:
        v, w = args.h
        boundary, deriv = boundary_from_hidden(scenario, HiddenPoint(v, w))
        kind, k, b, x0 = _boundary_fields(boundary)
        (qx, qy), (rx, ry) = deriv.support_segment
        row = ("boundary", kind, k, b, x0, deriv.case_tag, qx, qy, rx, ry,
               None, None, None, None, None, None)
    elif args.k is None or args.b is None:
        raise DomainError("boundary needs either --h V,W or both --k and --b")
    else:
        report = check_boundary_feasibility(scenario, args.k, args.b)
        av, aw = reconstruct_anchor(scenario, args.k, args.b)
        row = ("feasibility", "sloped", args.k, args.b, None, None, None, None, None, None,
               report.feasible, report.constraint_1, report.constraint_2, report.constraint_3,
               av, aw)
    writer = ReportWriter(
        scenario,
        ["row", "kind", "k", "b", "x0", "case", "q_x", "q_y", "r_x", "r_y",
         "feasible", "constraint_1", "constraint_2", "constraint_3", "anchor_v", "anchor_w"],
        out,
    )
    writer.row(*row)
    return 0


def cmd_plan(settings: Settings, args, out) -> int:
    scenario = settings.scenario
    n = settings.n_versions
    if n > MAX_PLAN_VERSIONS:
        raise DomainError(f"plan of {n} versions exceeds the limit of {MAX_PLAN_VERSIONS}")
    plan = plan_sequence(scenario, n, settings.plan_k, settings.plan_b_max)
    within = [Breach.within(scenario, bd) for bd, _ in plan.versions]
    if args.svg:
        write_svg(args.svg, scenario, within)
    writer = ReportWriter(
        scenario,
        ["row", "index", "kind", "k", "b", "hidden_v", "hidden_w", "ar_area",
         "compound_at", "n_tiers", "step", "alpha"],
        out,
    )
    audit = verify_plan(plan)
    compound_at = {2: audit.at_first_pair, **dict(audit.compound_by_version)}
    for i, (boundary, hidden) in enumerate(plan.versions, start=1):
        kind, k, b, _ = _boundary_fields(boundary)
        writer.row("version", i, kind, k, b, hidden.v, hidden.w,
                   within[i - 1].area, compound_at.get(i), None, None, None)
    writer.row("summary", None, None, None, None, None, None, None, None,
               plan.n_tiers, plan.step if plan.n_tiers else None, plan.alpha)
    return 0


def cmd_table(settings: Settings, args, out) -> int:
    scenario = settings.scenario
    k, b_max = settings.plan_k, settings.plan_b_max
    is_reference = scenario == REFERENCE_SCENARIO and (k, b_max) == REFERENCE_PLAN
    rows = []
    for n in (2, 4, 6, 8, 10):
        plan = plan_sequence(scenario, n, k, b_max)
        versions = [bd for bd, _ in plan.versions]
        ar1 = Breach.within(scenario, versions[0]).area
        ar3 = Breach.within(scenario, versions[2]).area if n >= 3 else None
        nominal = REFERENCE_ALPHAS.get(n) if is_reference else None
        rows.append((n, plan.step if plan.n_tiers else None, ar1, ar3, plan.alpha, nominal))
    writer = ReportWriter(
        scenario,
        ["n_versions", "step", "ar1_area", "ar3_area", "alpha", "alpha_nominal"],
        out,
    )
    for row in rows:
        writer.row(*row)
    return 0


def cmd_pool(settings: Settings, args, out) -> int:
    scenario = settings.scenario
    length = settings.n_versions
    if length < 2:
        raise DomainError("pool sequences need at least the two seed versions")
    if length > MAX_SEQUENCE_LENGTH:
        raise DomainError(f"sequence of {length} versions exceeds the limit of "
                          f"{MAX_SEQUENCE_LENGTH}")
    if settings.pool_size > MAX_POOL_SIZE:
        raise DomainError(f"pool of {settings.pool_size} candidates exceeds the limit of "
                          f"{MAX_POOL_SIZE}")
    if settings.pool_size < length:
        raise DomainError("pool size must cover the requested sequence length")
    scored = settings.pool_size * (length - 2)
    if scored > MAX_CANDIDATES_SCORED:
        raise DomainError(f"{length - 2} greedy steps over {settings.pool_size} candidates would "
                          f"score {scored}, above the limit of {MAX_CANDIDATES_SCORED}")
    tested = settings.attack_samples * (length - 2) * (settings.pool_size + 2 * length)
    if tested > MAX_SAMPLED_WORK:
        raise DomainError(f"{settings.attack_samples} samples over {length} versions and "
                          f"{settings.pool_size} candidates would make {tested} point tests, "
                          f"above the limit of {MAX_SAMPLED_WORK}")
    cfg = AttackSampleConfig(MODE_ENSEMBLE, settings.attack_samples, settings.attack_seed)
    pool = generate_candidate_pool(scenario, settings.pool_size, settings.pool_eps_d,
                                   settings.pool_seed)
    seed_plan = plan_sequence(scenario, 2, settings.plan_k, settings.plan_b_max)
    seed = Breach.of(scenario, [bd for bd, _ in seed_plan.versions])

    rows = []
    breach = seed
    for step in range(3, length + 1):
        index, score = select_next(pool, breach, cfg)
        boundary = pool.boundaries[index]
        hidden = pool.hidden_points[index]
        kind, k, b, x0 = _boundary_fields(boundary)
        rows.append(("greedy", step, index, kind, k, b, x0,
                     hidden.v, hidden.w, score.value))
        breach = breach.extend(boundary)

    baseline = random_baseline_sequence(scenario, length - 2, settings.pool_seed,
                                        settings.pool_eps_d)
    breach = seed
    for step, (hidden, boundary) in enumerate(baseline, start=3):
        (value,) = score_candidates(breach, planes_of([boundary]), cfg)
        kind, k, b, x0 = _boundary_fields(boundary)
        rows.append(("random", step, None, kind, k, b, x0,
                     hidden.v, hidden.w, float(value)))
        breach = breach.extend(boundary)

    writer = ReportWriter(
        scenario,
        ["row", "step", "pool_index", "kind", "k", "b", "x0",
         "hidden_v", "hidden_w", "compound_at"],
        out,
    )
    for row in rows:
        writer.row(*row)
    return 0


def cmd_verify(settings: Settings, args, out) -> int:
    results = run_all(settings.scenario, settings.plan_k, settings.plan_b_max)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{status} {res.name} ({res.measured})", file=out)
    return 0 if failed == 0 else 4


def write_svg(path: str, scenario: ScenarioConfig, within) -> None:
    """Self-contained figure: the strip, clusters, and each within breach's region and separator."""
    c, y_lim = scenario.c, scenario.y_lim
    x_ext = c + 2.0
    y_ext = y_lim + 2.0
    width = 900.0
    height = width * y_ext / x_ext

    def sx(x):
        return (x + x_ext) / (2.0 * x_ext) * width

    def sy(y):
        return (y_ext - y) / (2.0 * y_ext) * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<rect x="{sx(-x_ext):.2f}" y="{sy(y_lim):.2f}" width="{width:.2f}" '
        f'height="{sy(-y_lim) - sy(y_lim):.2f}" fill="#f4f4f8" stroke="#888888"/>',
    ]
    r_px = sx(1.0) - sx(0.0)
    for cx in (-c, c):
        parts.append(
            f'<circle cx="{sx(cx):.2f}" cy="{sy(0):.2f}" r="{r_px:.2f}" '
            f'fill="#cfe3ff" stroke="#3366aa"/>'
        )
    for region in within:
        for piece in region.pieces:
            if piece.is_empty:
                continue
            pts = " ".join(f"{sx(p.x):.2f},{sy(p.y):.2f}" for p in piece.vertices)
            parts.append(f'<polygon points="{pts}" fill="#dd6666" fill-opacity="0.25"/>')
    for boundary in (region.priors[0] for region in within):
        # where the line a*x + b*y = c meets the strip's edges inside the
        # figure; a != 0 for every separator, b == 0 only for a vertical one
        line = boundary.plus
        xs = []
        for y in (-y_lim, y_lim):
            x = (line.c - line.b * y) / line.a
            if -x_ext <= x <= x_ext:
                xs.append((x, y))
        if line.b != 0.0:
            for x in (-x_ext, x_ext):
                y = (line.c - line.a * x) / line.b
                if -y_lim <= y <= y_lim:
                    xs.append((x, y))
        if len(xs) >= 2:
            (x1, y1), (x2, y2) = xs[0], xs[-1]
            parts.append(
                f'<line x1="{sx(x1):.2f}" y1="{sy(y1):.2f}" x2="{sx(x2):.2f}" '
                f'y2="{sy(y2):.2f}" stroke="#222222" stroke-width="1"/>'
            )
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise MarginSeqError(f"cannot write SVG {path}: {exc.strerror or exc}")


def _parse_point(text: str) -> tuple[float, float]:
    try:
        sv, sw = text.split(",")
        return float(sv), float(sw)
    except ValueError:
        # argparse shows an ArgumentTypeError's message; it hides a ValueError's
        raise argparse.ArgumentTypeError(f"--h expects 'V,W', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marginseq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", dest="scenario_path", metavar="PATH",
                        help="INI scenario file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", help="separator for one hidden point, or (k, b) feasibility")
    p.add_argument("--h", type=_parse_point, metavar="V,W", help="hidden point coordinates")
    p.add_argument("--k", type=float, help="slope to check for feasibility")
    p.add_argument("--b", type=float, help="intercept to check for feasibility")

    p = sub.add_parser("plan", help="alternating version sequence and its alpha bound")
    p.add_argument("--n", type=int, dest="n_versions", metavar="N",
                   help="number of versions (default from scenario file)")
    p.add_argument("--svg", metavar="PATH", help="write an SVG figure of the plan")

    sub.add_parser("table", help="alpha bound by sequence length N in {2,4,6,8,10}")

    p = sub.add_parser("pool", help="greedy pool selection vs the random baseline")
    p.add_argument("--sequence-length", type=int, dest="n_versions", metavar="SEQUENCE_LENGTH",
                   help="versions to deploy (default plan length)")
    p.add_argument("--seed", type=int, dest="pool_seed", metavar="SEED",
                   help="override pool and attack seeds")
    p.add_argument("--samples", type=int, dest="attack_samples", metavar="SAMPLES",
                   help="override attack sample count (0 = exact)")

    sub.add_parser("verify", help="run the deterministic cross-check suite")
    return parser


def main(argv=None) -> int:
    # argparse reads a value such as -50,3 or -2e1 as a flag unless "=" joins it to the flag
    # before it, so join it; every long flag but --help (--he, --hel) takes a value
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--(?!he)[a-z-]+", argv[i - 1]) and re.match(r"-(?!-)", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    given = vars(args)
    given["attack_seed"] = given.get("pool_seed")  # --seed sets both seeds
    flags = {f.name: given[f.name] for f in fields(Settings) if given.get(f.name) is not None}
    try:
        settings = replace(load_settings(args.scenario_path), **flags)
        handler = {"boundary": cmd_boundary, "plan": cmd_plan, "table": cmd_table,
                   "pool": cmd_pool, "verify": cmd_verify}[args.command]
        code = handler(settings, args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ScenarioFileError as exc:
        where = f" (line {exc.line})" if exc.line is not None else ""
        print(f"marginseq: parse error{where}: {exc}", file=sys.stderr)
        return 3
    except MarginSeqError as exc:
        print(f"marginseq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
