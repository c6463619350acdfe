"""Command-line front end: scenario files, CSV reports, SVG figures.

Commands
--------
boundary   separator induced by one hidden point, or feasibility of (k, b)
plan       alternating version sequence with per-version regions and alpha
table      alpha bound as a function of sequence length, stock reproduction
pool       greedy pool selection vs the random baseline, seed-reproducible
verify     deterministic cross-check suite (exit 4 on any failure)

All numeric output is printed with 9 significant digits so runs can be
diffed textually.  Exit codes: 0 success, 2 domain/feasibility error,
3 scenario-file parse error, 4 verification failure.
"""

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, replace

from .errors import DomainError, MarginSeqError, ScenarioFileError
from .regions import (
    AttackSampleConfig,
    MODE_CAUTIOUS,
    MODE_ENSEMBLE,
    build_attackable_region,
    region_area,
)
from .selfcheck import REFERENCE_ALPHAS, REFERENCE_PLAN, REFERENCE_SCENARIO, run_all
from .separators import HiddenPoint, ScenarioConfig, boundary_from_hidden
from .versioning import (
    _score_candidates,
    check_boundary_feasibility,
    generate_candidate_pool,
    greedy_select_next,
    plan_sequence,
    random_baseline_sequence,
    reconstruct_anchor,
    verify_plan,
)

SCHEMA_VERSION = "1"

# cmd_plan reads every prefix score from verify_plan, whose audit costs O(N^2)
# clips: N = 200 takes about 1.2 s and N = 400 about 4.3 s on a 2-core host.
MAX_PLAN_VERSIONS = 200

_SECTIONS = {
    "scenario": {"c", "delta", "y_lim"},
    "plan": {"k", "b_max", "n_versions"},
    "pool": {"size", "eps_d", "seed"},
    "attack": {"mode", "samples", "seed"},
}


@dataclass(frozen=True)
class Settings:
    scenario: ScenarioConfig
    plan_k: float
    plan_b_max: float
    n_versions: int
    pool_size: int
    pool_eps_d: float
    pool_seed: int
    attack_mode: str
    attack_samples: int
    attack_seed: int


DEFAULT_SETTINGS = Settings(
    scenario=ScenarioConfig(100.0, 0.1, 30.0),
    plan_k=7.0,
    plan_b_max=12.0,
    n_versions=8,
    pool_size=50,
    pool_eps_d=2.0,
    pool_seed=42,
    attack_mode=MODE_ENSEMBLE,
    attack_samples=0,
    attack_seed=42,
)


def load_settings(path: str | None) -> Settings:
    if path is None:
        return DEFAULT_SETTINGS
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file {path}: {exc}")
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None and getattr(exc, "errors", None):
            line = exc.errors[0][0]
        raise ScenarioFileError(f"scenario file parse error: {exc}", line)

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

    def number(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            value = cast(raw)
        except ValueError:
            raise ScenarioFileError(f"[{section}] {key}={raw!r} is not a valid number")
        if not math.isfinite(value):
            raise ScenarioFileError(f"[{section}] {key}={raw!r} must be finite")
        return value

    try:
        scenario = ScenarioConfig(
            number("scenario", "c", float, None),
            number("scenario", "delta", float, None),
            number("scenario", "y_lim", float, None),
        )
    except DomainError as exc:
        raise ScenarioFileError(f"invalid [scenario] values: {exc}")

    d = DEFAULT_SETTINGS
    mode = parser.get("attack", "mode", fallback=d.attack_mode)
    if mode not in (MODE_ENSEMBLE, MODE_CAUTIOUS):
        raise ScenarioFileError(f"[attack] mode={mode!r} must be ensemble or cautious")
    return Settings(
        scenario=scenario,
        plan_k=number("plan", "k", float, d.plan_k),
        plan_b_max=number("plan", "b_max", float, d.plan_b_max),
        n_versions=number("plan", "n_versions", int, d.n_versions),
        pool_size=number("pool", "size", int, d.pool_size),
        pool_eps_d=number("pool", "eps_d", float, d.pool_eps_d),
        pool_seed=number("pool", "seed", int, d.pool_seed),
        attack_mode=mode,
        attack_samples=number("attack", "samples", int, d.attack_samples),
        attack_seed=number("attack", "seed", int, d.attack_seed),
    )


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
    n = args.n if args.n is not None else settings.n_versions
    if n > MAX_PLAN_VERSIONS:
        raise DomainError(f"plan of {n} versions exceeds the limit of {MAX_PLAN_VERSIONS}")
    plan = plan_sequence(scenario, n, settings.plan_k, settings.plan_b_max)
    regions = [build_attackable_region(scenario, bd) for bd, _ in plan.versions]
    if args.svg:
        write_svg(args.svg, scenario, [bd for bd, _ in plan.versions], regions)
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
                   region_area(regions[i - 1]), compound_at.get(i), None, None, None)
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
        regions = [build_attackable_region(scenario, bd) for bd, _ in plan.versions]
        ar1 = region_area(regions[0])
        ar3 = region_area(regions[2]) if n >= 3 else None
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
    length = args.sequence_length if args.sequence_length is not None else settings.n_versions
    if length < 2:
        raise DomainError("pool sequences need at least the two seed versions")
    if settings.pool_size < length:
        raise DomainError("pool size must cover the requested sequence length")
    pool = generate_candidate_pool(scenario, settings.pool_size, settings.pool_eps_d,
                                   settings.pool_seed)
    seed_plan = plan_sequence(scenario, 2, settings.plan_k, settings.plan_b_max)
    cfg = AttackSampleConfig(settings.attack_mode, settings.attack_samples, settings.attack_seed)

    rows = []
    breached = [bd for bd, _ in seed_plan.versions]
    for step in range(3, length + 1):
        index, score = greedy_select_next(scenario, pool, breached, cfg)
        boundary = pool.boundaries[index]
        hidden = pool.hidden_points[index]
        kind, k, b, x0 = _boundary_fields(boundary)
        rows.append(("greedy", step, index, kind, k, b, x0,
                     hidden.v, hidden.w, score.value))
        breached.append(boundary)

    baseline = random_baseline_sequence(scenario, length - 2, settings.pool_seed)
    versions = [bd for bd, _ in seed_plan.versions]
    for step, (hidden, boundary) in enumerate(baseline, start=3):
        line = boundary.plus
        (value,) = _score_candidates(scenario, versions, [(line.a, line.b, line.c)], cfg)
        kind, k, b, x0 = _boundary_fields(boundary)
        rows.append(("random", step, None, kind, k, b, x0,
                     hidden.v, hidden.w, float(value)))
        versions.append(boundary)

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


def write_svg(path: str, scenario: ScenarioConfig, boundaries, regions) -> None:
    """Self-contained figure of the strip, clusters, boundaries, and regions."""
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
    for region in regions:
        for piece in region.pieces:
            if piece.is_empty:
                continue
            pts = " ".join(f"{sx(p.x):.2f},{sy(p.y):.2f}" for p in piece.vertices)
            parts.append(f'<polygon points="{pts}" fill="#dd6666" fill-opacity="0.25"/>')
    for boundary in boundaries:
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
        raise DomainError(f"--h expects 'V,W', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marginseq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", metavar="PATH", help="INI scenario file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", help="separator for one hidden point, or (k, b) feasibility")
    p.add_argument("--h", type=_parse_point, metavar="V,W", help="hidden point coordinates")
    p.add_argument("--k", type=float, help="slope to check for feasibility")
    p.add_argument("--b", type=float, help="intercept to check for feasibility")

    p = sub.add_parser("plan", help="alternating version sequence and its alpha bound")
    p.add_argument("--n", type=int, help="number of versions (default from scenario file)")
    p.add_argument("--svg", metavar="PATH", help="write an SVG figure of the plan")

    sub.add_parser("table", help="alpha bound by sequence length N in {2,4,6,8,10}")

    p = sub.add_parser("pool", help="greedy pool selection vs the random baseline")
    p.add_argument("--sequence-length", type=int, help="versions to deploy (default plan length)")
    p.add_argument("--seed", type=int, help="override pool and attack seeds")
    p.add_argument("--samples", type=int, help="override attack sample count (0 = exact)")
    p.add_argument("--attack-mode", choices=[MODE_ENSEMBLE, MODE_CAUTIOUS],
                   help="override attacker mode")

    sub.add_parser("verify", help="run the deterministic cross-check suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = load_settings(args.scenario)
        if args.command == "pool":
            if args.seed is not None:
                settings = replace(settings, pool_seed=args.seed, attack_seed=args.seed)
            if args.samples is not None:
                settings = replace(settings, attack_samples=args.samples)
            if args.attack_mode is not None:
                settings = replace(settings, attack_mode=args.attack_mode)
        handler = {
            "boundary": cmd_boundary,
            "plan": cmd_plan,
            "table": cmd_table,
            "pool": cmd_pool,
            "verify": cmd_verify,
        }[args.command]
        return handler(settings, args, sys.stdout)
    except ScenarioFileError as exc:
        where = f" (line {exc.line})" if exc.line is not None else ""
        print(f"marginseq: parse error{where}: {exc}", file=sys.stderr)
        return 3
    except MarginSeqError as exc:
        print(f"marginseq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
