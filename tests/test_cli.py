import configparser
import csv
import dataclasses
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from marginseq import cli
from marginseq.cli import (
    DEFAULT_SETTINGS,
    MAX_CANDIDATES_SCORED,
    MAX_PLAN_VERSIONS,
    MAX_POOL_SIZE,
    MAX_SAMPLED_WORK,
    MAX_SEQUENCE_LENGTH,
    load_settings,
    main,
)
from marginseq.errors import DomainError, ScenarioFileError
from marginseq.regions import (
    AttackSampleConfig,
    build_attackable_region,
    compound_transferability,
    mc_transferability,
)
from marginseq.separators import ScenarioConfig
from marginseq.versioning import generate_candidate_pool, plan_sequence, random_baseline_sequence


DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def test_table_reproduces_reference_values(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    rows = parse_csv(out)
    assert [r["n_versions"] for r in rows] == ["2", "4", "6", "8", "10"]
    by_n = {r["n_versions"]: r for r in rows}
    assert by_n["2"]["alpha"] == "0"
    assert by_n["2"]["step"] == "NA"
    assert by_n["4"]["ar1_area"] == "61.3907143"
    assert float(by_n["4"]["alpha"]) == pytest.approx(0.17, abs=0.005)
    assert float(by_n["6"]["alpha"]) == pytest.approx(0.32, abs=0.005)
    assert float(by_n["8"]["alpha"]) == pytest.approx(0.37, abs=0.005)
    assert float(by_n["10"]["alpha"]) == pytest.approx(0.40, abs=0.005)
    assert float(by_n["8"]["ar3_area"]) == pytest.approx(45.790714, abs=1e-5)
    assert by_n["10"]["alpha_nominal"] == "0.4"
    # scenario echo and schema on every row
    for r in rows:
        assert r["schema"] == "1"
        assert r["c"] == "100"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["table"], "table.csv"),
        (["plan", "--n", "10"], "plan_n10.csv"),
        (["pool"], "pool.csv"),
        (["pool", "--sequence-length", "20"], "pool_len20.csv"),
        (["boundary", "--k", "7", "--b", "-0.7"], "boundary_feasibility.csv"),
        (["pool", "--samples", "20000", "--sequence-length", "5"], "pool_samples20000_len5.csv"),
        (["pool", "--samples", "200000"], "pool_samples200000.csv"),
        (["verify"], "verify.txt"),
    ],
)
def test_stock_csv_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_long_pool_run_matches_golden_bytes(tmp_path, capsys):
    # 58 greedy and 58 random steps, each grown from the breach before it
    cfg = tmp_path / "pool1000.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nsize = 1000\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool", "--sequence-length", "60")
    assert (code, err) == (0, "")
    assert out == (DATA / "pool_size1000_len60.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, n_samples", [("pool_samples20000_len5.csv", 20_000),
                                                ("pool_samples200000.csv", 200_000)])
def test_sampled_golden_scores_within_3_sigma_of_exact(golden, n_samples):
    # each printed score is one Monte Carlo estimate of the exact compound of
    # its row given the rows printed before it
    s = DEFAULT_SETTINGS
    scenario = s.scenario
    rows = parse_csv((DATA / golden).read_text(encoding="utf-8"))
    pool = generate_candidate_pool(scenario, s.pool_size, s.pool_eps_d, s.pool_seed)
    seed_pair = [bd for bd, _ in plan_sequence(scenario, 2, s.plan_k, s.plan_b_max).versions]
    baseline = random_baseline_sequence(scenario, len(rows) // 2, s.pool_seed, s.pool_eps_d)
    cfg = AttackSampleConfig("ensemble", n_samples, s.attack_seed)
    for kind in ("greedy", "random"):
        breached = list(seed_pair)
        for i, row in enumerate(r for r in rows if r["row"] == kind):
            target = (pool.boundaries[int(row["pool_index"])] if kind == "greedy"
                      else baseline[i][1])
            assert float(row["k"]) == pytest.approx(target.k, rel=1e-8)
            exact = compound_transferability(
                [build_attackable_region(scenario, bd) for bd in breached],
                build_attackable_region(scenario, target)).value
            est = mc_transferability(scenario, breached, target, cfg)
            assert float(row["compound_at"]) == pytest.approx(est.value, rel=1e-8)
            sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / est.accepted)
            assert abs(est.value - exact) <= 3.0 * sigma
            breached.append(target)


def test_table_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "table")
    _, second, _ = run_cli(capsys, "table")
    assert first == second


def test_table_numbers_round_trip_at_9_digits(capsys):
    _, out, _ = run_cli(capsys, "table")
    for row in parse_csv(out):
        area = row["ar1_area"]
        assert float(area) == pytest.approx(61.39071428571428, rel=1e-8)


def test_boundary_from_hidden_point(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--h", "0,0")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["kind"] == "vertical"
    assert row["x0"] == "-49.5"
    assert row["case"] == "w_zero"


@pytest.mark.parametrize("spaced, joined", [
    (["--h", "-50,3"], ["--h=-50,3"]),
    (["--k", "-3", "--b", "-2e1"], ["--k=-3", "--b=-2e1"]),
    (["--k", "-.5", "--b", "-1e-09"], ["--k=-.5", "--b=-1e-09"]),
])
def test_boundary_reads_negative_values_after_a_space(capsys, spaced, joined):
    # argparse alone reads a value that is not a plain decimal, as -50,3, as a flag
    code, out, err = run_cli(capsys, "boundary", *spaced)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "boundary", *joined)
    assert len(parse_csv(out)) == 1


def test_boundary_tangent_snap_regression(capsys):
    # anchor of y = 7x - 0.7: the trained separator is the tangent midline
    code, out, _ = run_cli(capsys, "boundary", "--h", "95.2061,-27.8866")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["kind"] == "sloped"
    assert float(row["k"]) == pytest.approx(7.368085, abs=1e-3)
    assert abs(float(row["b"])) < 1e-9
    assert row["case"] == "w_neg_tangent"


def test_boundary_infeasible_hidden_point(capsys):
    code, out, err = run_cli(capsys, "boundary", "--h", "120,0")
    assert code == 2
    assert out == ""
    assert "v=120" in err and "c-1" in err


def test_boundary_feasibility_mode(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--k", "7", "--b", "-0.7")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["row"] == "feasibility"
    assert row["feasible"] == "false"
    assert (row["constraint_1"], row["constraint_2"], row["constraint_3"]) == (
        "true", "true", "false",
    )
    assert float(row["anchor_v"]) == pytest.approx(95.2060505, abs=1e-6)
    assert float(row["anchor_w"]) == pytest.approx(-27.8865786, abs=1e-6)


def test_boundary_feasibility_rejects_non_finite(capsys):
    code, out, err = run_cli(capsys, "boundary", "--k", "nan", "--b", "1")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_boundary_feasibility_overflow(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--k", "7", "--b", "1e300")
    assert code == 0
    (row,) = parse_csv(out)
    assert (row["feasible"], row["constraint_3"]) == ("false", "false")
    assert all(math.isfinite(float(row[key])) for key in ("anchor_v", "anchor_w"))

    code, out, err = run_cli(capsys, "boundary", "--k", "1e200", "--b", "1e200")
    assert code == 2
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("scenario_line", ["c = 1e200\ndelta = 0.1\ny_lim = 30",
                                           "c = 100\ndelta = 0.1\ny_lim = 1e300"],
                         ids=["huge-c", "huge-y_lim"])
@pytest.mark.parametrize("argv, expected", [(["boundary", "--h", "0,0"], 0),
                                            (["pool"], 2), (["verify"], 2)],
                         ids=["boundary", "pool", "verify"])
def test_huge_scenario_exits_cleanly(tmp_path, capsys, scenario_line, argv, expected):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[scenario]\n{scenario_line}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "--scenario", str(cfg), *argv)
    assert code == expected, err
    assert [str(w.message) for w in caught] == []
    if expected == 2:
        assert out == "" and err.startswith("marginseq: ")
        assert "overflows under scenario c=" in err


def test_boundary_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "boundary")
    assert code == 2
    assert "--h" in err


@pytest.mark.parametrize("extra", [["--k", "7", "--b", "-0.7"], ["--k", "7"], ["--b", "-0.7"]])
def test_boundary_rejects_both_forms(capsys, extra):
    code, out, err = run_cli(capsys, "boundary", "--h", "0,0", *extra)
    assert (code, out) == (2, "")
    assert err == "marginseq: boundary takes either --h V,W or --k and --b, not both\n"


def test_plan_rows_and_summary(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "8")
    assert code == 0
    rows = parse_csv(out)
    versions = [r for r in rows if r["row"] == "version"]
    summary = [r for r in rows if r["row"] == "summary"]
    assert len(versions) == 8 and len(summary) == 1
    assert versions[0]["compound_at"] == "NA"
    assert float(versions[1]["compound_at"]) == 0.0
    assert float(summary[0]["alpha"]) == pytest.approx(0.37294, abs=5e-5)
    assert summary[0]["step"] == "4"
    assert float(versions[0]["ar_area"]) == pytest.approx(61.390714, abs=1e-5)


def test_plan_length_limit(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", str(MAX_PLAN_VERSIONS))
    assert code == 0
    assert len(parse_csv(out)) == MAX_PLAN_VERSIONS + 1
    code, out, err = run_cli(capsys, "plan", "--n", str(MAX_PLAN_VERSIONS + 1))
    assert code == 2 and out == ""
    assert f"limit of {MAX_PLAN_VERSIONS}" in err
    cfg = tmp_path / "long.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n"
                   f"[plan]\nn_versions = {MAX_PLAN_VERSIONS + 1}\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "plan")
    assert code == 2 and out == ""
    assert f"limit of {MAX_PLAN_VERSIONS}" in err


def test_plan_two_versions(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "2")
    assert code == 0
    rows = parse_csv(out)
    summary = [r for r in rows if r["row"] == "summary"][0]
    assert summary["alpha"] == "0"
    versions = [r for r in rows if r["row"] == "version"]
    assert float(versions[1]["compound_at"]) == 0.0


def test_plan_svg_unwritable_path(tmp_path, capsys):
    path = tmp_path / "missing" / "plan.svg"
    code, _, err = run_cli(capsys, "plan", "--n", "3", "--svg", str(path))
    assert code == 2
    assert err.startswith(f"marginseq: cannot write SVG {path}")
    assert "Traceback" not in err


def test_cli_import_leaves_numpy_random_unloaded():
    # commands that draw no random numbers should not pay for numpy.random
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
    code = "import sys, marginseq.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _cli_child(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
    return subprocess.Popen([sys.executable, "-m", "marginseq.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def test_a_reader_that_stops_after_one_line_gets_exit_1_and_no_traceback():
    # as `marginseq plan --n 1000 | head -1`: the report far outgrows the pipe's buffer
    child = _cli_child(["plan", "--n", "1000"], subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (1, b"")
    assert first.startswith(b"schema,c,delta,y_lim,row,")


def test_a_reader_gone_before_the_report_gets_exit_1_and_no_traceback():
    # verify's report fits stdout's buffer, so it is written by the flush before main returns
    read, write = os.pipe()
    os.close(read)
    child = _cli_child(["verify"], write)
    os.close(write)
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (1, b"")


def test_plan_svg(tmp_path, capsys):
    path = tmp_path / "plan.svg"
    code, _, _ = run_cli(capsys, "plan", "--n", "8", "--svg", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") == 8
    assert text.count("<circle") == 2
    assert "href" not in text and "url(" not in text
    # aspect ratio follows the scenario strip (plus a 2-unit margin each way)
    width = float(re.search(r'width="([\d.]+)"', text).group(1))
    height = float(re.search(r'height="([\d.]+)"', text).group(1))
    assert height / width == pytest.approx(32.0 / 102.0, abs=0.01)


def test_plan_infeasible_parameters(tmp_path, capsys):
    cfg = tmp_path / "bad_plan.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[plan]\nk = 7\nb_max = 50\n")
    code, _, err = run_cli(capsys, "--scenario", str(cfg), "plan", "--n", "8")
    assert code == 2
    assert "anchor" in err


def test_pool_deterministic_and_modes(capsys):
    code, first, _ = run_cli(capsys, "pool", "--sequence-length", "5")
    assert code == 0
    code, second, _ = run_cli(capsys, "pool", "--sequence-length", "5")
    assert code == 0
    assert first == second
    rows = parse_csv(first)
    greedy = [r for r in rows if r["row"] == "greedy"]
    random_rows = [r for r in rows if r["row"] == "random"]
    assert len(greedy) == 3 and len(random_rows) == 3
    assert [r["step"] for r in greedy] == ["3", "4", "5"]
    for r in greedy:
        assert float(r["compound_at"]) <= 1.0

    code, other_seed, _ = run_cli(capsys, "pool", "--sequence-length", "5", "--seed", "11")
    assert code == 0
    assert other_seed != first


def test_pool_sampled_step_without_estimate_exits(capsys):
    # one sample per candidate accepts nothing: the step has no score to pick by
    code, out, err = run_cli(capsys, "pool", "--samples", "1", "--sequence-length", "5")
    assert (code, out) == (2, "")
    assert err == ("marginseq: step 3: no candidate reached the Monte Carlo acceptance floor"
                   " with n_samples = 1\n")


def test_attack_mode_is_not_configurable(tmp_path, capsys):
    # ensemble is the only attacker: no flag, no scenario key, no other mode
    with pytest.raises(SystemExit) as exc:
        main(["pool", "--attack-mode", "ensemble"])
    assert exc.value.code == 2
    assert "--attack-mode" in capsys.readouterr().err
    cfg = tmp_path / "mode.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[attack]\nmode = ensemble\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool")
    assert (code, out) == (3, "")
    assert "mode" in err
    with pytest.raises(DomainError, match="attacker mode"):
        AttackSampleConfig("cautious", 0, 0)


def test_pool_two_versions_prints_header_only(tmp_path, capsys):
    # the seed pair is the whole sequence: no greedy and no random rows
    header = "schema,c,delta,y_lim,row,step,pool_index,kind,k,b,x0,hidden_v,hidden_w,compound_at\n"
    code, out, err = run_cli(capsys, "pool", "--sequence-length", "2")
    assert (code, out, err) == (0, header, "")
    cfg = tmp_path / "two.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[plan]\nn_versions = 2\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool")
    assert (code, out, err) == (0, header, "")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_pool_seed_out_of_range(capsys, seed):
    code, out, err = run_cli(capsys, "pool", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "64 bits" in err


def test_pool_seed_out_of_range_in_scenario_file(tmp_path, capsys):
    cfg = tmp_path / "neg_seed.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nseed = -3\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool")
    assert code == 2
    assert out == ""
    assert "64 bits" in err


def test_pool_size_must_cover_sequence(tmp_path, capsys):
    cfg = tmp_path / "small_pool.ini"
    cfg.write_text(
        "[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nsize = 3\nseed = 5\neps_d = 2\n"
    )
    code, _, err = run_cli(capsys, "--scenario", str(cfg), "pool", "--sequence-length", "6")
    assert code == 2
    assert "pool size" in err


@pytest.mark.parametrize("size", [MAX_POOL_SIZE + 1, 100_000_000_000])
def test_pool_size_limit(tmp_path, capsys, size):
    # refused before any candidate is drawn, so no allocation is attempted
    cfg = tmp_path / "huge_pool.ini"
    cfg.write_text(f"[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nsize = {size}\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool")
    assert (code, out) == (2, "")
    assert f"limit of {MAX_POOL_SIZE}" in err


@pytest.mark.parametrize("length", [MAX_SEQUENCE_LENGTH + 1, 3000])
def test_pool_sequence_length_limit(tmp_path, capsys, length):
    # refused before any candidate is drawn, even when the pool could cover it
    cfg = tmp_path / "big_pool.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nsize = 3000\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool",
                             "--sequence-length", str(length))
    assert (code, out) == (2, "")
    assert f"limit of {MAX_SEQUENCE_LENGTH}" in err


def test_pool_sequence_length_below_the_seed_pair(capsys):
    code, out, err = run_cli(capsys, "pool", "--sequence-length", "1")
    assert (code, out) == (2, "")
    assert "at least the two seed versions" in err


@pytest.mark.parametrize("text", ["1", "1,2,3", "a,b"])
def test_boundary_malformed_point_names_the_form(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "--h", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--h expects 'V,W', got {text!r}" in err


def _undrawn(*args):
    raise AssertionError("the pool was drawn")


def test_pool_candidates_scored_limit(tmp_path, capsys, monkeypatch):
    # 18 greedy steps over 100,000 candidates: each limit alone admits the run
    monkeypatch.setattr(cli, "generate_candidate_pool", _undrawn)
    cfg = tmp_path / "big_pool.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[pool]\nsize = 100000\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool", "--sequence-length", "20")
    assert (code, out) == (2, "")
    assert f"limit of {MAX_CANDIDATES_SCORED}" in err


def _sampled_run(tmp_path, given, samples, length):
    """argv of a stock pool run of length versions, samples given by flag or by file key."""
    cfg = tmp_path / "sampled.ini"
    text = f"[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[plan]\nn_versions = {length}\n"
    if given == "file":
        cfg.write_text(text + f"\n[attack]\nsamples = {samples}\n")
        return ["--scenario", str(cfg), "pool"]
    cfg.write_text(text)
    return ["--scenario", str(cfg), "pool", "--samples", str(samples)]


@pytest.mark.parametrize("given", ["flag", "file"])
@pytest.mark.parametrize("samples, length, why", [
    (MAX_SAMPLED_WORK // 396 + 1, 8, f"limit of {MAX_SAMPLED_WORK}"),
    (100_000_000_000, 3, f"limit of {MAX_SAMPLED_WORK}"),
    (-1, 8, "n_samples must be >= 0"),
])
def test_pool_sampled_work_limit(tmp_path, capsys, monkeypatch, given, samples, length, why):
    # refused before the pool, and so any sample, is drawn
    monkeypatch.setattr(cli, "generate_candidate_pool", _undrawn)
    code, out, err = run_cli(capsys, *_sampled_run(tmp_path, given, samples, length))
    assert (code, out) == (2, "")
    assert why in err


@pytest.mark.parametrize("given", ["flag", "file"])
def test_pool_sampled_work_at_the_limit_runs(tmp_path, capsys, monkeypatch, given):
    # 6 greedy and 6 random steps of 1,000 samples over 50 candidates and up to 8
    # versions make 1,000 * 6 * (50 + 2 * 8) = 396,000 point tests
    monkeypatch.setattr(cli, "MAX_SAMPLED_WORK", 396_000)
    code, out, _ = run_cli(capsys, *_sampled_run(tmp_path, given, 1000, 8))
    assert code == 0 and len(parse_csv(out)) == 12
    code, out, err = run_cli(capsys, *_sampled_run(tmp_path, given, 1001, 8))
    assert (code, out) == (2, "")
    assert "would make 396396 point tests, above the limit of 396000" in err


def test_pool_empty_by_geometry_exits(tmp_path, capsys):
    cfg = tmp_path / "far_pool.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n"
                   "[pool]\nsize = 100000\neps_d = 1000\n")
    code, out, err = run_cli(capsys, "--scenario", str(cfg), "pool", "--sequence-length", "4")
    assert (code, out) == (2, "")
    assert "hypot(c, y_lim)" in err


def test_scenario_file_overrides(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nc = 50\ndelta = 0.05\ny_lim = 20\n\n"
        "[plan]\nk = 5\nb_max = 4\nn_versions = 6\n\n"
        "[pool]\nsize = 10\neps_d = 1.5\nseed = 99\n\n"
        "[attack]\nsamples = 1000\nseed = 3\n"
    )
    from_file = cli.Settings(
        scenario=ScenarioConfig(50.0, 0.05, 20.0), plan_k=5.0, plan_b_max=4.0, n_versions=6,
        pool_size=10, pool_eps_d=1.5, pool_seed=99, attack_samples=1000, attack_seed=3,
    )
    settings = load_settings(str(cfg))
    assert settings == from_file
    # every field differs from its default, so none of them was left unread
    assert all(getattr(settings, f.name) != getattr(DEFAULT_SETTINGS, f.name)
               for f in dataclasses.fields(cli.Settings))

    # each flag overrides the file's value and nothing else
    seen = []
    for command in ("plan", "pool"):
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda settings, args, out: seen.append(settings) or 0)
    for argv, changed in (
        (["plan", "--n", "9"], {"n_versions": 9}),
        (["pool", "--sequence-length", "7"], {"n_versions": 7}),
        (["pool", "--seed", "11"], {"pool_seed": 11, "attack_seed": 11}),
        (["pool", "--samples", "0"], {"attack_samples": 0}),
        (["pool"], {}),
    ):
        seen.clear()
        assert run_cli(capsys, "--scenario", str(cfg), *argv) == (0, "", "")
        assert seen == [dataclasses.replace(from_file, **changed)], argv


def test_scenario_file_defaults():
    assert load_settings(None) == DEFAULT_SETTINGS


def test_readme_scenario_example_loads(tmp_path):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(example)
    assert load_settings(str(cfg)) == DEFAULT_SETTINGS
    # every section and key is shown, so a key added or removed shows up here
    parser = configparser.ConfigParser()
    parser.read_string(example)
    assert {name: set(parser[name]) for name in parser.sections()} == cli._SECTIONS


def test_scenario_file_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.ini"
    broken.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\nthis line has no key\n")
    code, _, err = run_cli(capsys, "--scenario", str(broken), "table")
    assert code == 3
    lines = err.splitlines()
    assert lines[0].startswith("marginseq: parse error (line 5): Source contains parsing errors")
    assert [line for line in lines if "marginseq:" in line] == lines[:1]
    assert err.count("parse error") == 1

    with pytest.raises(ScenarioFileError):
        load_settings(str(broken))

    missing = tmp_path / "missing.ini"
    missing.write_text("[scenario]\nc = 100\ndelta = 0.1\n")
    code, _, err = run_cli(capsys, "--scenario", str(missing), "table")
    assert code == 3
    assert "y_lim" in err

    badnum = tmp_path / "badnum.ini"
    badnum.write_text("[scenario]\nc = hundred\ndelta = 0.1\ny_lim = 30\n")
    code, _, err = run_cli(capsys, "--scenario", str(badnum), "table")
    assert code == 3
    assert "hundred" in err

    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\nzz = 1\n")
    code, _, err = run_cli(capsys, "--scenario", str(unknown), "table")
    assert code == 3
    assert "zz" in err

    beyond_float = "1" + "0" * 400  # an integer int() reads but no float holds
    for section, key, raw in (("plan", "k", "nan"), ("plan", "b_max", "inf"),
                              ("pool", "eps_d", "nan"), ("attack", "samples", "inf"),
                              ("pool", "size", beyond_float), ("plan", "n_versions", beyond_float)):
        nonfinite = tmp_path / f"{key}.ini"
        nonfinite.write_text(
            f"[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[{section}]\n{key} = {raw}\n"
        )
        code, _, err = run_cli(capsys, "--scenario", str(nonfinite), "pool")
        assert code == 3, (section, key)
        assert f"[{section}] {key}=" in err

    # a "%" is read as text, not as configparser interpolation syntax
    for raw in ("7%", "%(foo)s"):
        percent = tmp_path / "percent.ini"
        percent.write_text(f"[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[plan]\nk = {raw}\n")
        code, out, err = run_cli(capsys, "--scenario", str(percent), "plan")
        assert (code, out) == (3, ""), raw
        assert f"{raw!r} is not a valid number" in err

    # configparser's message for a key before any section runs over three lines
    headless = tmp_path / "headless.ini"
    headless.write_text("c = 100\n[scenario]\ndelta = 0.1\ny_lim = 30\n")
    code, out, err = run_cli(capsys, "--scenario", str(headless), "table")
    assert (code, out) == (3, "")
    assert err == "marginseq: parse error (line 1): 'c = 100\\n' comes before any section header\n"

    notutf8 = tmp_path / "notutf8.ini"
    notutf8.write_bytes(b"[scenario]\nc = 100\xff\ndelta = 0.1\ny_lim = 30\n")
    code, out, err = run_cli(capsys, "--scenario", str(notutf8), "table")
    assert (code, out) == (3, "")
    assert "not UTF-8" in err

    nofile = tmp_path / "nope.ini"
    code, _, err = run_cli(capsys, "--scenario", str(nofile), "table")
    assert code == 3

    for name, text, why in (
        ("section", "[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[plans]\nk = 7\n",
         "unknown section [plans]"),
        ("noscenario", "[plan]\nk = 7\n", "must contain a [scenario] section"),
        ("badvalue", "[scenario]\nc = 1\ndelta = 0.1\ny_lim = 30\n", "invalid [scenario] values"),
    ):
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        code, out, err = run_cli(capsys, "--scenario", str(path), "table")
        assert (code, out) == (3, ""), name
        assert why in err, name


def test_verify_default_scenario(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS closed-form vs oracle max slope dev <= 1e-06" in out
    assert "FAIL" not in out
    assert "reference alpha table" in out


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from marginseq import cli
    from marginseq.selfcheck import CheckResult

    monkeypatch.setattr(
        cli, "run_all",
        lambda *a: [CheckResult("forced failure", False, "measured=1.0")],
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 4
    assert out.startswith("FAIL forced failure")


def test_verify_near_degenerate_scenario(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[scenario]\nc = 1.5\ndelta = 0.1\ny_lim = 30\n")
    code, out, _ = run_cli(capsys, "--scenario", str(cfg), "verify")
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith(("PASS", "FAIL")) for l in lines)
    assert code == 0, out


def test_verify_underflowing_closed_form_area(tmp_path, capsys):
    # with delta = 1e-300 some closed-form areas underflow to 0 and are skipped
    cfg = tmp_path / "thin.ini"
    cfg.write_text("[scenario]\nc = 100\ndelta = 1e-300\ny_lim = 30\n")
    code, out, _ = run_cli(capsys, "--scenario", str(cfg), "verify")
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 6 and all(l.startswith("PASS") for l in lines), out
    assert code == 0
