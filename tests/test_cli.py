import csv
import io
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from marginseq.cli import MAX_PLAN_VERSIONS, main, load_settings, DEFAULT_SETTINGS
from marginseq.errors import ScenarioFileError


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
        (["pool", "--attack-mode", "cautious"], "pool_cautious.csv"),
        (["pool", "--samples", "20000", "--sequence-length", "5"], "pool_samples20000_len5.csv"),
    ],
)
def test_stock_csv_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")


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
    import re

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


def test_pool_cautious_mode_renders_na(capsys):
    # the seed pair has disjoint regions, so cautious scores are undefined
    for extra in ([], ["--samples", "100000"]):
        code, out, _ = run_cli(capsys, "pool", "--sequence-length", "4",
                               "--attack-mode", "cautious", *extra)
        assert code == 0
        rows = parse_csv(out)
        assert any(r["compound_at"] == "NA" for r in rows if r["row"] == "greedy")
        assert all(r["compound_at"] == "NA" for r in rows if r["row"] == "random")


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


def test_scenario_file_overrides(tmp_path):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nc = 50\ndelta = 0.05\ny_lim = 20\n\n"
        "[plan]\nk = 5\nb_max = 4\nn_versions = 6\n\n"
        "[pool]\nsize = 10\neps_d = 1.5\nseed = 99\n\n"
        "[attack]\nmode = cautious\nsamples = 1000\nseed = 3\n"
    )
    settings = load_settings(str(cfg))
    assert settings.scenario.c == 50.0
    assert settings.scenario.delta == 0.05
    assert settings.plan_k == 5.0
    assert settings.n_versions == 6
    assert settings.pool_size == 10
    assert settings.attack_mode == "cautious"
    assert settings.attack_samples == 1000
    assert settings.attack_seed == 3


def test_scenario_file_defaults():
    assert load_settings(None) == DEFAULT_SETTINGS


def test_scenario_file_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.ini"
    broken.write_text("[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\nthis line has no key\n")
    code, _, err = run_cli(capsys, "--scenario", str(broken), "table")
    assert code == 3
    assert "line" in err

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

    for section, key, raw in (("plan", "k", "nan"), ("plan", "b_max", "inf"),
                              ("pool", "eps_d", "nan"), ("attack", "samples", "inf")):
        nonfinite = tmp_path / f"{key}.ini"
        nonfinite.write_text(
            f"[scenario]\nc = 100\ndelta = 0.1\ny_lim = 30\n\n[{section}]\n{key} = {raw}\n"
        )
        code, _, err = run_cli(capsys, "--scenario", str(nonfinite), "pool")
        assert code == 3, (section, key)
        assert key in err

    nofile = tmp_path / "nope.ini"
    code, _, err = run_cli(capsys, "--scenario", str(nofile), "table")
    assert code == 3


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
