import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from stnoma.cli import (
    DEFAULT_CONVERGENCE_CONFIGS,
    Scenario,
    ScenarioError,
    apply_env_overrides,
    load_scenario,
    main,
    parse_scenario,
    run_convergence,
    run_region,
    self_check,
)

SMALL = Scenario(trials=3, mu_steps=5, seed=2)


def test_parse_scenario_roundtrip():
    text = """
    # paper setup
    n = 5
    m1 = 3
    m2 = 3
    d1 = 250
    d2 = 50
    pt_dbm = 30
    sigma2_dbm = -35
    trials = 10
    mu_steps = 11
    seed = 7
    """
    sc = parse_scenario(text)
    assert sc.n == 5 and sc.trials == 10 and sc.mu_steps == 11 and sc.seed == 7
    assert sc.d1 == 250.0 and sc.sigma2_dbm == -35.0


def test_parse_scenario_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("n = 5\nantennas = 3\n")


def test_parse_scenario_duplicate_key():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("n = 5\nn = 4\n")


def test_parse_scenario_bad_value():
    with pytest.raises(ScenarioError, match="bad value"):
        parse_scenario("trials = many\n")


def test_parse_scenario_missing_equals():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("n 5\n")


def test_env_overrides():
    sc = apply_env_overrides(Scenario(), {"STNOMA_TRIALS": "17", "STNOMA_D1": "300"})
    assert sc.trials == 17 and sc.d1 == 300.0


def test_load_scenario_precedence(tmp_path, monkeypatch):
    path = tmp_path / "sc.txt"
    path.write_text("trials = 5\nseed = 1\n", encoding="utf-8")
    monkeypatch.setenv("STNOMA_TRIALS", "7")
    sc = load_scenario(str(path), trials=9)
    assert sc.trials == 9  # flag wins over env wins over file
    sc2 = load_scenario(str(path))
    assert sc2.trials == 7
    monkeypatch.delenv("STNOMA_TRIALS")
    sc3 = load_scenario(str(path))
    assert sc3.trials == 5


def test_load_scenario_invalid_distances():
    with pytest.raises(ScenarioError):
        load_scenario(None, d1=10.0, d2=50.0)


def test_load_scenario_invalid_counts():
    with pytest.raises(ScenarioError, match="trials"):
        load_scenario(None, trials=0)
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(None, seed=-1)


def test_region_outputs(tmp_path):
    csv_path, svg_path = run_region(SMALL, tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,param,R1,R2,trials,seed"
    body = lines[1:]
    hybrid_rows = [l for l in body if l.startswith("hybrid,")]
    # mu grid + tau grid + 2 corners + hull points
    assert len(body) == 5 + 5 + 2 + len(hybrid_rows)
    assert sum(l.startswith("st_noma,") for l in body) == 5
    assert sum(l.startswith("oma,") for l in body) == 5
    assert sum(l.startswith("p2p_user1,") for l in body) == 1
    assert sum(l.startswith("p2p_user2,") for l in body) == 1
    # corner rows carry an empty sweep parameter
    corner = next(l for l in body if l.startswith("p2p_user1,"))
    assert corner.split(",")[1] == ""
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 10


def test_region_rerun_byte_identical(tmp_path):
    a = (tmp_path / "a")
    b = (tmp_path / "b")
    run_region(SMALL, a)
    run_region(SMALL, b)
    assert (a / "region.csv").read_bytes() == (b / "region.csv").read_bytes()
    assert (a / "region.svg").read_bytes() == (b / "region.svg").read_bytes()


def test_region_worker_count_invariant(tmp_path):
    a = (tmp_path / "w1")
    b = (tmp_path / "w2")
    run_region(SMALL, a, workers=1)
    run_region(SMALL, b, workers=2)
    assert (a / "region.csv").read_bytes() == (b / "region.csv").read_bytes()


def test_region_csv_numbers_parse_as_plain_floats(tmp_path):
    csv_path, _ = run_region(SMALL, tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols = [header.index(name) for name in ("param", "R1", "R2")]
    for line in lines[1:]:
        cells = line.split(",")
        scheme, param, r1, r2 = cells[0], *(cells[i] for i in cols)
        # only the sweeps carry a parameter
        assert (param != "") == (scheme in ("st_noma", "oma")), line
        float(r1), float(r2)
        if param:
            float(param)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_workers_below_one_exit_2(tmp_path, workers):
    rc = main(["region", "--out", str(tmp_path), "--trials", "2",
               "--mu-steps", "3", "--workers", workers])
    assert rc == 2
    assert not (tmp_path / "region.csv").exists()


def test_convergence_outputs(tmp_path):
    (csv_path,) = run_convergence(replace(SMALL, seed=4), tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "config,iteration,weighted_sum_rate"
    rows = [l.split(",") for l in lines[1:]]
    labels = {r[0] for r in rows}
    assert labels == {f"{m1}x{m2}x{n}" for m1, m2, n in DEFAULT_CONVERGENCE_CONFIGS}
    for label in labels:
        series = [float(r[2]) for r in rows if r[0] == label]
        iters = [int(r[1]) for r in rows if r[0] == label]
        assert 1 <= len(series) <= 10
        assert iters == list(range(1, len(series) + 1))
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))


def test_self_check_clean():
    report = self_check(replace(SMALL, trials=4))
    assert report.ok
    assert report.trials == 4


def test_self_check_detects_corruption():
    def corrupt(dec):
        x_bad = dec.x_mat.copy()
        x_bad[:, 0] *= 2.0
        return replace(dec, x_mat=x_bad)

    report = self_check(replace(SMALL, trials=2), corrupt=corrupt)
    assert not report.ok
    assert any("column_norm" in f for f in report.failures)


def test_main_check_exit_codes(tmp_path, capsys):
    rc = main(["check", "--trials", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_main_invalid_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("d1 = 10\nd2 = 50\n", encoding="utf-8")
    rc = main(["region", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "setting",
    ["sigma2_dbm = nan", "pt_dbm = nan", "pt_dbm = inf", "ccp_tol = nan",
     "STNOMA_SIGMA2_DBM=nan"],
)
def test_main_nonfinite_scenario_exit_2(tmp_path, monkeypatch, setting):
    # a scenario file line, or an environment override of a clean file
    if setting.startswith("STNOMA_"):
        monkeypatch.setenv(*setting.split("="))
        setting = ""
    scenario = tmp_path / "sc.txt"
    scenario.write_text(setting + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "region", "--scenario", str(scenario), "--out", str(out),
        "--trials", "1", "--mu-steps", "3",
    ])
    assert rc == 2
    assert not (out / "region.csv").exists()


def test_main_unknown_key_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("frequency = 2.4\n", encoding="utf-8")
    rc = main(["check", "--scenario", str(bad)])
    assert rc == 2


def test_main_region_verb(tmp_path, capsys):
    rc = main([
        "region", "--out", str(tmp_path), "--trials", "2", "--mu-steps", "3",
        "--seed", "1", "--workers", "1",
    ])
    assert rc == 0
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "region.svg").exists()


def test_main_convergence_verb(tmp_path):
    rc = main(["convergence", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "convergence.csv").exists()


def test_region_overlay(tmp_path):
    overlay = tmp_path / "bound.csv"
    overlay.write_text("R1,R2\n5.0,20.0\n12.0,10.0\n", encoding="utf-8")
    rc = main([
        "region", "--out", str(tmp_path), "--trials", "2", "--mu-steps", "3",
        "--overlay", str(overlay),
    ])
    assert rc == 0
    svg = (tmp_path / "region.svg").read_text(encoding="utf-8")
    assert "overlay" in svg
    # overlay feeds the plot only, never the CSV
    assert "overlay" not in (tmp_path / "region.csv").read_text(encoding="utf-8")


def test_region_overlay_bad_file(tmp_path):
    # the overlay is read before the sweep: a bad one leaves no region.csv
    for k, text in enumerate(["x,y\n1,2\n", "R1,R2\n5.0,inf\n", "R1,R2\nnan,2\n"]):
        overlay = tmp_path / f"bound{k}.csv"
        overlay.write_text(text, encoding="utf-8")
        out = tmp_path / f"out{k}"
        rc = main([
            "region", "--out", str(out), "--trials", "2", "--mu-steps", "3",
            "--overlay", str(overlay),
        ])
        assert rc == 2
        assert not (out / "region.csv").exists()
    rc = main([
        "region", "--out", str(tmp_path / "out"), "--trials", "2",
        "--mu-steps", "3", "--overlay", str(tmp_path / "missing.csv"),
    ])
    assert rc == 2


def test_scenario_mu_grid_validation():
    with pytest.raises(ScenarioError):
        Scenario(mu_steps=1).mu_grid()
    grid = Scenario(mu_steps=5).mu_grid()
    np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
