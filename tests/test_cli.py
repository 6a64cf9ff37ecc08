import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from stnoma import cli, region
from stnoma.cli import (
    DEFAULT_CONVERGENCE_CONFIGS,
    Scenario,
    ScenarioError,
    load_scenario,
    main,
    parse_scenario,
    read_overlay_points,
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
    sc = load_scenario(environ={"STNOMA_TRIALS": "17", "STNOMA_D1": "300"})
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


def test_a_file_valid_only_with_its_overrides_loads(tmp_path):
    # the file, the environment and the flags are merged before the one
    # validation, so an override can mend the file
    path = tmp_path / "sc.txt"
    path.write_text("m1 = 1\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match="m1 \\+ m2 = 4 < n_bs = 5"):
        load_scenario(path, environ={})
    for sc in (load_scenario(path, environ={"STNOMA_M2": "4"}),
               load_scenario(path, environ={}, m2=4)):
        assert (sc.n, sc.m1, sc.m2) == (5, 1, 4)


@pytest.mark.parametrize("override", [
    {"trials": True}, {"d1": False}, {"trials": 2.5}, {"seed": 1.5}, {"n": 5.0},
    {"ccp_max_iters": 2.5}, {"inner_max_iters": np.float64(100.0)}, {"trials": "3"},
    {"pt_dbm": "30"},
])
def test_load_scenario_rejects_an_override_of_the_wrong_type(override):
    # keyword overrides skip the parsing that file and environment values
    # take: a bool was written into region.csv's trials column, a float
    # count loaded and died mid-run with a TypeError, and a string raised a
    # TypeError inside the validation
    with pytest.raises(ScenarioError, match="bad value"):
        load_scenario(environ={}, **override)


def test_load_scenario_takes_numpy_integers_and_integers_for_floats():
    sc = load_scenario(environ={}, trials=np.int64(3), seed=np.int32(2), pt_dbm=20,
                       ccp_tol=np.float32(0.5))
    assert (sc.trials, sc.seed, sc.pt_dbm, sc.ccp_tol) == (3, 2, 20, 0.5)
    assert sc.solver_settings().ccp_max_iters == 10


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


def test_region_one_trial_pinned(tmp_path):
    # the default scenario at one trial: all 21 rate weights on one link, a
    # run whose rows once shared that link's gains instead of each
    # carrying its own; the digest was read before they did
    csv_path, _ = run_region(Scenario(trials=1), tmp_path)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "3c35619eb7efa4687c2f4c4541b9afec273962646fbbc5f5eab590806959bc76"


def test_region_worker_count_invariant(tmp_path):
    a = (tmp_path / "w1")
    b = (tmp_path / "w2")
    run_region(SMALL, a, workers=1)
    run_region(SMALL, b, workers=2)
    assert (a / "region.csv").read_bytes() == (b / "region.csv").read_bytes()


def test_region_worker_count_invariant_through_a_pool(tmp_path, monkeypatch):
    # 4 trials at two workers start a real 2-process pool
    monkeypatch.setattr("stnoma.region._usable_cpus", lambda: 2)
    scenario = SMALL.replace(trials=4)
    a = run_region(scenario, tmp_path / "w1", workers=1)[0]
    b = run_region(scenario, tmp_path / "w2", workers=2)[0]
    assert a.read_bytes() == b.read_bytes()


def test_import_loads_neither_multiprocessing_nor_argparse():
    # a fresh interpreter set up as the benchmark's set-up step does; the
    # pool imports multiprocessing and main() argparse when they run
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import stnoma\n"
        "from stnoma.cli import load_scenario\n"
        "load_scenario(environ={})\n"
        "loaded = sorted({'multiprocessing', 'argparse', 'dataclasses'} & set(sys.modules))\n"
        "import dataclasses, json\n"
        "modules = sorted(n for n in sys.modules if n.startswith('stnoma.'))\n"
        "made = sorted(f'{n}.{k}' for n in modules\n"
        "              for k, v in vars(sys.modules[n]).items()\n"
        "              if dataclasses.is_dataclass(v) and isinstance(v, type)\n"
        "              and v.__module__ == n)\n"
        "print(json.dumps([loaded, modules, made]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded, modules, made = json.loads(out)
    # nor dataclasses: every record is a stnoma.system.Record
    assert loaded == []
    assert modules == [f"stnoma.{name}" for name in (
        "cli", "linalg", "power", "rates", "region", "system", "transceiver",
        "triangularize")]
    assert made == []


def test_region_at_a_150_db_budget(tmp_path):
    # pt / noise = 150 dB with a 316 MW budget: one ulp of rounding in the
    # spent power is no budget overshoot
    scenario = Scenario(trials=2, pt_dbm=115.0, seed=0)
    csv_path, _ = run_region(scenario, tmp_path)
    assert csv_path.exists()


def test_check_holds_at_a_150_db_budget():
    report = self_check(Scenario(trials=10, pt_dbm=115.0, seed=0))
    assert report.failures == []


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


@pytest.mark.parametrize("verb", ["region", "convergence"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_main_unusable_out_exit_2(tmp_path, monkeypatch, capsys, verb, below):
    # an --out at or under a file died with a NotADirectoryError or
    # FileExistsError traceback and exit 1; it exits 2 before any solve
    def solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "ergodic_region", solve)
    monkeypatch.setattr(cli, "ccp_allocate", solve)
    blocker = tmp_path / "some_file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / below if below else blocker
    assert main([verb, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: "), err
    assert blocker.is_file()


@pytest.mark.parametrize("pt_dbm", ["-180", "-400"])
def test_region_at_a_vanishing_budget(tmp_path, monkeypatch, pt_dbm):
    # the p2p capacity of trial 1 rounded to -1.6e-16 at -180 dBm, and the
    # run died with a traceback after the whole sweep
    monkeypatch.setenv("STNOMA_PT_DBM", pt_dbm)
    rc = main(["region", "--out", str(tmp_path), "--trials", "2", "--mu-steps", "3"])
    assert rc == 0
    rows = [line.split(",") for line in
            (tmp_path / "region.csv").read_text(encoding="utf-8").splitlines()]
    cols = [rows[0].index(name) for name in ("R1", "R2")]
    rates = np.array([[float(row[i]) for i in cols] for row in rows[1:]])
    assert np.isfinite(rates).all() and (rates >= 0.0).all()


def test_convergence_outputs(tmp_path):
    (csv_path,) = run_convergence(SMALL.replace(seed=4), tmp_path)
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


def test_convergence_names_a_non_generic_draw(monkeypatch, tmp_path):
    # a rank-deficient h1 at the second configuration is named by the seed
    # and the configuration, not raised bare
    sample = region.sample_channels

    def rank_deficient_h1(rng, n_bs, m1, m2):
        ch = sample(rng, n_bs, m1, m2)
        if (m1, m2, n_bs) == (3, 3, 5):
            h1 = ch.h1.copy()
            h1[-1] = h1[0]
            ch = type(ch)(h1, ch.h2)
        return ch

    monkeypatch.setattr(region, "sample_channels", rank_deficient_h1)
    with pytest.raises(ValueError, match=r"^seed 4, config 3x3x5: h1 is non-generic") as info:
        run_convergence(SMALL.replace(seed=4), tmp_path)
    assert str(info.value).endswith(str(info.value.__cause__))


def test_convergence_names_a_non_finite_decomposition(nan_in_factor, tmp_path):
    # the NaN enters user 2's triangular factor of the third configuration
    # as its decomposition is built, which refuses it; each configuration
    # is a stacked pass of its own
    nan_in_factor("r2", 0, stack=3)
    with pytest.raises(ValueError, match=r"^seed 4, config 4x4x6: decomposition not finite in r2$"):
        run_convergence(SMALL.replace(seed=4), tmp_path)


@pytest.mark.parametrize("verb, owner, expected", [
    ("region", region, "seed 7, trial 1: h1 is non-generic"),
    ("convergence", cli, "seed 7, config 3x3x5: h1 is non-generic"),
])
def test_main_failing_draw_exit_1(monkeypatch, tmp_path, capsys, verb, owner, expected):
    # a draw that fails after the work has started ended in a traceback;
    # the verb prints the message that names it and exits 1. Region
    # triangularizes a chunk's draws in one stacked pass, convergence one
    # draw at a time.
    if owner is region:
        stacked = region.triangularize_draws

        def second_non_generic_of_stack(chs):
            decs = stacked(chs)
            decs[1] = ValueError("h1 is non-generic")
            return decs

        monkeypatch.setattr(region, "triangularize_draws", second_non_generic_of_stack)
    else:
        triangularize = owner.simultaneous_triangularize
        calls = []

        def second_non_generic(ch):
            calls.append(ch)
            if len(calls) == 2:
                raise ValueError("h1 is non-generic")
            return triangularize(ch)

        monkeypatch.setattr(owner, "simultaneous_triangularize", second_non_generic)
    flags = ["--trials", "3", "--mu-steps", "3"] if verb == "region" else []
    assert main([verb, "--out", str(tmp_path), "--seed", "7", *flags]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_gains_whose_squares_overflow_fail_by_name(tmp_path, capsys):
    # A near user at 1e-80 m gives gains near 1e160, whose squares in the
    # power solver overflow: region warned, wrote ST-NOMA (0, 0) at every
    # weight and exited 0, and check found every invariant holding. Both
    # now name what fails and exit 1; region writes no region.csv. At
    # 1e-158 m (path loss ~1e-316) the gains themselves overflow, which
    # warned before the bound refused them; under this suite's warning
    # filter, a traceback.
    refused = "stream gains and gains over the noise must be finite and <= 1e150"
    for d2 in ("1e-80", "1e-158"):
        scenario = tmp_path / f"near{d2}.txt"
        scenario.write_text(f"d1 = 2\nd2 = {d2}\n", encoding="utf-8")
        out = tmp_path / f"out{d2}"
        argv = ["region", "--scenario", str(scenario), "--trials", "1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: seed 0, trials 0-0: {refused}\n"
        assert not list(out.glob("*.csv"))
        assert main(["check", "--scenario", str(scenario), "--trials", "2"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"trial {t}: power allocation: {refused}" for t in range(2)
        ] + ["checked 2 channels: 2 failures"]
        assert main(["convergence", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed 0, config 2x2x3: {refused}\n"


def test_self_check_clean():
    report = self_check(SMALL.replace(trials=4))
    assert report.ok
    assert report.trials == 4


def test_self_check_detects_corruption():
    def corrupt(dec):
        x_bad = dec.x_mat.copy()
        x_bad[:, 0] *= 2.0
        return dec.replace(x_mat=x_bad)

    report = self_check(SMALL.replace(trials=2), corrupt=corrupt)
    assert not report.ok
    assert any("column_norm" in f for f in report.failures)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["r1", "r2", "x_mat"])
def test_self_check_fails_a_non_finite_decomposition(name, value):
    # a NaN passed every residual and underestimator test, and the solver
    # returned zero powers that validate; an inf raised a numpy warning
    def corrupt(dec):
        bad = getattr(dec, name).copy()
        bad[0, 0] = value
        return dec.replace(**{name: bad})

    report = self_check(SMALL.replace(trials=2), corrupt=corrupt)
    assert not report.ok
    assert report.failures[0].startswith("trial 0: decomposition")
    assert name in report.failures[0]


def test_self_check_names_a_non_generic_draw_by_its_trial(monkeypatch, capsys):
    # a rank-deficient h1 has no decomposition; check names its trial and
    # skips that trial's other checks, and the later trials keep their draws:
    # the allocation and anchor of each trial that enters the battery
    calls = []
    battery = cli.rates_and_underestimators

    def logged(allocs, anchors, decs, cfg):
        for alloc, anchor in zip(allocs, anchors):
            calls.append((alloc.p1.tobytes(), alloc.p2.tobytes(), anchor.tobytes()))
        return battery(allocs, anchors, decs, cfg)

    monkeypatch.setattr(cli, "rates_and_underestimators", logged)
    assert self_check(SMALL).ok
    clean = calls[:]
    calls.clear()
    sample = region.sample_channels
    drawn = []

    def rank_deficient_at_trial_1(rng, n_bs, m1, m2):
        ch = sample(rng, n_bs, m1, m2)
        drawn.append(ch)
        if len(drawn) == 2:
            h1 = ch.h1.copy()
            h1[-1] = h1[0]
            ch = type(ch)(h1, ch.h2)
        return ch

    monkeypatch.setattr(region, "sample_channels", rank_deficient_at_trial_1)
    report = self_check(SMALL)
    assert report.failures == ["trial 1: h1 is non-generic: null-space dimension 3 != 2"]
    shared = len(clean) // SMALL.trials
    assert shared and len(clean) == SMALL.trials * shared
    assert calls == clean[:shared] + clean[2 * shared :]
    drawn.clear()
    assert main(["check", "--trials", "3", "--seed", "2"]) == 1
    assert "trial 1: h1 is non-generic" in capsys.readouterr().out


def test_region_and_check_draw_the_same_channels(monkeypatch):
    # both verbs draw trial t from (seed, t) through region.sample_trials,
    # so the trace point region.sample_channels sees every draw of each
    drawn = []
    sample = region.sample_channels

    def logged(rng, n_bs, m1, m2):
        ch = sample(rng, n_bs, m1, m2)
        drawn.append(ch.h1.tobytes() + ch.h2.tobytes())
        return ch

    monkeypatch.setattr(region, "sample_channels", logged)
    scenario = SMALL.replace(ccp_max_iters=1)
    region.st_noma_region(scenario.config(), [0.5], scenario.trials, scenario.seed,
                          settings=scenario.solver_settings())
    by_region = drawn[:]
    drawn.clear()
    self_check(scenario)
    assert len(by_region) == scenario.trials and drawn == by_region


NUMPY_OUT_OF_MEMORY = ("Unable to allocate 400. MiB for an array with shape (100, 512, 512) "
                       "and data type complex128")


@pytest.mark.parametrize("verb, owner", [("region", region), ("check", cli)])
@pytest.mark.parametrize("message, line", [
    (NUMPY_OUT_OF_MEMORY, f"out of memory: {NUMPY_OUT_OF_MEMORY}"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_main_out_of_memory_exit_1(monkeypatch, tmp_path, capsys, verb, owner, message, line):
    # the stacked pass of a large run (512 antennas each, 100 trials) ran
    # out of memory: check ended in a traceback, region in one too; both
    # print one error line and exit 1. A MemoryError that Python raises on
    # its own has no message.
    def out_of_memory(chs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, "triangularize_draws", out_of_memory)
    outs = ["--out", str(tmp_path)] if verb == "region" else []
    assert main([verb, *outs, "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


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


HUGE = str(2**62)  # numpy refuses an array of it without allocating


@pytest.mark.parametrize("verb, flags, env, key", [
    ("region", ["--mu-steps", HUGE], {}, "mu_steps"),
    ("region", ["--trials", HUGE], {}, "trials"),
    ("check", ["--trials", HUGE], {}, "trials"),
    ("region", [], {"STNOMA_CCP_MAX_ITERS": HUGE}, "ccp_max_iters"),
    ("convergence", [], {"STNOMA_CCP_MAX_ITERS": HUGE}, "ccp_max_iters"),
    ("check", [], {"STNOMA_CCP_MAX_ITERS": HUGE}, "ccp_max_iters"),
    ("check", [], {"STNOMA_MU_STEPS": HUGE}, "mu_steps"),
    ("check", ["--trials", "1"], {f"STNOMA_{k}": "100000" for k in ("N", "M1", "M2")}, "n"),
    ("region", [], {"STNOMA_N": "100000"}, "n"),
    ("check", [], {"STNOMA_M1": "100000"}, "m1"),
    ("convergence", [], {"STNOMA_M2": "100000"}, "m2"),
])
def test_main_absurd_counts_exit_2_before_any_work(tmp_path, monkeypatch, capsys, verb, flags,
                                                   env, key):
    # a huge mu_steps built the whole grid to validate it and exited 1 ("array
    # is too big"), a huge ccp_max_iters failed after sampling and
    # triangularizing, when the solver padded its tables to it, and check
    # reported that as a failed invariant; an antenna count of 1e5 failed
    # to allocate the first channel draw (exit 1)
    def work(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("ergodic_region", "ccp_allocate"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(region, "sample_channels", work)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    outs = ["--out", str(out)] if verb != "check" else []
    assert main([verb, *outs, *flags]) == 2
    cap = cli.ANTENNA_MAX if key in ("n", "m1", "m2") else cli.COUNT_MAX
    assert capsys.readouterr().err == f"error: {key} must be <= {cap}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["check", "convergence"])
def test_main_workers_only_on_region(tmp_path, capsys, verb):
    # the trials of check and convergence run in one process, so the flag
    # is unknown to them
    out = ["--out", str(tmp_path)] if verb == "convergence" else []
    with pytest.raises(SystemExit) as info:
        main([verb, *out, "--workers", "4"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        ("check", "--out", "out"),
        ("check", "--mu-steps", "7"),
        ("convergence", "--trials", "1"),
        ("convergence", "--mu-steps", "7"),
    ],
)
def test_main_rejects_flags_the_verb_ignores(tmp_path, capsys, verb, flag, value):
    # a flag the verb would not read exits 2 before any work, so it cannot
    # look as if it took effect
    out = ["--out", str(tmp_path)] if verb == "convergence" else []
    if flag == "--out":
        value = str(tmp_path / value)
    with pytest.raises(SystemExit) as info:
        main([verb, *out, flag, value])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_unknown_key_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("frequency = 2.4\n", encoding="utf-8")
    rc = main(["check", "--scenario", str(bad)])
    assert rc == 2


def test_scenario_file_with_a_byte_order_mark(tmp_path, capsys):
    # Windows editors write a UTF-8 byte-order mark, which read as part of
    # the first key; a file that is not UTF-8 is an invalid scenario
    path = tmp_path / "bom.txt"
    path.write_text("\ufefftrials = 2\nseed = 3\n", encoding="utf-8")
    assert (load_scenario(path).trials, load_scenario(path).seed) == (2, 3)
    path.write_bytes("n = 5\n# d\xe9faut\n".encode("latin-1"))
    assert main(["check", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario {path}: ")


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
    bad = ["x,y\n1,2\n", "R1,R2\n5.0,inf\n", "R1,R2\nnan,2\n", "R1,R2\n-1.0,2\n"]
    for k, text in enumerate(bad):
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


def test_overlay_with_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark, which read
    # as part of the first header cell
    overlay = tmp_path / "bound.csv"
    overlay.write_text("\ufeffR1,R2\n5.0,20.0\n", encoding="utf-8")
    assert read_overlay_points(overlay) == [(5.0, 20.0)]


def test_scenario_mu_grid_validation():
    with pytest.raises(ScenarioError):
        Scenario(mu_steps=1).mu_grid()
    grid = Scenario(mu_steps=5).mu_grid()
    np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
