from pathlib import Path

import scale_timing

ROOT = Path(__file__).resolve().parent.parent


def test_scale_timing_runs_one_pair(capsys):
    # this checkout against itself, one pair of 1-trial runs
    scale_timing.main([str(ROOT), str(ROOT), "--trials", "1", "--runs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "region --trials 1 --workers 1, 1 pair"
    assert [line.split()[0] for line in lines[1:]] == ["parent", "change"]
    assert all(" cpu " in line and " ru_maxrss " in line for line in lines[1:])


def test_pairs_are_won_on_cpu_time_and_ties_count_for_neither():
    samples = {"parent": [(1.0, 40.0), (2.0, 41.0), (3.0, 42.0)],
               "change": [(0.5, 40.0), (2.0, 40.0), (3.5, 43.0)]}
    lines = scale_timing.report(5, samples)
    assert lines[1] == "  parent  cpu 2.000 s (IQR 1.000)  ru_maxrss 41.0 MB (IQR 1.0)  won 1/3"
    assert lines[2] == "  change  cpu 2.000 s (IQR 1.500)  ru_maxrss 40.0 MB (IQR 1.5)  won 1/3"
