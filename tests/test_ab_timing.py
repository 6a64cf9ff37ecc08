import sys
from pathlib import Path

import ab_timing

ROOT = Path(__file__).resolve().parent.parent


def test_ab_timing_runs_one_pair_per_workload(capsys):
    # this checkout against itself, one pair on one block; both copies of
    # the package are gone from the import system afterwards
    ab_timing.main([str(ROOT), str(ROOT), "--reps", "1", "--blocks", "0"])
    lines = capsys.readouterr().out.splitlines()
    names = [w.name for w in ab_timing.workloads.WORKLOADS.values() if w.workers == 1]
    assert [line.split()[0] for line in lines] == names
    assert all(line.endswith(("won 0/1", "won 1/1")) for line in lines)
    # the parent against its own copy, from the same round, and how the
    # change's ratio reads against it
    assert all(" A/A " in line for line in lines)
    assert all(line.split()[-3] in ("faster", "slower", "unresolved") for line in lines)
    assert not ab_timing.PACKAGES & {name.split(".")[0] for name in sys.modules}


def test_a_ratio_inside_the_parents_own_spread_is_unresolved(capsys):
    # three rounds in which the change is 2% faster than the parent, but
    # the parent's own copy differs from it by up to 5%
    rounds = [{"parent": 1.0, "control": aa, "change": 0.98} for aa in (0.95, 1.0, 1.05)]
    ab_timing.report("w", rounds)
    line = capsys.readouterr().out
    assert "A/A 1.000 [0.975, 1.025] unresolved" in line and line.endswith("won 3/3\n")
    assert ab_timing.verdict(0.98, 0.99, 1.01) == "faster"
    assert ab_timing.verdict(1.02, 0.99, 1.01) == "slower"
    assert ab_timing.verdict(1.0, 0.99, 1.01) == "unresolved"
