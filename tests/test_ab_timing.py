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
    assert not ab_timing.PACKAGES & {name.split(".")[0] for name in sys.modules}
