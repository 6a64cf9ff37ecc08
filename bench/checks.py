"""Output checks: a verb call that fails one of these counts as failed."""

import math

from stnoma.region import frontier_value_at
from workloads import REFERENCE_RTOL

CSV_HEADER = "scheme,param,R1,R2,trials,seed"
# Slack of the hybrid-dominance test, as in the acceptance suite.
DOMINANCE_TOL = 1e-9


def close(value, reference, rtol=REFERENCE_RTOL):
    return abs(value - reference) <= rtol * abs(reference)


# The program writes some rates with numpy's scalar repr, "np.float64(x)",
# where a plain float literal belongs (a defect under numpy >= 2). The value
# inside is still read and checked; run.py reports how many cells had it.
NUMPY_REPR = "np.float64("


def _number(cell):
    if cell.startswith(NUMPY_REPR) and cell.endswith(")"):
        cell = cell[len(NUMPY_REPR):-1]
    return float(cell)


def parse_region_csv(data):
    """``region.csv`` bytes -> ``{scheme: [(param, r1, r2, trials, seed)]}``."""
    lines = data.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("unexpected region.csv layout")
    rows = {}
    for line in lines[1:-1]:
        scheme, param, r1, r2, trials, seed = line.split(",")
        rows.setdefault(scheme, []).append(
            (_number(param) if param else None, _number(r1), _number(r2),
             int(trials), int(seed))
        )
    return rows


def wsr_mean(st_rows):
    """Mean over the weight grid of ``mu * R1 + (1 - mu) * R2``."""
    return sum(mu * r1 + (1.0 - mu) * r2 for mu, r1, r2, *_ in st_rows) / len(
        st_rows
    )


def check_region(data, workload, block_seed, reference):
    """Check one ``region.csv``; returns ``(wsr_mean_bits, problems)``."""
    try:
        rows = parse_region_csv(data)
    except ValueError as exc:
        return math.nan, [f"region.csv: {exc}"]
    problems = []
    for scheme, scheme_rows in rows.items():
        for param, r1, r2, trials, seed in scheme_rows:
            if not (math.isfinite(r1) and math.isfinite(r2) and r1 >= 0 and r2 >= 0):
                problems.append(f"{scheme} {param}: rate not finite and >= 0")
            if (trials, seed) != (workload.trials, block_seed):
                problems.append(f"{scheme} {param}: trials/seed columns")
    st = rows.get("st_noma", [])
    steps = len(reference["st_noma"])
    if [p for p, *_ in st] != [i / (steps - 1) for i in range(steps)]:
        return math.nan, problems + ["st_noma rows do not match the weight grid"]
    for (mu, r1, r2, *_), (ref1, ref2) in zip(st, reference["st_noma"]):
        if not (close(r1, ref1) and close(r2, ref2)):
            problems.append(f"st_noma mu={mu}: ({r1}, {r2}) != ({ref1}, {ref2})")
    wsr = wsr_mean(st)
    if not close(wsr, reference["wsr"]):
        problems.append(f"wsr_mean_bits {wsr} != reference {reference['wsr']}")

    front = sorted((r1, r2) for _, r1, r2, *_ in rows.get("hybrid", []))
    for scheme in ("st_noma", "oma"):
        mid = [(r1, r2) for p, r1, r2, *_ in rows.get(scheme, []) if p == 0.5]
        if not front or len(mid) != 1:
            problems.append(f"no hybrid frontier or no {scheme} point at 0.5")
        elif frontier_value_at(front, mid[0][0]) < mid[0][1] - DOMINANCE_TOL:
            problems.append(f"hybrid frontier below the {scheme} point at 0.5")
    return wsr, problems


def check_self_check(report, workload, wsr_by_trial=None, reference=None):
    """Check one ``self_check`` report, and, when the solves' weighted sum
    rates were captured, compare them with the reference."""
    problems = [] if report.ok else [f"check failed: {f}" for f in report.failures]
    if report.trials != workload.trials:
        problems.append(f"checked {report.trials} trials, not {workload.trials}")
    if wsr_by_trial is not None:
        if len(wsr_by_trial) != len(reference["wsr"]):
            problems.append("captured solve count differs from the reference")
        for t, (value, ref) in enumerate(zip(wsr_by_trial, reference["wsr"])):
            if not (math.isfinite(value) and close(value, ref)):
                problems.append(f"trial {t}: weighted sum rate {value} != {ref}")
    return problems
