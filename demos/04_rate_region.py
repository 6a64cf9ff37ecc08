#!/usr/bin/env python3
"""Trace a small ergodic rate region and write the CSV + SVG artifacts.

Sweeping the rate weight trades user 1 against user 2; the orthogonal
baseline is TDMA time sharing with per-user water-filling; the hybrid
frontier time-shares between the NOMA points and the point-to-point corners.
The full-size experiment (100 trials, 21 weights) runs through the command
line: `stnoma region --out results`.
"""

import numpy as np

from stnoma import config_from_scenario, ergodic_region
from stnoma.cli import Scenario, run_region
from stnoma.region import frontier_value_at


def main():
    cfg = config_from_scenario(
        n_bs=5, m1=3, m2=3, d1=250, d2=50, pt_dbm=30, sigma2_dbm=-35
    )
    grid = np.arange(11) / 10.0
    out = ergodic_region(cfg, grid, trials=20, seed=0, workers=2)

    print("ergodic NOMA points (weight, R1, R2):")
    for p in out["st_noma"]:
        print(f"  {p.param:4.1f}  {p.r1:7.3f}  {p.r2:7.3f}")

    c1 = out["p2p_user1"][0]
    c2 = out["p2p_user2"][0]
    print(f"\npoint-to-point corners: user 1 {c1.r1:.3f} bpcu, user 2 {c2.r2:.3f} bpcu")

    st_mid = next(p for p in out["st_noma"] if p.param == 0.5)
    oma_mid = next(p for p in out["oma"] if p.param == 0.5)
    print(f"NOMA at equal weights:  ({st_mid.r1:.2f}, {st_mid.r2:.2f})")
    print(f"OMA at equal split:     ({oma_mid.r1:.2f}, {oma_mid.r2:.2f})")

    front = [(p.r1, p.r2) for p in out["hybrid"]]
    print(f"hybrid frontier has {len(front)} vertices and dominates both:",
          frontier_value_at(front, st_mid.r1) >= st_mid.r2 - 1e-9
          and frontier_value_at(front, oma_mid.r1) >= oma_mid.r2 - 1e-9)

    paths = run_region(Scenario(trials=20, mu_steps=11, seed=0), "demo_output", workers=2)
    print("\nwrote:", *paths)


if __name__ == "__main__":
    main()
