"""What the benchmark runs and what it reports.

This module is the single source of truth for the workloads, the metric
names, units and bounds, and the run length; ``run.py --emit-spec`` prints
the matching ``BENCHMARK.json``.

Inputs. Every verb call runs one *block*: a scenario with a fixed trial
count whose seed is drawn from a pool of ``POOL`` block seeds. A run with
benchmark seed ``s`` uses blocks ``(s * blocks + k) % POOL`` for
``k = 0 .. blocks - 1``; ``reference.json`` holds the seed-commit outputs of
every block in the pool, so every run is checked against stored values.
"""

from dataclasses import dataclass

# Reference physics of the paper (far user at 250 m, near user at 50 m,
# squared-distance path loss, 30 dBm budget, -35 dBm noise) and its
# 21-point rate-weight grid.
PHYSICS = dict(
    d1=250.0, d2=50.0, pathloss_exponent=2.0, pt_dbm=30.0, sigma2_dbm=-35.0,
    mu_steps=21,
)

POOL = 64
DEFAULT_SEED = 0  # baselines
HELDOUT_SEED = 5  # validating a claim; its blocks are disjoint from seed 0's
RUN_SECONDS = 20

# Frozen-value tolerance of the test suite; reference comparisons use it.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "region" or "check"
    n: int
    m1: int
    m2: int
    workers: int
    trials: int  # trials per verb call (one block)
    blocks: int  # distinct blocks per run
    why: str

    @property
    def family(self):
        """Key of the stored reference outputs; workloads that differ only
        in worker count share it."""
        return f"{self.verb}-{self.n}x{self.m1}x{self.m2}-t{self.trials}"

    def block_seeds(self, seed):
        return [(seed * self.blocks + k) % POOL for k in range(self.blocks)]

    def scenario_args(self, block_seed):
        return dict(
            PHYSICS, n=self.n, m1=self.m1, m2=self.m2, trials=self.trials,
            seed=block_seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "region_ref", "region", 5, 3, 3, workers=1, trials=2, blocks=9,
            why="paper headline region sweep on 5x3x3, one process; power "
            "allocation is ~99% of the time",
        ),
        Workload(
            "region_shared2", "region", 6, 4, 4, workers=1, trials=2, blocks=8,
            why="4x4x6 with two shared streams; kink handling and the "
            "optimality certificate weigh most here",
        ),
        Workload(
            "region_ref_w2", "region", 5, 3, 3, workers=2, trials=2, blocks=9,
            why="region_ref inputs through the 2-process pool; the only "
            "workload measuring pool start-up, pickling and scaling",
        ),
        Workload(
            "check_ref", "check", 5, 3, 3, workers=1, trials=20, blocks=5,
            why="invariant battery at mu=0.5; solves are capped, no weight "
            "sweep; the no-change workload for certificate gains",
        ),
    )
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("wsr_mean_bits", "bits", "higher", 0.15),
)

# (name, unit, better)
PER_LAYER = (
    ("power.ccp_allocate.calls", "count", "lower"),
    ("power.ccp_allocate.busy_s", "s", "lower"),
    ("power.ccp_allocate.self_s", "s", "lower"),
    ("power.ccp_allocate.p50_ms", "ms", "lower"),
    ("power.ccp_allocate.p90_ms", "ms", "lower"),
    ("power.maximize_surrogate.calls", "count", "lower"),
    ("power.maximize_surrogate.busy_s", "s", "lower"),
    ("power.maximize_surrogate.p50_ms", "ms", "lower"),
    ("power.maximize_surrogate.p90_ms", "ms", "lower"),
    ("power.outer_iters", "count", "lower"),
    ("power.inner_iters", "count", "lower"),
    ("power.inner_iters_per_solve", "count", "lower"),
    ("power.ccp_converged_frac", "ratio", "higher"),
    ("power.ccp_capped_frac", "ratio", "lower"),
    ("power.inner_converged_frac", "ratio", "higher"),
    ("power.inner_residual_max", "watt", "lower"),
    ("power.rate_underestimator.busy_s", "s", "lower"),
    ("power.self_s", "s", "lower"),
    ("triangularize.simultaneous_triangularize.calls", "count", "lower"),
    ("triangularize.simultaneous_triangularize.busy_s", "s", "lower"),
    ("triangularize.simultaneous_triangularize.p50_ms", "ms", "lower"),
    ("triangularize.verify_decomposition.calls", "count", "lower"),
    ("triangularize.verify_decomposition.busy_s", "s", "lower"),
    ("triangularize.self_s", "s", "lower"),
    ("linalg.qr_real_diag.busy_s", "s", "lower"),
    ("linalg.null_space_basis.busy_s", "s", "lower"),
    ("linalg.joint_null_space.busy_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("system.sample_channels.busy_s", "s", "lower"),
    ("system.self_s", "s", "lower"),
    ("rates.weighted_sum_rate.calls", "count", "lower"),
    ("rates.weighted_sum_rate.busy_s", "s", "lower"),
    ("rates.rate_user.busy_s", "s", "lower"),
    ("rates.self_s", "s", "lower"),
    ("transceiver.validate.calls", "count", "lower"),
    ("transceiver.validate.busy_s", "s", "lower"),
    ("transceiver.self_s", "s", "lower"),
    ("region.p2p_capacity.busy_s", "s", "lower"),
    ("region.self_s", "s", "lower"),
    ("region.parallel_efficiency", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.numpy_repr_cells", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

METRIC_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_spec():
    """The ``BENCHMARK.json`` document for this benchmark."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
