"""One benchmark run: verb calls over the workload's blocks, checked and timed.

Untraced rounds give the end-to-end numbers. With tracing on, every block is
called once untraced and then once traced, in turn, so the overhead compares
like with like; the per-layer numbers come from the traced calls.

The gated times (``run_s``, ``setup_s``) are scaled to a reference host
speed: each sample is divided by the host's slowness measured around it.
On a shared machine the speed drifts by up to 2x within minutes, and the
probes follow that drift (README.md, "Measured host noise"). A verb call's
slowness is the mean of probes of numpy and plain Python work timed just
before and just after it; a set-up sample's probe is the start of an
interpreter that only imports numpy.
"""

import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import stnoma.cli as cli

from checks import NUMPY_REPR, check_region, check_self_check
from tracing import Tracer, captured_solve_rates, layer_metrics
from workloads import PER_LAYER

PER_LAYER_NAMES = [name for name, *_ in PER_LAYER]
SETUP_SAMPLES = 9
PROBE_REPEATS = 3
PROBE_REF_S = 0.0223  # median probe time on the host in README.md
BASELINE_REF_S = 0.2  # median start of BASELINE_CODE on the host in README.md
SRC = Path(__file__).resolve().parent.parent / "src"

# A fresh interpreter: import the package and load the workload's scenario.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import stnoma
from stnoma.cli import load_scenario
load_scenario(environ={{}}, **{args!r})
print("ready", flush=True)
"""
# The set-up probe: a fresh interpreter that imports only numpy, the bulk of
# a set-up, so that it slows down with the host the way a set-up does.
BASELINE_CODE = """\
import numpy
print("ready", flush=True)
"""


def start_seconds(code):
    """Seconds from starting a fresh interpreter on ``code`` to it being
    ready."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)],
        cwd=SRC.parent, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up interpreter failed")
    return seconds


def host_probe():
    """Seconds for a fixed piece of small-array numpy work and plain Python
    work, neither of which uses the program. The program's time is mostly
    both kinds; either alone follows its slowdowns less closely."""
    t0 = perf_counter()
    z = np.linspace(0.1, 1.0, 12)
    for _ in range(1000):
        g = np.log2(1.0 + 3.0 * z)
        z = np.maximum(z - 1e-3 * g, 0.0) + 1e-3
        np.cumsum(np.sort(z)[::-1])
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    return perf_counter() - t0


def host_slowness():
    """Mean probe time now over the reference probe time."""
    return statistics.fmean(host_probe() for _ in range(PROBE_REPEATS)) / PROBE_REF_S


def scaled_median(seconds, slowness):
    return statistics.median(t / h for t, h in zip(seconds, slowness))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])


@dataclass
class Call:
    seconds: float
    output: object  # region.csv bytes, or the CheckReport
    out_bytes: int


class Runner:
    def __init__(self, workload, seed, reference, work_dir):
        self.workload = workload
        self.blocks = workload.block_seeds(seed)
        self.scenarios = {
            b: cli.load_scenario(environ={}, **workload.scenario_args(b))
            for b in self.blocks
        }
        self.reference = reference
        self.work_dir = Path(work_dir)
        self.tally = Tally()
        self.expected = {}  # block -> region.csv bytes every call must match
        self.wsr = {}  # block -> wsr_mean_bits
        self.numpy_repr_cells = 0  # per region.csv; see checks.NUMPY_REPR
        self.slowness = []  # one per untraced timed call

    def _call(self, block, workers):
        scenario = self.scenarios[block]
        if self.workload.verb == "check":
            t0 = perf_counter()
            report = cli.self_check(scenario)
            return Call(perf_counter() - t0, report, 0)
        out = self.work_dir / "out"
        t0 = perf_counter()
        csv_path, svg_path = cli.run_region(scenario, out, workers=workers)
        seconds = perf_counter() - t0
        data = Path(csv_path).read_bytes()
        return Call(seconds, data, len(data) + Path(svg_path).stat().st_size)

    def call(self, block, label, workers=None, capture=None):
        """One checked verb call; None if it raised."""
        workers = self.workload.workers if workers is None else workers
        try:
            result = self._call(block, workers)
        except Exception as exc:  # a failed run is counted, not fatal
            self.tally.record(f"{label} block {block}", [repr(exc)])
            return None
        ref = self.reference[str(block)]
        if self.workload.verb == "check":
            problems = check_self_check(result.output, self.workload, capture, ref)
        else:
            wsr, problems = check_region(result.output, self.workload, block, ref)
            self.numpy_repr_cells = max(
                self.numpy_repr_cells, result.output.count(NUMPY_REPR.encode())
            )
            self.wsr.setdefault(block, wsr)
            expected = self.expected.setdefault(block, result.output)
            if result.output != expected:
                problems.append("region.csv differs from the block's first "
                                "(workers=1) output")
        self.tally.record(f"{label} block {block}", problems)
        return result

    def checked_pass(self):
        """Untimed first pass. ``check``: capture each solve's weighted sum
        rate for the reference comparison. Pool workloads: the workers=1
        output every pooled call must reproduce byte for byte. Returns the
        workers=1 wall time per block."""
        w1_seconds = {}
        if self.workload.verb == "check":
            for block in self.blocks:
                with captured_solve_rates() as rates:
                    result = self.call(block, "capture", capture=rates)
                if result is not None:
                    self.wsr[block] = statistics.fmean(rates)
        elif self.workload.workers > 1:
            for block in self.blocks:
                result = self.call(block, "workers=1", workers=1)
                if result is not None:
                    w1_seconds[block] = result.seconds
        return w1_seconds

    def rounds(self, seconds, trace):
        """Rounds over all blocks until the next one would end after
        ``seconds``; at least one."""
        untraced, traced, layer_rounds = [], [], []
        per_block = {b: [] for b in self.blocks}
        tracer = None
        if trace:
            spool = self.work_dir / "spool"
            spool.mkdir()
            tracer = Tracer(spool)
        start = perf_counter()
        n = 0
        while True:
            trees, out_bytes = [], 0
            for block in self.blocks:
                scaled = tracer is None
                before = host_slowness() if scaled else 1.0
                result = self.call(block, f"round {n}")
                after = host_slowness() if scaled else 1.0
                if result is not None:
                    untraced.append(result.seconds)
                    per_block[block].append(result.seconds)
                    self.slowness.append((before + after) / 2)
                if tracer is None:
                    continue
                with tracer.installed():
                    result = self.call(block, f"round {n} traced")
                trees.extend(tracer.take())
                if result is not None:
                    out_bytes += result.out_bytes
                    traced.append(result.seconds)
            if tracer is not None:
                m = layer_metrics(trees, PER_LAYER_NAMES)
                m["cli.out_bytes"] = out_bytes
                m["cli.numpy_repr_cells"] = self.numpy_repr_cells
                layer_rounds.append(m)
            n += 1
            elapsed = perf_counter() - start
            if elapsed * (n + 1) / n > seconds:
                return untraced, traced, per_block, layer_rounds


def median_metrics(rounds):
    """Per-metric median over traced rounds (work counters repeat exactly,
    so their median is their value)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def run(workload, seed, seconds, trace, reference, bench_dir):
    """Measure one workload; returns ``(tally, metrics, details)``."""
    work_root = Path(bench_dir) / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        runner = Runner(workload, seed, reference, work_dir)
        w1_seconds = runner.checked_pass()
        untraced, traced, per_block, layer_rounds = runner.rounds(seconds, trace)
        # After the timed calls: a verb call that follows an interpreter
        # start-up runs about a third slower on a 2-core host.
        setup_samples, setup_slowness = [], []
        for k in range(0 if trace else SETUP_SAMPLES):
            setup_slowness.append(start_seconds(BASELINE_CODE) / BASELINE_REF_S)
            args = workload.scenario_args(runner.blocks[k % len(runner.blocks)])
            setup_samples.append(start_seconds(SETUP_CODE.format(args=args)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wsr = [runner.wsr[b] for b in runner.blocks if b in runner.wsr]
    details = {
        "blocks": runner.blocks,
        "run_s_samples": len(untraced),
        "call_seconds_by_block": per_block,
        "workers1_seconds_by_block": w1_seconds,
        "wsr_by_block": {b: runner.wsr.get(b) for b in runner.blocks},
        "problems": runner.tally.problems,
        "numpy_repr_cells_per_csv": runner.numpy_repr_cells,
    }
    metrics = {
        "run_s": scaled_median(untraced, runner.slowness) if untraced else math.nan,
        "wsr_mean_bits": statistics.fmean(wsr) if wsr else math.nan,
    }
    details["wall_run_s"] = statistics.median(untraced) if untraced else math.nan
    details["slowness"] = runner.slowness
    if setup_samples:
        metrics["setup_s"] = scaled_median(setup_samples, setup_slowness)
        details["wall_setup_s"] = statistics.median(setup_samples)
        details["setup_s_samples"] = setup_samples
        details["setup_slowness"] = setup_slowness
    if trace and layer_rounds:
        m = median_metrics(layer_rounds)
        m["trace.run_s"] = statistics.median(traced) if traced else math.nan
        untraced_sum = sum(untraced)
        m["trace.overhead_frac"] = (
            sum(traced) / untraced_sum - 1.0 if untraced_sum else math.nan
        )
        if w1_seconds:
            pooled = sum(statistics.median(per_block[b]) for b in w1_seconds)
            m["region.parallel_efficiency"] = sum(w1_seconds.values()) / (
                workload.workers * pooled
            )
        else:  # one process: the single worker is the whole run
            m["region.parallel_efficiency"] = 1.0
        details["layer_rounds"] = layer_rounds
        metrics.update(m)
    return runner.tally, metrics, details
