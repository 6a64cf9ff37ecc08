"""Spans and work counters recorded from outside the program.

The tracer replaces each traced function at the module attribute its caller
looks up (``stnoma.region.ccp_allocate``, not ``stnoma.power.ccp_allocate``)
with a wrapper that records a span ``[name, start, end, parent, counters]``.
Spans stay in memory until the verb call returns.

``region``'s worker pool forks after the wrappers are installed, so workers
trace too: a worker writes each finished top-level span tree as one JSON
line to ``<spool_dir>/<pid>.jsonl``, and the parent collects those lines
after the call.
"""

import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from stnoma.power import SolverSettings

# (span name, owner, attribute). The owner is the caller's namespace, or
# "module:Class" for a method.
TRACE_POINTS = (
    ("cli.run_region", "stnoma.cli", "run_region"),
    ("cli.self_check", "stnoma.cli", "self_check"),
    ("region.ergodic_region", "stnoma.cli", "ergodic_region"),
    # One pool task; also where a worker hands its spans back.
    ("region.trial", "stnoma.region", "_trial_point"),
    ("region.p2p_capacity", "stnoma.region", "p2p_capacity"),
    ("power.ccp_allocate", "stnoma.region", "ccp_allocate"),
    ("power.ccp_allocate", "stnoma.cli", "ccp_allocate"),
    ("power.maximize_surrogate", "stnoma.power", "maximize_surrogate"),
    ("power.rate_underestimator", "stnoma.cli", "rate_underestimator"),
    ("rates.weighted_sum_rate", "stnoma.power", "weighted_sum_rate"),
    ("rates.rate_user", "stnoma.region", "rate_user1"),
    ("rates.rate_user", "stnoma.region", "rate_user2"),
    ("rates.rate_user", "stnoma.cli", "rate_user1"),
    ("rates.rate_user", "stnoma.rates", "rate_user1"),
    ("rates.rate_user", "stnoma.rates", "rate_user2"),
    ("transceiver.validate", "stnoma.transceiver:PowerAllocation", "validate"),
    ("triangularize.simultaneous_triangularize", "stnoma.region",
     "simultaneous_triangularize"),
    ("triangularize.simultaneous_triangularize", "stnoma.cli",
     "simultaneous_triangularize"),
    ("triangularize.verify_decomposition", "stnoma.cli", "verify_decomposition"),
    ("linalg.qr_real_diag", "stnoma.triangularize", "qr_real_diag"),
    ("linalg.null_space_basis", "stnoma.triangularize", "null_space_basis"),
    ("linalg.joint_null_space", "stnoma.triangularize", "joint_null_space"),
    ("system.sample_channels", "stnoma.region", "sample_channels"),
    ("system.sample_channels", "stnoma.cli", "sample_channels"),
)

LAYERS = ("system", "linalg", "triangularize", "transceiver", "rates", "power",
          "region", "cli")

NAME, START, END, PARENT, COUNTERS = range(5)
SPAN_STATS = ("calls", "busy_s", "self_s", "p50_ms", "p90_ms")


def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def patched(points, make_wrapper):
    """Replace each ``(name, owner, attribute)`` with
    ``make_wrapper(name, original)`` and restore the originals on exit."""
    saved = []
    try:
        for name, spec, attr in points:
            owner = _owner(spec)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def captured_solve_rates():
    """Collect the final weighted sum rate of every ``ccp_allocate`` call
    ``self_check`` makes."""
    rates = []

    def wrap(name, fn):
        def capture(*args, **kwargs):
            alloc, state = fn(*args, **kwargs)
            rates.append(float(state.objective_trace[-1]))
            return alloc, state

        return capture

    with patched([("capture", "stnoma.cli", "ccp_allocate")], wrap):
        yield rates


def ccp_counters(state, settings):
    """Work counters of one ``ccp_allocate`` call from its ``CcpState``."""
    inner = state.inner_results
    return {
        "outer": state.iterations,
        "converged": bool(state.converged),
        "capped": (not state.converged)
        and state.iterations >= settings.ccp_max_iters,
        "inner": sum(r.iterations for r in inner),
        "solves": len(inner),
        "inner_converged": sum(bool(r.converged) for r in inner),
        "residual_max": max((float(r.residual) for r in inner), default=0.0),
    }


class Tracer:
    """Records spans of every traced call made while it is installed."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.spans = []
        self.stack = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                # A forked pool worker: drop the parent's spans.
                self.pid = os.getpid()
                self.spans, self.stack = [], []
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self.stack.pop()
            if name == "power.ccp_allocate":
                settings = kwargs.get("settings") or SolverSettings()
                span[COUNTERS] = ccp_counters(result[1], settings)
            if not self.stack and self.pid != self.owner_pid:
                with open(self.spool_dir / f"{self.pid}.jsonl", "a") as f:
                    f.write(json.dumps(self.spans) + "\n")
                self.spans = []
            return result

        return traced

    @contextmanager
    def installed(self):
        with patched(TRACE_POINTS, self._wrap):
            yield self

    def take(self):
        """Span trees recorded since the last call: this process's spans,
        then one tree per top-level span a pool worker finished."""
        trees = [self.spans] if self.spans else []
        self.spans = []
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            trees.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return trees


def _self_times(tree):
    child = [0.0] * len(tree)
    for span in tree:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(tree, child)]


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def _span_stat(durations, own, stat):
    if stat == "calls":
        return len(durations)
    if stat == "busy_s":
        return sum(durations)
    if stat == "self_s":
        return sum(own)
    q = {"p50_ms": 50, "p90_ms": 90}[stat]
    return 1e3 * _percentile(durations, q) if durations else 0.0


def layer_metrics(trees, names):
    """The metrics in ``names`` that one traced round's span trees give.

    ``<layer>.<function>.<stat>`` is a statistic of that function's spans:
    ``calls``, ``busy_s`` (summed durations), ``self_s`` (durations minus
    the part child spans cover), ``p50_ms`` or ``p90_ms``.
    ``<layer>.self_s`` sums the self times of the layer's spans. With a
    worker pool, times add up over processes. ``power.*`` work counters come
    from the ``CcpState`` each ``ccp_allocate`` returns.
    """
    durations, own = defaultdict(list), defaultdict(list)
    layer_self = defaultdict(float)
    ccp = []
    for tree in trees:
        for span, self_time in zip(tree, _self_times(tree)):
            durations[span[NAME]].append(span[END] - span[START])
            own[span[NAME]].append(self_time)
            layer_self[span[NAME].split(".", 1)[0]] += self_time
            if span[COUNTERS] is not None:
                ccp.append(span[COUNTERS])

    def total(key):
        return sum(c[key] for c in ccp)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = total("solves")
    m = {
        "power.outer_iters": total("outer"),
        "power.inner_iters": total("inner"),
        "power.inner_iters_per_solve": ratio(total("inner"), solves),
        "power.ccp_converged_frac": ratio(total("converged"), len(ccp)),
        "power.ccp_capped_frac": ratio(total("capped"), len(ccp)),
        "power.inner_converged_frac": ratio(total("inner_converged"), solves),
        "power.inner_residual_max": max(
            (c["residual_max"] for c in ccp), default=0.0
        ),
    }
    for name in names:
        head, _, stat = name.rpartition(".")
        if head in LAYERS and stat == "self_s":
            m[name] = layer_self[head]
        elif head not in LAYERS and stat in SPAN_STATS:
            m[name] = _span_stat(durations[head], own[head], stat)
    return m
