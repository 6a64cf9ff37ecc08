"""Batch front end: scenario files, experiment orchestration, CSV/SVG output.

Verbs:

* ``region``      -- ergodic rate-region sweep, writes region.csv + region.svg
* ``convergence`` -- outer-loop objective traces, writes convergence.csv
* ``check``       -- invariant battery over random channels, exit 1 on failure

Scenario files are flat ``key = value`` text; unknown keys are errors so a
typo cannot silently change an experiment. Every scenario key can be
overridden by an environment variable ``STNOMA_<KEY>``; explicit command-line
flags win over both. Exit codes: 0 success, 1 invariant failure, 2 invalid
scenario.
"""

import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from .power import SolverSettings, ccp_allocate, rates_and_underestimators
from .power import rate_underestimator  # noqa: F401  bench/tracing.py patches it here
from .rates import rate_user1  # noqa: F401  bench/tracing.py patches it here
from .region import RateRegionPoint, ergodic_region
from .system import Record, config_from_scenario, sample_channels
from .transceiver import PowerAllocation
from .triangularize import simultaneous_triangularize, triangularize_draws, verify_decomposition

__all__ = [
    "Scenario",
    "ScenarioError",
    "CheckReport",
    "parse_scenario",
    "load_scenario",
    "run_region",
    "run_convergence",
    "self_check",
    "main",
]

ENV_PREFIX = "STNOMA_"

# Antenna triples (m1, m2, n_bs) traced by the convergence verb.
DEFAULT_CONVERGENCE_CONFIGS = ((2, 2, 3), (3, 3, 5), (4, 4, 6))

DECOMPOSITION_TOL = 1e-9
UNDERESTIMATOR_TOL = 1e-9

# The largest trials, mu_steps and ccp_max_iters a scenario takes. They size
# arrays (a channel draw per trial, the weight grid, every solve's
# per-iteration tables), and a count above this one is refused up front
# rather than failing, or exhausting memory, once the work has started.
COUNT_MAX = 10**6


class ScenarioError(ValueError):
    """Malformed or invalid scenario input."""


class Scenario(Record):
    """Everything needed to reproduce one experiment, validated whenever it
    is built: every field of its default's type (an integer, Python or
    numpy, for an int field, any real number for a float field, never a
    bool), a valid configuration and solver settings, and every count in
    range. Each failure is a :class:`ScenarioError`."""

    _defaults = {
        "n": 5, "m1": 3, "m2": 3, "d1": 250.0, "d2": 50.0, "pathloss_exponent": 2.0,
        "pt_dbm": 30.0, "sigma2_dbm": -35.0, "trials": 100, "mu_steps": 21, "seed": 0,
        "ccp_max_iters": 10, "ccp_tol": 1e-4, "inner_max_iters": 10000,
    }
    __slots__ = tuple(_defaults)

    def __post_init__(self):
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if kind is int else numbers.Real):
                raise ScenarioError(f"bad value for {key!r}: {value!r}")
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        try:
            self.config()
            self.solver_settings()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.mu_steps < 2:
            raise ScenarioError("mu_steps must be >= 2")
        for key in ("trials", "mu_steps", "ccp_max_iters"):
            if getattr(self, key) > COUNT_MAX:
                raise ScenarioError(f"{key} must be <= {COUNT_MAX}")

    def config(self):
        return config_from_scenario(
            n_bs=self.n,
            m1=self.m1,
            m2=self.m2,
            d1=self.d1,
            d2=self.d2,
            pt_dbm=self.pt_dbm,
            sigma2_dbm=self.sigma2_dbm,
            exponent=self.pathloss_exponent,
        )

    def solver_settings(self):
        return SolverSettings(
            ccp_max_iters=self.ccp_max_iters,
            ccp_tol=self.ccp_tol,
            inner_max_iters=self.inner_max_iters,
        )

    def mu_grid(self):
        return np.arange(self.mu_steps) / (self.mu_steps - 1)

    def tau_grid(self):
        return self.mu_grid()


_FIELD_TYPES = {key: type(value) for key, value in Scenario._defaults.items()}


def _coerce(key, raw):
    try:
        return _FIELD_TYPES[key](raw)  # int or float
    except ValueError as exc:
        raise ScenarioError(f"bad value for {key!r}: {raw!r}") from exc


def _parse_values(text):
    """The ``{key: value}`` of flat ``key = value`` scenario text."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def _env_values(environ):
    """The ``{key: value}`` of the ``STNOMA_<KEY>`` variables of ``environ``
    (default: ``os.environ``)."""
    environ = os.environ if environ is None else environ
    names = {key: ENV_PREFIX + key.upper() for key in _FIELD_TYPES}
    return {key: _coerce(key, environ[name]) for key, name in names.items() if name in environ}


def parse_scenario(text):
    """Parse flat ``key = value`` scenario text. Unknown keys are errors."""
    return Scenario(**_parse_values(text))


def apply_env_overrides(scenario, environ=None):
    """Apply ``STNOMA_<KEY>`` environment overrides to a scenario."""
    return scenario.replace(**_env_values(environ))


def load_scenario(path=None, environ=None, **cli_overrides):
    """Scenario from file (optional), environment, then CLI flag overrides,
    built and so validated once, from all three: bad inputs fail before any
    work happens."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        values = _parse_values(text)
    values.update(_env_values(environ))
    values.update((k, v) for k, v in cli_overrides.items() if v is not None)
    return Scenario(**values)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


# --- minimal SVG plotting (no plotting dependency) -------------------------

_SCHEME_STYLE = {
    "st_noma": ("#1f77b4", "proposed NOMA"),
    "oma": ("#d62728", "OMA time sharing"),
    "hybrid": ("#2ca02c", "hybrid"),
    "p2p_user1": ("#7f7f7f", "p2p user 1"),
    "p2p_user2": ("#4d4d4d", "p2p user 2"),
    "overlay": ("#9467bd", "overlay"),
}


def read_overlay_points(path):
    """Rate pairs from an external CSV (e.g. a bound computed elsewhere).

    The header must contain ``R1`` and ``R2`` columns; everything else is
    ignored. The rates must be finite and nonnegative.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read overlay {path}: {exc}") from exc
    if not lines:
        raise ScenarioError(f"overlay {path} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        i1, i2 = header.index("R1"), header.index("R2")
    except ValueError as exc:
        raise ScenarioError(f"overlay {path} needs R1 and R2 columns") from exc
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            point = float(cells[i1]), float(cells[i2])
        except (IndexError, ValueError) as exc:
            raise ScenarioError(f"overlay {path} line {lineno}: {exc}") from exc
        # written so that NaN fails
        if not all(0.0 <= rate < math.inf for rate in point):
            raise ScenarioError(
                f"overlay {path} line {lineno}: rates must be finite and >= 0"
            )
        points.append(point)
    return points


def _svg_region_plot(path, points_by_scheme):
    width, height = 640, 480
    ml, mr, mt, mb = 62, 16, 20, 46
    xs = [p.r1 for pts in points_by_scheme.values() for p in pts]
    ys = [p.r2 for pts in points_by_scheme.values() for p in pts]
    xmax = max(xs + [1e-9]) * 1.05
    ymax = max(ys + [1e-9]) * 1.05

    def sx(x):
        return ml + x / xmax * (width - ml - mr)

    def sy(y):
        return height - mb - y / ymax * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    axis = (
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>'
    )
    parts.append(axis)
    for i in range(6):
        xv = xmax * i / 5
        yv = ymax * i / 5
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{height - mb}" x2="{sx(xv):.2f}" '
            f'y2="{height - mb + 4}" stroke="black"/>'
            f'<text x="{sx(xv):.2f}" y="{height - mb + 16}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 4}" y1="{sy(yv):.2f}" x2="{ml}" y2="{sy(yv):.2f}" '
            f'stroke="black"/>'
            f'<text x="{ml - 7}" y="{sy(yv) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">user 1 rate (bits/channel use)</text>'
    )
    parts.append(
        f'<text x="14" y="{(mt + height - mb) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{(mt + height - mb) / 2:.2f})">user 2 rate (bits/channel use)</text>'
    )

    legend_y = mt + 10
    for scheme, pts in points_by_scheme.items():
        if not pts:
            continue
        color, label = _SCHEME_STYLE.get(scheme, ("#000000", scheme))
        coords = sorted((p.r1, p.r2) for p in pts)
        if len(coords) > 1:
            path_pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in coords)
            parts.append(
                f'<polyline points="{path_pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for x, y in coords:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<rect x="{width - mr - 170}" y="{legend_y - 9}" width="10" '
            f'height="10" fill="{color}"/>'
            f'<text x="{width - mr - 155}" y="{legend_y}" font-size="12">'
            f"{label}</text>"
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")


# --- verbs ------------------------------------------------------------------


def _output_dir(path):
    """``path`` made a directory, before any work; a path that cannot be
    one (under or at a file, say) is a :class:`ScenarioError`."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {path}: {exc.strerror or exc}")
    return path


def run_region(scenario, out_dir, workers=1, overlay_csv=None):
    """Rate-region sweep; writes ``region.csv`` and ``region.svg``.

    ``overlay_csv`` adds externally computed rate pairs (a bound from
    another tool, say) to the plot only; the written CSV stays pure. It is
    read before the sweep, so a bad file fails before any work.
    """
    cfg = scenario.config()
    settings = scenario.solver_settings()
    overlay = [] if overlay_csv is None else read_overlay_points(overlay_csv)
    out_dir = _output_dir(out_dir)
    points = ergodic_region(
        cfg,
        scenario.mu_grid(),
        scenario.tau_grid(),
        scenario.trials,
        scenario.seed,
        settings=settings,
        workers=workers,
    )
    rows = []
    for scheme in ("st_noma", "oma", "p2p_user1", "p2p_user2", "hybrid"):
        for p in points[scheme]:
            rows.append((p.scheme, p.param, p.r1, p.r2, p.trials, scenario.seed))
    csv_path = out_dir / "region.csv"
    _write_csv(csv_path, ("scheme", "param", "R1", "R2", "trials", "seed"), rows)
    plot_points = dict(points)
    plot_points["overlay"] = [
        RateRegionPoint(r1=r1, r2=r2, scheme="overlay", param=None, trials=0)
        for r1, r2 in overlay
    ]
    svg_path = out_dir / "region.svg"
    _svg_region_plot(svg_path, plot_points)
    return csv_path, svg_path


def run_convergence(scenario, out_dir):
    """Outer-loop objective traces at mu = 0.5; writes ``convergence.csv``.

    One seeded channel per antenna triple ``(m1, m2, n)`` of
    ``DEFAULT_CONVERGENCE_CONFIGS``; at most ``ccp_max_iters`` rows per
    configuration. A ``ValueError`` (a non-generic draw or a non-finite
    decomposition, say) is re-raised naming the seed and the configuration.
    """
    settings = scenario.solver_settings()
    out_dir = _output_dir(out_dir)
    rows = []
    for index, (m1, m2, n_bs) in enumerate(DEFAULT_CONVERGENCE_CONFIGS):
        cfg = scenario.replace(n=n_bs, m1=m1, m2=m2).config()
        label = f"{m1}x{m2}x{n_bs}"
        rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, index]))
        try:
            dec = simultaneous_triangularize(sample_channels(rng, n_bs, m1, m2))
            nonfinite = dec.non_finite_factors()
            if nonfinite:
                raise ValueError(f"decomposition not finite in {', '.join(nonfinite)}")
            _, state = ccp_allocate(dec, cfg, mu=0.5, settings=settings)
        except ValueError as exc:
            raise ValueError(f"seed {scenario.seed}, config {label}: {exc}") from exc
        for i, value in enumerate(state.objective_trace, start=1):
            rows.append((label, i, float(value)))
    csv_path = out_dir / "convergence.csv"
    _write_csv(csv_path, ("config", "iteration", "weighted_sum_rate"), rows)
    return (csv_path,)


class CheckReport(Record, frozen=False):
    """Outcome of the invariant battery."""

    __slots__ = ("trials", "failures")

    @property
    def ok(self):
        return not self.failures


def _random_feasible_allocation(rng, dims, budget):
    weights = rng.random(2 * dims.total)
    weights /= weights.sum()
    scale = rng.random() * budget
    p1, p2 = weights[: dims.total] * scale, weights[dims.total :] * scale
    # zero on the other user's private streams
    return PowerAllocation(*dims.unpack(dims.pack(p1, p2)))


def self_check(scenario, corrupt=None):
    """Invariant battery over ``scenario.trials`` random channels.

    Checks decomposition residuals, the surrogate underestimator property,
    and feasibility of the optimized allocation. Every trial's channels,
    random allocation and anchor are drawn first, in trial order, and one
    stacked pass decomposes them all; user 1's rates and the underestimators
    are computed over the rows of every trial that decomposed, and each
    trial's allocation is then solved and validated on its own. Failures
    are listed in trial order. A non-generic draw, which has no
    decomposition, and a decomposition with a non-finite entry fail by name,
    and the trial's other checks, which cannot run on them, are skipped. A
    trial whose stream gains the rate formulas refuse fails by name in its
    solve; the underestimators of every trial are skipped then. The
    ``corrupt`` hook, if given, mangles each decomposition before checking
    and exists for testing the detector itself.
    """
    cfg = scenario.config()
    settings = scenario.solver_settings()
    dims = cfg.dims
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 997]))
    chs, allocs, anchors = [], [], []
    for trial in range(scenario.trials):
        trial_rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, trial])
        )
        chs.append(sample_channels(trial_rng, cfg.n_bs, cfg.m1, cfg.m2))
        # drawn before any skip, so that later trials keep their draws
        allocs.append(_random_feasible_allocation(rng, dims, cfg.power_budget))
        anchors.append(rng.random(dims.shared) * cfg.power_budget / max(1, dims.shared))

    failures = [[] for _ in chs]  # per trial
    decs = {}  # of the trials that decomposed, in trial order
    for trial, dec in enumerate(triangularize_draws(chs)):
        if isinstance(dec, ValueError):  # a non-generic draw
            failures[trial].append(f"trial {trial}: decomposition: {dec}")
            continue
        if corrupt is not None:
            dec = corrupt(dec)
        nonfinite = dec.non_finite_factors()
        if nonfinite:
            # no residual, rate or solve is defined on it
            failures[trial].append(
                f"trial {trial}: decomposition not finite in {', '.join(nonfinite)}"
            )
            continue
        decs[trial] = dec
    if decs:
        try:
            r1, under = rates_and_underestimators(
                [allocs[t] for t in decs], [anchors[t] for t in decs], list(decs.values()), cfg
            )
        except ValueError:
            # gains the rate formulas refuse; the solve of each such trial
            # fails by name below
            r1 = under = np.zeros((len(decs), 0))

    for row, (trial, dec) in enumerate(decs.items()):
        report = verify_decomposition(dec, chs[trial])
        for name, value in report.failures(DECOMPOSITION_TOL).items():
            failures[trial].append(f"trial {trial}: decomposition {name} = {value:.3e}")
        for l, (bound, rate) in enumerate(zip(under[row], r1[row])):  # shared streams
            # written so that NaN fails
            if not bound <= rate + UNDERESTIMATOR_TOL:
                failures[trial].append(
                    f"trial {trial}: underestimator above rate on stream {l} "
                    f"by {bound - rate:.3e}"
                )
        try:
            opt, _ = ccp_allocate(dec, cfg, mu=0.5, settings=settings)
            opt.validate(dims, cfg.power_budget)
        except (ValueError, AssertionError) as exc:
            failures[trial].append(f"trial {trial}: power allocation: {exc}")
    return CheckReport(trials=scenario.trials, failures=[f for fs in failures for f in fs])


# --- argument parsing ---------------------------------------------------------

# The verbs that read each flag; any other verb rejects it with exit code 2.
_FLAGS = {
    "--scenario": ("region convergence check",
                   dict(help="scenario file (flat key = value text)")),
    "--seed": ("region convergence check",
               dict(type=int, help="override the scenario seed")),
    "--out": ("region convergence", dict(default=".", help="output directory")),
    "--trials": ("region check",
                 dict(type=int, help="override the scenario trial count")),
    "--mu-steps": ("region", dict(type=int, help="override the rate-weight grid size")),
    "--workers": ("region", dict(
        type=int, default=1,
        help="most worker processes for the trials (>= 1); the pool holds at "
             "most one per usable CPU and per two trials",
    )),
    "--overlay": ("region", dict(
        help="CSV with R1,R2 columns to draw on top of the region plot"
    )),
}


def main(argv=None):
    import argparse  # only the command line needs it, not ``import stnoma``

    parser = argparse.ArgumentParser(
        prog="stnoma",
        description="Two-user downlink MIMO-NOMA precoding experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parsers = {verb: sub.add_parser(verb) for verb in ("region", "convergence", "check")}
    for flag, (verbs, kwargs) in _FLAGS.items():
        for verb in verbs.split():
            parsers[verb].add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    try:
        if args.verb == "region" and args.workers < 1:
            raise ScenarioError("workers must be >= 1")
        scenario = load_scenario(
            args.scenario,
            seed=args.seed,
            trials=getattr(args, "trials", None),
            mu_steps=getattr(args, "mu_steps", None),
        )
        if args.verb == "region":
            paths = run_region(
                scenario, args.out, workers=args.workers, overlay_csv=args.overlay
            )
        elif args.verb == "convergence":
            paths = run_convergence(scenario, args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a draw that fails once the work has started
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.verb != "check":
        for p in paths:
            print(p)
        return 0
    report = self_check(scenario)
    for failure in report.failures:
        print(failure)
    print(
        f"checked {report.trials} channels: "
        + ("all invariants hold" if report.ok else f"{len(report.failures)} failures")
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
