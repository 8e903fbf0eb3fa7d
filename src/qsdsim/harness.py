"""Config-driven experiment runner tying the approximation methods together.

Experiments are described by a small line-based config (versioned header,
``key = value`` pairs, one ``[section]`` per method), dispatched to the
method runners, and written as CSV/JSON files with fixed column orders and
LF endings so that a rerun with the same seed is byte-identical.  Wall-clock
data lives only in the summary sidecar.

Every run parameter is declared once, in :data:`PARAMS`.  The CLI builds its
options from that table, and :func:`read_params` reads a config through it,
from the CLI or a file alike, before any work.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, make_dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .afp import afp_run
from .branching import certifies_supercritical, ks_estimate
from .chain import AbsorbedChainModel, Distribution, tv_distance
from .conditioned import evolve_conditioned
from .errors import ConfigInvalid, DegenerateInput, QsdError, RateTooSmall
from .fv import fv_run, fv_stationary
# perfbench/spans.py wraps uniformize and the solvers by their names in this module
from .models import WINDOW_MAX_STATES, resolve_model, uniformization_rate, uniformize
from .oracle import minimal_qsd_reference, solve_qsd_discrete, solve_qsd_power
from .returnproc import coupled_tagged_run, phi_iterate
from .rng import RngStream

CONFIG_HEADER = "qsdconfig v1"

# Cost bounds, each well above every value the tests, demos, README and
# benchmark use.  Times are for one core of a 2-vCPU x86-64 machine.
# an fv run keeps one measure per sample time and replica
FV_MAX_SAMPLES = 10**6
# a conditioned or couple path keeps one law of the window per snapshot
PATH_MAX_FLOATS = 10**7
# particles live in memory: 10^6 of them take about 120 MB in fv, 270 MB in couple
FV_MAX_PARTICLES = 10**6
# afp keeps one history entry per step: 10^7 steps take about 110 MB and 7 s
AFP_MAX_STEPS = 10**7
# each uniformization step is a series of matvecs on the window: 10^6 steps
# take about 3 s on two-state and 13 s on a 200-state window
CONDITIONED_MAX_STEPS = 10**6
# every replica's result is held until the run writes
MAX_REPLICAS = 10**6
# units of particle time: 10^7 take about 20 s on two-state, 60 s on bd:1,2,50
FV_MAX_PARTICLE_TIME = 10**7
# events of branching attempts, at most cap x horizon each: 10^9 take about 5 min
BRANCH_MAX_EVENTS = 10**9
# phi keeps a log float and a phi.csv row per iteration: 10^6 peak at 190 MB
PHI_MAX_ITERS = 10**6
# a Phi step costs 0.2-0.4 us per window state: 10^8 state-steps take 20-40 s
PHI_MAX_STATE_STEPS = 10**8
# the dense n x n means, and 1024 offspring rows of n counts per type visited:
# a long branch run on a 200-state cycle peaks at about 370 MB
BRANCH_MAX_TYPES = 200
# the products of run values (a list summed) that bound each method's work
_FV_WORK = (("particles", "horizon", "replicas"), FV_MAX_PARTICLE_TIME)
WORK_BOUNDS = {
    "fv": [_FV_WORK], "couple": [_FV_WORK], "scan": [_FV_WORK],
    "branch": [(("cap", "horizon", "replicas"), BRANCH_MAX_EVENTS)],
    "report": [(("fv_particles", "fv_horizon"), FV_MAX_PARTICLE_TIME),
               (("branch_cap", "branch_horizon", "branch_attempts"), BRANCH_MAX_EVENTS)],
}


def worker_count() -> int:
    """Replicas run on one thread.  Kept because perfbench/run.py records it as a run fact."""
    return 1


def map_replicas(fn, n: int):
    """fn(0), ..., fn(n-1) in index order; each replica derives its stream from its index.

    One named step so that perfbench/spans.py can wrap it to count replicas.
    """
    return [fn(i) for i in range(n)]


# -- config ------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Parsed experiment description: method, model, seed, per-method params."""

    method: str
    model: str
    seed: int
    replicas: int = 1
    params: dict[str, str] = field(default_factory=dict)


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One run parameter: its key, reader, default, allowed range and help line.

    ``cast`` reads the raw text and raises ValueError (the model reader also
    OSError or a QsdError) on text it cannot read.  ``default`` is REQUIRED,
    a value (None: the runner goes without), or a function of the values read
    without one.  Each number read, each entry of a list too, must be finite
    and lie in [low, high], or in (low, high] when ``above``.
    """

    key: str
    cast: Callable
    default: object
    help: str
    low: float = -math.inf
    high: float = math.inf
    above: bool = False

    def bounds(self, finite: bool) -> str:
        words = ["finite"] if finite else []
        if self.low == 0:
            words.append("positive" if self.above else "non-negative")
        elif self.low > -math.inf:
            words.append(f"{'above' if self.above else 'at least'} {self.low}")
        if self.high < math.inf:
            words.append(f"at most {self.high}")
        return " and ".join(words)

    def cast_text(self, raw):
        try:
            return self.cast(raw)
        except (ValueError, OSError, QsdError) as exc:
            raise ConfigInvalid([f"{self.key}: {exc}"]) from None

    def check(self, value, shown):
        """``value``, or ConfigInvalid when a number in it is out of range."""
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, (int, float)) and not (math.isfinite(x) and x <= self.high and (
                    self.low < x if self.above else self.low <= x)):
                raise ConfigInvalid([f"{self.key}: must be {self.bounds(isinstance(x, float))},"
                                     f" got {shown}"])
        return value


def parse_distribution(text: str) -> Distribution:
    """Initial-law syntax ``LAW_HELP``: delta:x, uniform:a-b, or x:mass comma pairs (each
    state once).  A malformed law raises ValueError naming its wrong part and the syntax."""
    text = text.strip()

    def read(part: str, what: str, sep: str | None = None, cast=int):
        """``part`` as an int, or split at ``sep`` into an int and a ``cast``."""
        try:
            if sep is None:
                return int(part)
            x, y = part.split(sep)
            return int(x), cast(y)
        except ValueError:
            raise ValueError(f"{part!r} is not {what} ({LAW_HELP})") from None

    if text.startswith("delta:"):
        return Distribution.delta(read(text[6:], "a state x"))
    if text.startswith("uniform:"):
        a, b = read(text[8:], "a state range a-b", "-")
        if not 0 <= b - a < WINDOW_MAX_STATES:
            raise ValueError(f"{text} must hold 1 to {WINDOW_MAX_STATES} states ({LAW_HELP})")
        return Distribution.uniform(range(a, b + 1))
    pairs = {}
    for item in text.split(","):
        x, mass = read(item, "a pair x:m", ":", float)
        if x in pairs:
            raise ValueError(f"state {x} is given more than once")
        pairs[x] = mass
        if not 0.0 <= mass < math.inf:
            raise ValueError(f"state {x} has mass {mass}; masses must be finite and >= 0")
    return Distribution.from_weights(pairs)


LAW_HELP = "initial law: delta:x | uniform:a-b | x:m,y:m"
COMMON = (
    # resolve_model is looked up at each call, so perfbench/spans.py can wrap it
    Param("model", lambda text: resolve_model(text), REQUIRED,
          "point | two-state | bd:p,q[,K] | gw:b,d | file:PATH"),
    Param("seed", int, 0, "root seed of every random stream", low=0),
    Param("replicas", int, ExperimentConfig.replicas, "independent replicas", low=1,
          high=MAX_REPLICAS),
)
_HORIZON = Param("horizon", float, REQUIRED, "time horizon", low=0, above=True)
_TRUNC = Param("trunc", int, lambda v: max(v["model"].states) if v["model"].states else None,
               "keep states up to this id; default the finite model's own window",
               low=1, high=WINDOW_MAX_STATES)
_PARTICLES = Param("particles", int, REQUIRED, "particles", low=2, high=FV_MAX_PARTICLES)
_INIT = Param("init", parse_distribution, REQUIRED, LAW_HELP)

# Every method's own parameters; a method's run also reads COMMON, and a key
# of both takes the method's entry.
PARAMS: dict[str, tuple[Param, ...]] = {
    "oracle": (
        _TRUNC,
        Param("tol", float, 1e-12, "inverse-iteration stop tolerance on the TV step and "
              "eigenvalue drift; windows that are two-way paths (every builtin chain) are "
              "solved directly and ignore it", low=0, above=True),
    ),
    "conditioned": (
        _INIT,
        _HORIZON,
        Param("dt", float, None, "uniformization step, each checked for mass near the cut; "
              "at most, and by default, 0.1 over the window's largest total rate",
              low=0, above=True),
        _TRUNC,
        Param("grid", float, lambda v: v["horizon"] / 50,
              "time between recorded laws; default horizon / 50", low=0, above=True),
    ),
    "fv": (
        _PARTICLES,
        _HORIZON,
        Param("burnin", float, 0.0, "burn-in; above 0 the run is stationary and time-averaged",
              low=0),
        Param("grid", float, lambda v: v["horizon"] / 20,
              "time between samples of a fixed-time run (burnin 0), which alone takes it;"
              " default horizon / 20", low=0, above=True),
        Param("init", parse_distribution, None, LAW_HELP + "; a fixed-time run needs one"),
        _TRUNC,
    ),
    "phi": (
        _INIT,
        Param("iters", int, 200, "most fixed-point iterations", low=1, high=PHI_MAX_ITERS),
        Param("tol", float, 1e-10, "stop once the TV between iterates is below this",
              low=0, above=True),
    ),
    "afp": (
        Param("steps", int, REQUIRED, "renewal steps", low=1, high=AFP_MAX_STEPS),
        Param("start", int, REQUIRED, "start state", low=1),
        Param("uniformization-rate", float, None,
              "uniformization rate; default 1.05 x the window's largest total rate",
              low=0, above=True),
        _TRUNC,
        # checkpoint k is max(1, steps >> k), so past steps' 64 bits more add nothing
        Param("checkpoints", int, 4, "TV checkpoints, at steps, steps/2, steps/4, ...",
              low=1, high=64),
    ),
    "branch": (
        # offspring counts are Poisson of mean up to alpha + 1, which numpy
        # refuses above about 9.2e18
        Param("alpha", lambda text: text if text == "auto" else float(text), "auto",
              "shift of the mean matrix: a number, or auto", high=1e18),
        _HORIZON,
        # down-sampling keeps cap // 2 individuals, so a smaller cap empties the population
        Param("cap", int, 10**5, "population cap", low=2),
    ),
    "couple": (
        _PARTICLES,
        _HORIZON,
        Param("init", parse_distribution,
              lambda v: Distribution.delta(v["model"].states[0]) if v["model"].states else None,
              LAW_HELP + "; default a point mass at the first state"),
    ),
    "scan": (
        Param("particles", lambda text: [int(n) for n in text.split(",")], REQUIRED,
              "comma list, e.g. 50,200,800",
              low=2, high=FV_MAX_PARTICLES),
        _HORIZON,
        _INIT,
        Param("state", int, None, "probed state; default the first state the reference "
              "law charges", low=1),
        _TRUNC,
        # the sample standard error (ddof=1) needs two replicas
        replace(COMMON[2], help="replicas per N", low=2),
    ),
    "report": (
        Param("fv_particles", int, 400, "stationary FV particles", low=2, high=FV_MAX_PARTICLES),
        Param("fv_burnin", float, 10.0, "stationary FV burn-in, below fv_horizon", low=0),
        Param("fv_horizon", float, 110.0, "stationary FV horizon", low=0, above=True),
        Param("phi_iters", int, 200, "most phi iterations", low=1, high=PHI_MAX_ITERS),
        Param("afp_steps", int, 200_000, "afp renewal steps", low=1, high=AFP_MAX_STEPS),
        Param("branch_horizon", float, 12.0, "branching horizon", low=0, above=True),
        Param("branch_cap", int, 50_000, "branching population cap", low=2),
        Param("branch_attempts", int, 30, "branching attempts", low=1),
    ),
}
ReportBudget = make_dataclass(
    "ReportBudget", [(p.key, p.cast, field(default=p.default)) for p in PARAMS["report"]],
    namespace={"__module__": __name__,
               "__doc__": "Per-method effort knobs for the cross-method comparison."},
)
METHODS = tuple(PARAMS)
TOP_KEYS = ("method", *(p.key for p in COMMON))


def method_params(method: str) -> tuple[Param, ...]:
    """COMMON then the method's own parameters, its own entry winning on a shared key."""
    table = {p.key: p for p in COMMON}
    table.update((p.key, p) for p in PARAMS[method])
    return tuple(table.values())


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-based config format; problems raise ConfigInvalid.

    The top level takes ``method`` and the COMMON keys, and only the method's
    own section is kept.  Ranges and the section's keys are left to
    :func:`read_params`.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    problems: list[str] = []
    if not lines or lines[0] != CONFIG_HEADER:
        raise ConfigInvalid([f"first line must be '{CONFIG_HEADER}'"])
    top: dict[str, str] = {}
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            name = ln[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in ln:
            problems.append(f"not a key = value line: {ln!r}")
            continue
        key, val = (part.strip() for part in ln.split("=", 1))
        (top if current is None else current)[key] = val
    problems += [f"{key}: unknown key" for key in top if key not in TOP_KEYS]
    method = top.get("method")
    if method is None:
        problems.append("missing key: method")
    elif method not in METHODS:
        problems.append(f"unknown method {method!r}")
    if "model" not in top:
        problems.append("missing key: model")
    else:
        try:
            COMMON[0].cast_text(top["model"])
        except ConfigInvalid as exc:
            problems += exc.problems
    if "seed" not in top:
        problems.append("missing key: seed (seeds are mandatory)")
    if problems:
        raise ConfigInvalid(problems)
    return config_from_text(method, top, dict(sections.get(method, {})))


def config_from_text(method: str, top: dict[str, str], params: dict[str, str]) -> ExperimentConfig:
    """The config of raw top-level values and method params: COMMON casts the seed and replicas."""
    cast = {p.key: p.cast_text(top[p.key]) if p.key in top else p.default for p in COMMON[1:]}
    return ExperimentConfig(method, top["model"], params=params, **cast)


def emit_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config on recognized fields."""
    out = [CONFIG_HEADER]
    out.append(f"method = {cfg.method}")
    out.append(f"model = {cfg.model}")
    out.append(f"seed = {cfg.seed}")
    out.append(f"replicas = {cfg.replicas}")
    if cfg.params:
        out.append(f"[{cfg.method}]")
        for key in sorted(cfg.params):
            out.append(f"{key} = {cfg.params[key]}")
    return "\n".join(out) + "\n"


def read_params(cfg: ExperimentConfig) -> dict:
    """Every value of the run, typed, defaulted and range-checked, before any work.

    Returns the values by key, the model resolved, or raises ConfigInvalid
    naming each problem: an unknown method or key, a missing, unreadable or
    out-of-range value, and values that cannot run together.
    """
    if cfg.method not in PARAMS:
        raise ConfigInvalid([f"unknown method {cfg.method!r}"])
    table = method_params(cfg.method)
    own = {p.key for p in table} - set(TOP_KEYS)
    problems = [f"{key}: unknown key in [{cfg.method}]" for key in cfg.params if key not in own]
    raw = {**cfg.params, "model": cfg.model, "seed": cfg.seed, "replicas": cfg.replicas}
    v = {}
    for p in table:
        if p.key in raw:
            try:
                v[p.key] = p.check(p.cast_text(raw[p.key]), raw[p.key])
            except ConfigInvalid as exc:
                problems += exc.problems
        elif p.default is REQUIRED:
            problems.append(f"missing parameter {p.key!r}")
        elif not callable(p.default):
            v[p.key] = p.default
    if problems:
        raise ConfigInvalid(problems)
    for p in table:
        if p.key not in v:
            value = p.default(v)
            v[p.key] = p.check(value, f"{value} by default")
    problems = _cannot_run_together(cfg, v)
    if problems:
        raise ConfigInvalid(problems)
    return v


def _cannot_run_together(cfg: ExperimentConfig, v: dict) -> list[str]:
    """The problems of values that each lie in range but cannot run together."""
    model, method = v["model"], cfg.method
    problems = []
    if not model.is_finite and v.get("trunc") is None and method != "fv":
        problems.append(
            f"model: an infinite model needs an explicit truncation; {method} takes a finite"
            f" window such as bd:p,q,K{', or a trunc' if 'trunc' in v else ''}"
        )
    if method == "fv":
        if v["horizon"] <= v["burnin"]:
            problems.append("horizon: a stationary fv run needs horizon > burnin")
        if v["burnin"] == 0.0 and v["init"] is None:
            problems.append("init: a fixed-time fv run (burnin 0) needs an initial law")
        if v["burnin"] > 0.0 and "grid" in cfg.params:
            problems.append("grid: a stationary fv run (burnin > 0) keeps no samples;"
                            " only a fixed-time run takes a grid")
        elif v["burnin"] == 0.0 and v["horizon"] * v["replicas"] > FV_MAX_SAMPLES * v["grid"]:
            problems.append(
                f"grid: horizon / grid x replicas = {v['horizon'] / v['grid'] * v['replicas']:.3g}"
                f" sample times, above {FV_MAX_SAMPLES:.0e}; each keeps one measure"
            )
    if method == "scan" and len(set(v["particles"])) < 2:
        problems.append(f"particles: a rate fit needs two distinct N, got {v['particles']}")
    if method == "report" and v["fv_burnin"] >= v["fv_horizon"]:
        problems.append(f"fv_burnin: must be below fv_horizon = {v['fv_horizon']:g},"
                        f" got {v['fv_burnin']:g}")
    for keys, bound in WORK_BOUNDS.get(method, ()):
        amount = math.prod(sum(v[k]) if isinstance(v[k], list) else v[k] for k in keys)
        if amount > bound:
            problems.append(f"{keys[0]}: {' x '.join(keys)} = {amount:.3g}, above {bound:.0e}")
    # the states the run lives on: up to trunc, else the finite model's
    window = model.state_window(v["trunc"]) if v.get("trunc") is not None else model.states
    if window is None:
        return problems
    if not window:
        problems.append(f"model: the window of {cfg.model} holds no live state" if not model.states
                        else f"trunc: no state of the model lies at or below {v['trunc']}")
        return problems
    init = v.get("init")
    initial = set(init.support) if init is not None else {v["start"]} if "start" in v else set()
    if not initial <= set(window):
        outside = sorted(initial - set(window))
        problems.append(f"initial states {outside} lie outside the model's window")
    iters = "iters" if method == "phi" else "phi_iters"
    if iters in v and v[iters] * len(window) > PHI_MAX_STATE_STEPS:
        problems.append(f"{iters}: {iters} x {len(window)} window states ="
                        f" {v[iters] * len(window):.3g}, above {PHI_MAX_STATE_STEPS:.0e}")
    if method in ("branch", "report") and len(window) > BRANCH_MAX_TYPES:
        problems.append(f"model: branching keeps a dense mean matrix over its {len(window)}"
                        f" types, above {BRANCH_MAX_TYPES}")
    if v.get("alpha", "auto") != "auto" and not certifies_supercritical(model, v["alpha"]):
        problems.append(f"alpha: {v['alpha']:g} is not certified supercritical on {cfg.model};"
                        " use at least the largest total rate, or auto")
    if v.get("state") is not None and v["state"] not in window:
        problems.append(f"state: the probed state {v['state']} lies outside the model's window")
    if method == "afp" and v["uniformization-rate"] is not None:
        try:
            uniformization_rate(model, v["trunc"], v["uniformization-rate"])
        except RateTooSmall as err:
            problems.append(f"uniformization-rate: {err}")
    # evolve_conditioned runs over the horizon: the conditioned run, couple's
    # shared path, and the reference law of fixed-time fv and of scan
    if method in ("conditioned", "couple", "scan") or (method == "fv" and v["burnin"] == 0.0):
        maxrate = model.max_total_rate(window)
        if method == "conditioned" and v["dt"] is not None and maxrate > 0 \
                and v["dt"] > 0.1 / maxrate + 1e-15:
            problems.append(f"dt: must be at most 0.1/max rate = {0.1 / maxrate:g}, got {v['dt']}")
        horizon = v["horizon"]
        steps = horizon / (v.get("dt") or (0.1 / maxrate if maxrate > 0 else horizon))
        if steps > CONDITIONED_MAX_STEPS:
            problems.append(f"horizon: horizon / step = {steps:.3g} uniformization steps of the"
                            f" conditioned law, above {CONDITIONED_MAX_STEPS:.0e}")
        # one law per snapshot: conditioned's on its grid, couple's at each step
        laws = 1 + (horizon / v["grid"] if method == "conditioned" else steps)
        if method in ("conditioned", "couple") and laws * len(window) > PATH_MAX_FLOATS:
            problems.append(f"horizon: the path would keep {laws:.3g} laws of {len(window)} states,"
                            f" above {PATH_MAX_FLOATS:.0e} floats")
    return problems


# -- output helpers -----------------------------------------------------------


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# the exact types most cells have, formatted as _cell formats them
_CELL_BY_TYPE = {float: repr, int: str, str: str}


def write_csv(path: Path, header: list[str], rows) -> None:
    """Fixed column order, '.' decimals via repr, LF endings; a str row is a formatted line."""
    cell = _CELL_BY_TYPE.get
    lines = [",".join(header)]
    lines += [row if type(row) is str else ",".join([cell(type(v), _cell)(v) for v in row])
              for row in rows]
    lines.append("")  # the last line's LF
    _atomic_write(path, "\n".join(lines))


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


GNUPLOT_TEMPLATE = """# gnuplot script emitted by qsdsim
set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel 'N'
set ylabel 'error'
plot '{datafile}' using 1:2 with linespoints, \\
     {c:.6g} * x**({slope:.6g}) title 'fit'
"""


def write_plot_script(path: Path, datafile: str, slope: float, intercept: float) -> None:
    _atomic_write(
        path, GNUPLOT_TEMPLATE.format(datafile=datafile, slope=slope, c=math.exp(intercept))
    )


# -- rate fit -----------------------------------------------------------------


@dataclass
class RateFit:
    """Least-squares fit of log error against log N."""

    points: list[tuple[float, float]]
    slope: float
    intercept: float
    residual: float


def rate_fit(points) -> RateFit:
    """Fit error ~ c * N^slope; needs >= 2 distinct N and positive errors."""
    pts = [(float(n), float(e)) for n, e in points]
    if len({n for n, _ in pts}) < 2:
        raise DegenerateInput("need at least two distinct N values")
    if any(e <= 0 for _, e in pts):
        raise DegenerateInput("errors must be positive for a log-log fit")
    xs = np.log([n for n, _ in pts])
    ys = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return RateFit(pts, float(slope), float(intercept), resid)


# -- method runners -----------------------------------------------------------


@dataclass
class RunRecord:
    files: list[str]
    summary: dict


def run_config(cfg: ExperimentConfig, out_dir) -> RunRecord:
    """Dispatch a config to its method runner; outputs land in out_dir.

    Data files are byte-identical across reruns of the same config; wall
    time and similar run facts live only in the summary (and its sidecar
    ``summary.json``).
    """
    v = read_params(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files, summary = RUNNERS[cfg.method](v, out)
    summary = {"method": cfg.method, "model": cfg.model, "seed": cfg.seed, **summary}
    summary["wall_time_s"] = time.perf_counter() - t0
    write_json(out / "summary.json", summary)
    return RunRecord(files=[str(f) for f in files], summary=summary)


def _run_oracle(v, out):
    """Principal-eigenvector QSD on a finite window."""
    sol = solve_qsd_power(v["model"], truncation=v["trunc"], tol=v["tol"])
    payload = {
        "nu": {str(x): m for x, m in sol.nu.items()},
        "lambda": sol.lam,
        "theta": sol.theta,
        "residual": sol.residual,
        "K": sol.truncation,
    }
    path = out / "oracle.json"
    write_json(path, payload)
    return [path], {"iterations": sol.iterations, "solver": sol.meta["solver"]}


def _run_conditioned(v, out):
    """The law conditioned on survival, by uniformization."""
    path_obj = evolve_conditioned(v["model"], v["init"], v["horizon"], v["dt"], v["trunc"],
                                  grid_dt=v["grid"])
    rows = [  # write_csv's cells, with each time formatted once
        f"{ts},{x},{m!r}"
        for ts, masses in zip(map(repr, path_obj.times.tolist()), path_obj.masses.tolist())
        for x, m in zip(path_obj.states, masses) if m > 0
    ]
    path = out / "conditioned.csv"
    write_csv(path, ["t", "state", "mass"], rows)
    steps = round(path_obj.horizon / path_obj.meta["step"])
    return [path], {"tail_bound": path_obj.meta["tail_bound"], "steps": steps}


def _run_fv(v, out):
    """Fleming-Viot particle run (stationary when --burnin > 0)."""
    model, n, horizon, init = v["model"], v["particles"], v["horizon"], v["init"]
    trunc, grid_dt = v["trunc"], v["grid"]
    # sample every grid_dt and at the horizon itself: drop arange points past
    # it and append it unless the last point is within round-off of it
    grid = np.arange(grid_dt, horizon + grid_dt / 2, grid_dt)
    grid = grid[grid <= horizon + 1e-12]
    if not grid.size or grid[-1] < horizon - 1e-12:
        grid = np.append(grid, horizon)
    root = RngStream(v["seed"])

    if v["burnin"] > 0.0:
        # stationary mode, time-averaged; the reference draws nothing, so it fails first
        reference = (solve_qsd_power(model, truncation=trunc) if trunc is not None
                     else minimal_qsd_reference(model)).nu

        def one(r):
            return fv_stationary(model, n, v["burnin"], horizon, root.child(r), init=init)

        results = map_replicas(one, v["replicas"])
        rows = []
        for r, dist in enumerate(results):
            for x, m in dist.items():
                rows.append((r, float(horizon), x, m))
        tvs = [tv_distance(d, reference) for d in results]
        summary = {"mean_tv_to_reference": float(np.mean(tvs)), "mode": "stationary"}
    else:
        def one(r):
            return fv_run(model, init, horizon, grid, root.child(r), n=n)

        traces = map_replicas(one, v["replicas"])
        rows = []
        for r, tr in enumerate(traces):
            for t, m in zip(tr.times, tr.measures):
                for x, mass in m.items():
                    rows.append((r, float(t), x, mass))
        summary = {
            "mode": "fixed-time",
            "events": int(sum(tr.events for tr in traces)),
            "revivals": int(sum(tr.revivals for tr in traces)),
        }
        if trunc is not None:
            # reference for the terminal time: the conditioned law from the
            # same start, on the model's own window (or the given truncation)
            ref = evolve_conditioned(model, init, horizon, None, trunc, grid_dt=horizon).final
            tvs = [tv_distance(tr.measures[-1], ref) for tr in traces]
            summary["mean_tv_to_reference"] = float(np.mean(tvs))
    path = out / "fv.csv"
    write_csv(path, ["replica", "t", "state", "mass"], rows)
    spath = out / "fv_summary.json"
    write_json(spath, summary)
    return [path, spath], summary


def _run_phi(v, out):
    """Fixed-point iteration of the return map."""
    res = phi_iterate(v["model"], v["init"], max_iters=v["iters"], tol=v["tol"])
    path = out / "phi.csv"
    write_csv(path, ["iteration", "tv"], list(enumerate(res.tv_log, start=1)))
    dpath = out / "phi_dist.csv"
    write_csv(dpath, ["state", "mass"], list(res.dist.items()))
    return [path, dpath], {"iterations": res.iterations, "converged": res.converged}


def _run_afp(v, out):
    """History-renewal chain on the uniformized skeleton."""
    steps = v["steps"]
    d = uniformize(v["model"], truncation=v["trunc"], rate=v["uniformization-rate"])
    # uniformization keeps the left Perron vector: this is the QSD of d's window
    reference = solve_qsd_discrete(d).nu
    checkpoints = sorted({max(1, steps >> k) for k in range(v["checkpoints"])})
    res = afp_run(d, v["start"], steps, RngStream(v["seed"]), checkpoints=checkpoints,
                  reference=reference)
    rows = [(cp, "", "", tv) for cp, tv in zip(res.checkpoints, res.checkpoint_tv)]
    rows += [(res.steps, x, m, "") for x, m in res.estimate.items()]
    path = out / "afp.csv"
    write_csv(path, ["checkpoint", "state", "mass", "tv_to_oracle"], rows)
    return [path], {"final_tv": res.checkpoint_tv[-1] if res.checkpoint_tv else None}


def _run_branch(v, out):
    """Supercritical branching profile estimator."""
    est = ks_estimate(v["model"], v["alpha"], v["horizon"], v["cap"], v["replicas"],
                      RngStream(v["seed"]))
    payload = {
        "nu_hat": {str(x): m for x, m in est.nu_hat.items()},
        "survival_fraction": est.survival_fraction,
        "growth_rate_fit": est.growth_rate_fit,
        "cap_events": est.cap_events,
        "alpha": est.alpha,
    }
    path = out / "branch.json"
    write_json(path, payload)
    return [path], {"survivors": est.survivors}


def _run_couple(v, out):
    """Coupled tagged-particle / limit-process runs."""
    model, n, horizon, mu = v["model"], v["particles"], v["horizon"], v["init"]
    # one deterministic path, read by every replica
    ref_path = evolve_conditioned(model, mu, horizon, None, max(model.states))
    root = RngStream(v["seed"])

    def one(r):
        return coupled_tagged_run(model, n, mu, horizon, root.child(r), path=ref_path)

    runs = map_replicas(one, v["replicas"])
    rows = [(r, c.coupling.psi(horizon), c.coupling.divergence_time) for r, c in enumerate(runs)]
    path = out / "couple.csv"
    write_csv(path, ["replica", "psi_final", "divergence_time"], rows)
    frac = sum(run.coupling.diverged for run in runs) / len(runs)
    return [path], {"diverged_fraction": frac}


def _run_scan(v, out):
    """Fixed-time FV error against N with a rate fit."""
    model, horizon, mu = v["model"], v["horizon"], v["init"]
    ref = evolve_conditioned(model, mu, horizon, None, v["trunc"], grid_dt=horizon).final
    probe_state = v["state"] if v["state"] is not None else ref.support[0]
    ref_mass = ref.mass(probe_state)
    root = RngStream(v["seed"])
    rows = []
    for n in v["particles"]:
        def one(r, n=n):
            tr = fv_run(model, mu, horizon, [horizon], root.child(n, r), n=n)
            return abs(tr.measures[-1].mass(probe_state) - ref_mass)

        errs = np.array(map_replicas(one, v["replicas"]))
        err = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(len(errs)))
        rows.append((n, err, stderr))
    path = out / "scan.csv"
    write_csv(path, ["n_particles", "error", "stderr"], rows)
    fit = rate_fit([(n, err) for n, err, _ in rows])
    fpath = out / "scan_fit.json"
    write_json(fpath, {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual})
    gpath = out / "scan.gp"
    write_plot_script(gpath, "scan.csv", fit.slope, fit.intercept)
    return [path, fpath, gpath], {"slope": fit.slope}


def cross_method_report(
    model: AbsorbedChainModel,
    budget: ReportBudget | None = None,
    seed: int = 0,
) -> list[dict]:
    """Run every stationary method against the oracle on one finite model.

    Methods that fail are reported with their error instead of aborting the
    table.  Returns one row per method with TV to the oracle and runtime.
    An infinite model raises ``ValueError`` before any method runs: the
    return map needs a finite window such as ``bd:p,q,K``.
    """
    if not model.is_finite:
        raise ValueError("cross_method_report needs a finite model; truncate first")
    budget = budget or ReportBudget()
    t0 = time.perf_counter()
    reference = solve_qsd_power(model).nu
    rows = [{"method": "oracle", "tv_to_oracle": 0.0, "runtime_s": time.perf_counter() - t0,
             "status": "ok"}]
    x0 = model.states[0]
    methods = {
        "fv_stationary": lambda: fv_stationary(model, budget.fv_particles, budget.fv_burnin,
                                               budget.fv_horizon, RngStream(seed, (1,))),
        "phi_iterate": lambda: phi_iterate(model, Distribution.delta(x0),
                                           max_iters=budget.phi_iters).dist,
        "afp": lambda: afp_run(uniformize(model), x0, budget.afp_steps,
                               RngStream(seed, (2,))).estimate,
        "branch": lambda: ks_estimate(model, "auto", budget.branch_horizon, budget.branch_cap,
                                      budget.branch_attempts, RngStream(seed, (3,))).nu_hat,
    }
    for name, run in methods.items():
        t1 = time.perf_counter()
        try:
            tv, status = tv_distance(run(), reference), "ok"
        except QsdError as exc:
            tv, status = math.nan, f"failed: {exc}"
        rows.append({"method": name, "tv_to_oracle": tv, "runtime_s": time.perf_counter() - t1,
                     "status": status})
    return rows


def _run_report(v, out):
    """Cross-method comparison against the oracle."""
    budget = ReportBudget(**{p.key: v[p.key] for p in PARAMS["report"]})
    rows = cross_method_report(v["model"], budget, seed=v["seed"])
    path = out / "report.csv"
    # runtimes are inherently non-reproducible, so they live in the summary
    write_csv(
        path,
        ["method", "tv_to_oracle", "status"],
        [(r["method"], r["tv_to_oracle"], r["status"]) for r in rows],
    )
    return [path], {
        "methods": len(rows),
        "runtimes_s": {r["method"]: r["runtime_s"] for r in rows},
    }


RUNNERS = {
    "oracle": _run_oracle,
    "conditioned": _run_conditioned,
    "fv": _run_fv,
    "phi": _run_phi,
    "afp": _run_afp,
    "branch": _run_branch,
    "couple": _run_couple,
    "scan": _run_scan,
    "report": _run_report,
}
