"""Config-driven experiment runner tying the approximation methods together.

Experiments are described by a small line-based config (versioned header,
``key = value`` pairs, one ``[section]`` per method), dispatched to the
method runners, and written as CSV/JSON files with fixed column orders and
LF endings so that a rerun with the same seed is byte-identical.  Wall-clock
data lives only in the summary sidecar.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .afp import afp_run
from .branching import ks_estimate
from .chain import AbsorbedChainModel, Distribution, tv_distance
from .conditioned import evolve_conditioned
from .errors import ConfigInvalid, DegenerateInput, QsdError
from .fv import fv_run, fv_stationary
# perfbench/spans.py wraps uniformize and the solvers by their names in this module
from .models import resolve_model, uniformize
from .oracle import minimal_qsd_reference, solve_qsd_discrete, solve_qsd_power
from .returnproc import coupled_tagged_run, phi_iterate
from .rng import RngStream

CONFIG_HEADER = "qsdconfig v1"
METHODS = ("oracle", "conditioned", "fv", "phi", "afp", "branch", "couple", "scan", "report")


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
    version: str = "v1"


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-based config format; problems raise ConfigInvalid."""
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
    method = top.get("method")
    if method is None:
        problems.append("missing key: method")
    elif method not in METHODS:
        problems.append(f"unknown method {method!r}")
    if "model" not in top:
        problems.append("missing key: model")
    else:
        try:
            resolve_model(top["model"])
        except Exception as exc:
            problems.append(f"model: {exc}")
    if "seed" not in top:
        problems.append("missing key: seed (seeds are mandatory)")
    else:
        try:
            int(top["seed"])
        except ValueError:
            problems.append(f"seed: not an integer: {top['seed']!r}")
    replicas = 1
    if "replicas" in top:
        try:
            replicas = int(top["replicas"])
        except ValueError:
            problems.append(f"replicas: not an integer: {top['replicas']!r}")
    if problems:
        raise ConfigInvalid(problems)
    params = dict(sections.get(method, {}))
    return ExperimentConfig(
        method=method,
        model=top["model"],
        seed=int(top["seed"]),
        replicas=replicas,
        params=params,
    )


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


def parse_distribution(text: str) -> Distribution:
    """Initial-law syntax: delta:x, uniform:a-b, or x:mass comma pairs (each state once)."""
    text = text.strip()
    if text.startswith("delta:"):
        return Distribution.delta(int(text[6:]))
    if text.startswith("uniform:"):
        a, b = text[8:].split("-")
        return Distribution.uniform(range(int(a), int(b) + 1))
    pairs = {}
    for item in text.split(","):
        state, mass = item.split(":")
        x = int(state)
        if x in pairs:
            raise ValueError(f"state {x} is given more than once")
        pairs[x] = float(mass)
        if not 0.0 <= pairs[x] < math.inf:
            raise ValueError(f"state {x} has mass {mass.strip()}; masses must be finite and >= 0")
    return Distribution.from_weights(pairs)


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
    """Fixed column order, '.' decimals via repr, LF endings."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    cell = _CELL_BY_TYPE.get
    for row in rows:
        buf.write(",".join([cell(type(v), _cell)(v) for v in row]) + "\n")
    _atomic_write(path, buf.getvalue())


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


def _p(params: dict[str, str], key: str, cast, default):
    if key in params:
        try:
            return cast(params[key])
        except ValueError:
            raise ConfigInvalid([f"{key}: not a valid value: {params[key]!r}"]) from None
    if default is None:
        raise ConfigInvalid([f"missing parameter {key!r}"])
    return default


def _check_runnable(cfg: ExperimentConfig, model: AbsorbedChainModel) -> None:
    """Raise ConfigInvalid for a config its method cannot run, before any work.

    CLI runs and config files both pass through here, so out-of-range
    parameters become config errors rather than failures deep in a route.
    Missing parameters are left to the method runners.
    """
    params = cfg.params
    problems = []
    # scan reports a sample standard error (ddof=1), which needs two replicas
    least = 2 if cfg.method == "scan" else 1
    if cfg.replicas < least:
        problems.append(f"replicas: {cfg.method} needs at least {least}, got {cfg.replicas}")
    if cfg.method in ("fv", "couple", "scan") and "particles" in params:
        ns = _p(params, "particles", lambda v: [int(n) for n in v.split(",")], None)
        if min(ns) < 2:
            problems.append(f"particles: a Fleming-Viot system needs at least 2, got {min(ns)}")
    for key in ("steps", "checkpoints"):
        if cfg.method == "afp" and _p(params, key, int, 1) < 1:
            problems.append(f"{key}: afp needs at least 1, got {params[key]}")
    if cfg.method == "phi" and _p(params, "iters", int, 1) < 1:
        problems.append(f"iters: phi needs at least 1, got {params['iters']}")
    tol = _p(params, "tol", float, 1.0)
    if not (math.isfinite(tol) and tol > 0.0):
        problems.append(f"tol: must be finite and positive, got {params['tol']}")
    for key in ("horizon", "dt", "grid", "burnin", "uniformization-rate"):
        value = _p(params, key, float, 1.0)
        if not math.isfinite(value):
            problems.append(f"{key}: must be finite, got {params[key]}")
        elif value < 0.0 or (value == 0.0 and key != "burnin"):
            least = "at least 0" if key == "burnin" else "positive"
            problems.append(f"{key}: must be {least}, got {params[key]}")
    # down-sampling keeps cap // 2 individuals, so a smaller cap empties the population
    if cfg.method == "branch" and not 2.0 <= _p(params, "cap", float, 2.0) < math.inf:
        problems.append(f"cap: must be finite and at least 2, got {params['cap']}")
    if cfg.method == "report":
        budget = _report_budget(params)
        least = {"fv_particles": 2, "phi_iters": 1, "afp_steps": 1, "branch_attempts": 1,
                 "branch_cap": 2}
        for key, low in least.items():
            if getattr(budget, key) < low:
                problems.append(f"{key}: report needs at least {low}, got {params[key]}")
        for key in ("fv_horizon", "branch_horizon"):
            if not 0.0 < getattr(budget, key) < math.inf:
                problems.append(f"{key}: must be finite and positive, got {params[key]}")
        if not 0.0 <= budget.fv_burnin < budget.fv_horizon:
            problems.append(
                f"fv_burnin: must be at least 0 and below fv_horizon = {budget.fv_horizon:g},"
                f" got {budget.fv_burnin:g}"
            )
    if cfg.method == "branch" and params.get("alpha", "auto") != "auto":
        if not math.isfinite(_p(params, "alpha", float, None)):
            problems.append(f"alpha: must be finite or auto, got {params['alpha']}")
    if cfg.method == "fv":
        burnin = _p(params, "burnin", float, 0.0)
        if 0.0 < _p(params, "horizon", float, math.inf) <= burnin:
            problems.append("horizon: a stationary fv run needs horizon > burnin")
        if burnin <= 0.0 and "init" not in params:
            problems.append("init: a fixed-time fv run (burnin 0) needs an initial law")
    if cfg.method in ("phi", "couple", "branch", "report") and not model.is_finite:
        problems.append(
            f"model: an infinite model needs an explicit truncation;"
            f" {cfg.method} takes a finite window such as bd:p,q,K"
        )
    initial = set()
    if "init" in params:
        try:
            initial = set(parse_distribution(params["init"]).support)
        except ValueError as exc:
            problems.append(f"init: cannot read {params['init']!r}: {exc}")
    if cfg.method == "afp" and "start" in params:
        initial = {_p(params, "start", int, None)}
    # the states the run lives on: up to trunc, else the finite model's
    window = model.state_window(_p(params, "trunc", int, None)) if "trunc" in params else model.states
    if window is not None:
        if not window:
            problems.append(f"trunc: no state of the model lies at or below {params['trunc']}")
        elif not initial <= set(window):
            outside = sorted(initial - set(window))
            problems.append(f"initial states {outside} lie outside the model's window")
    if cfg.method == "conditioned" and "dt" in params and window:
        # evolve_conditioned's uniformization steps need h <= 0.1/max rate
        maxrate = model.max_total_rate(window)
        dt = _p(params, "dt", float, None)
        if maxrate > 0 and math.isfinite(dt) and dt > 0.1 / maxrate + 1e-15:
            problems.append(f"dt: must be at most 0.1/max rate = {0.1 / maxrate:g}, got {params['dt']}")
    if problems:
        raise ConfigInvalid(problems)


def run_config(cfg: ExperimentConfig, out_dir) -> RunRecord:
    """Dispatch a config to its method runner; outputs land in out_dir.

    Data files are byte-identical across reruns of the same config; wall
    time and similar run facts live only in the summary (and its sidecar
    ``summary.json``).
    """
    model = resolve_model(cfg.model)
    _check_runnable(cfg, model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    runner = _RUNNERS.get(cfg.method)
    if runner is None:
        raise ConfigInvalid([f"unknown method {cfg.method!r}"])
    files, summary = runner(cfg, model, out)
    summary = {"method": cfg.method, "model": cfg.model, "seed": cfg.seed, **summary}
    summary["wall_time_s"] = time.perf_counter() - t0
    write_json(out / "summary.json", summary)
    return RunRecord(files=[str(f) for f in files], summary=summary)


def _run_oracle(cfg, model, out):
    params = cfg.params
    trunc = _p(params, "trunc", int, max(model.states) if model.is_finite else None)
    tol = _p(params, "tol", float, 1e-12)
    sol = solve_qsd_power(model, truncation=trunc, tol=tol)
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


def _run_conditioned(cfg, model, out):
    params = cfg.params
    horizon = _p(params, "horizon", float, None)
    mu = parse_distribution(_p(params, "init", str, None))
    trunc = _p(params, "trunc", int, max(model.states) if model.is_finite else None)
    maxrate = model.max_total_rate(model.state_window(trunc))
    step = _p(params, "dt", float, min(1e-3, 0.1 / maxrate))
    grid_dt = _p(params, "grid", float, horizon / 50)
    path_obj = evolve_conditioned(model, mu, horizon, step, trunc, grid_dt=grid_dt)
    rows = [
        (t, x, m)
        for t, masses in zip(path_obj.times.tolist(), path_obj.masses.tolist())
        for x, m in zip(path_obj.states, masses)
        if m > 0
    ]
    path = out / "conditioned.csv"
    write_csv(path, ["t", "state", "mass"], rows)
    steps = round(path_obj.horizon / path_obj.meta["step"])
    return [path], {"tail_bound": path_obj.meta["tail_bound"], "steps": steps}


def _reference_path(model, mu, horizon, trunc, grid_dt=None):
    """Conditioned law from mu on the window up to trunc, at step min(1e-3, 0.1/max rate).

    Recorded every step unless ``grid_dt`` is given; ``.final`` readers pass the horizon.
    """
    maxrate = model.max_total_rate(model.state_window(trunc))
    return evolve_conditioned(model, mu, horizon, min(1e-3, 0.1 / maxrate), trunc, grid_dt)


def _fv_reference(model, params):
    if "trunc" in params:
        return solve_qsd_power(model, truncation=int(params["trunc"])).nu
    if model.is_finite:
        return solve_qsd_power(model).nu
    return minimal_qsd_reference(model).nu


def _run_fv(cfg, model, out):
    params = cfg.params
    n = _p(params, "particles", int, None)
    horizon = _p(params, "horizon", float, None)
    burnin = _p(params, "burnin", float, 0.0)
    grid_dt = _p(params, "grid", float, horizon / 20)
    init = parse_distribution(params["init"]) if "init" in params else None
    # sample every grid_dt and at the horizon itself: drop arange points past
    # it and append it unless the last point is within round-off of it
    grid = np.arange(grid_dt, horizon + grid_dt / 2, grid_dt)
    grid = grid[grid <= horizon + 1e-12]
    if not grid.size or grid[-1] < horizon - 1e-12:
        grid = np.append(grid, horizon)
    root = RngStream(cfg.seed)

    if burnin > 0.0:
        # stationary mode, time-averaged; the reference draws nothing, so it fails first
        reference = _fv_reference(model, params)

        def one(r):
            return fv_stationary(model, n, burnin, horizon, root.child(r), init=init)

        results = map_replicas(one, cfg.replicas)
        rows = []
        for r, dist in enumerate(results):
            for x, m in dist.items():
                rows.append((r, float(horizon), x, m))
        path = out / "fv.csv"
        write_csv(path, ["replica", "t", "state", "mass"], rows)
        tvs = [tv_distance(d, reference) for d in results]
        summary = {"mean_tv_to_reference": float(np.mean(tvs)), "mode": "stationary"}
        spath = out / "fv_summary.json"
        write_json(spath, summary)
        return [path, spath], summary

    def one(r):
        return fv_run(model, init, horizon, grid, root.child(r), n=n)

    traces = map_replicas(one, cfg.replicas)
    rows = []
    for r, tr in enumerate(traces):
        for t, m in zip(tr.times, tr.measures):
            for x, mass in m.items():
                rows.append((r, float(t), x, mass))
    path = out / "fv.csv"
    write_csv(path, ["replica", "t", "state", "mass"], rows)
    summary = {
        "mode": "fixed-time",
        "events": int(sum(tr.events for tr in traces)),
        "revivals": int(sum(tr.revivals for tr in traces)),
    }
    if init is not None:
        # reference for the terminal time: the conditioned law from the
        # same start, on the model's own window (or the given truncation)
        trunc = _p(params, "trunc", int, max(model.states) if model.is_finite else 0)
        if trunc:
            ref = _reference_path(model, init, horizon, trunc, grid_dt=horizon).final
            tvs = [tv_distance(tr.measures[-1], ref) for tr in traces]
            summary["mean_tv_to_reference"] = float(np.mean(tvs))
    spath = out / "fv_summary.json"
    write_json(spath, summary)
    return [path, spath], summary


def _run_phi(cfg, model, out):
    params = cfg.params
    mu0 = parse_distribution(_p(params, "init", str, None))
    iters = _p(params, "iters", int, 200)
    tol = _p(params, "tol", float, 1e-10)
    res = phi_iterate(model, mu0, max_iters=iters, tol=tol)
    path = out / "phi.csv"
    write_csv(path, ["iteration", "tv"], list(enumerate(res.tv_log, start=1)))
    dpath = out / "phi_dist.csv"
    write_csv(dpath, ["state", "mass"], list(res.dist.items()))
    return [path, dpath], {"iterations": res.iterations, "converged": res.converged}


def _run_afp(cfg, model, out):
    params = cfg.params
    steps = _p(params, "steps", int, None)
    start = _p(params, "start", int, None)
    trunc = _p(params, "trunc", int, max(model.states) if model.is_finite else None)
    rate = float(params["uniformization-rate"]) if "uniformization-rate" in params else None
    d = uniformize(model, truncation=trunc, rate=rate)
    # uniformization keeps the left Perron vector: this is the QSD of d's window
    reference = solve_qsd_discrete(d).nu
    n_checkpoints = _p(params, "checkpoints", int, 4)
    checkpoints = sorted({max(1, steps >> k) for k in range(n_checkpoints)})
    res = afp_run(d, start, steps, RngStream(cfg.seed), checkpoints=checkpoints, reference=reference)
    rows = []
    for cp, tv in zip(res.checkpoints, res.checkpoint_tv):
        rows.append((cp, "", "", tv))
    for x, m in res.estimate.items():
        rows.append((res.steps, x, m, ""))
    path = out / "afp.csv"
    write_csv(path, ["checkpoint", "state", "mass", "tv_to_oracle"], rows)
    return [path], {"final_tv": res.checkpoint_tv[-1] if res.checkpoint_tv else None}


def _run_branch(cfg, model, out):
    params = cfg.params
    alpha = params.get("alpha", "auto")
    alpha = alpha if alpha == "auto" else float(alpha)
    horizon = _p(params, "horizon", float, None)
    cap = _p(params, "cap", int, 10**5)
    est = ks_estimate(model, alpha, horizon, cap, cfg.replicas, RngStream(cfg.seed))
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


def _run_couple(cfg, model, out):
    params = cfg.params
    n = _p(params, "particles", int, None)
    horizon = _p(params, "horizon", float, None)
    mu = parse_distribution(params["init"]) if "init" in params else Distribution.delta(
        model.states[0]
    )
    # one deterministic path, read by every replica
    ref_path = _reference_path(model, mu, horizon, max(model.states))
    root = RngStream(cfg.seed)

    def one(r):
        return coupled_tagged_run(model, n, mu, horizon, root.child(r), path=ref_path)

    runs = map_replicas(one, cfg.replicas)
    rows = []
    for r, run in enumerate(runs):
        rows.append(
            (r, run.coupling.psi(horizon), run.coupling.divergence_time)
        )
    path = out / "couple.csv"
    write_csv(path, ["replica", "psi_final", "divergence_time"], rows)
    frac = sum(run.coupling.diverged for run in runs) / len(runs)
    return [path], {"diverged_fraction": frac}


def _run_scan(cfg, model, out):
    params = cfg.params
    ns = [int(v) for v in _p(params, "particles", str, None).split(",")]
    horizon = _p(params, "horizon", float, None)
    mu = parse_distribution(_p(params, "init", str, None))
    trunc = _p(params, "trunc", int, max(model.states) if model.is_finite else None)
    ref = _reference_path(model, mu, horizon, trunc, grid_dt=horizon).final
    probe_state = _p(params, "state", int, ref.support[0])
    ref_mass = ref.mass(probe_state)
    root = RngStream(cfg.seed)
    rows = []
    points = []
    for n in ns:
        def one(r, n=n):
            tr = fv_run(model, mu, horizon, [horizon], root.child(n, r), n=n)
            return abs(tr.measures[-1].mass(probe_state) - ref_mass)

        errs = np.array(map_replicas(one, cfg.replicas))
        err = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(len(errs)))
        rows.append((n, err, stderr))
        points.append((n, err))
    path = out / "scan.csv"
    write_csv(path, ["n_particles", "error", "stderr"], rows)
    fit = rate_fit(points)
    fpath = out / "scan_fit.json"
    write_json(fpath, {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual})
    gpath = out / "scan.gp"
    write_plot_script(gpath, "scan.csv", fit.slope, fit.intercept)
    return [path, fpath, gpath], {"slope": fit.slope}


@dataclass
class ReportBudget:
    """Per-method effort knobs for the cross-method comparison."""

    fv_particles: int = 400
    fv_burnin: float = 10.0
    fv_horizon: float = 110.0
    phi_iters: int = 200
    afp_steps: int = 200_000
    branch_horizon: float = 12.0
    branch_cap: int = 50_000
    branch_attempts: int = 30


def cross_method_report(
    model: AbsorbedChainModel,
    budget: ReportBudget | None = None,
    seed: int = 0,
    reference: Distribution | None = None,
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
    rows: list[dict] = []
    t0 = time.perf_counter()
    if reference is None:
        reference = solve_qsd_power(model).nu
    rows.append(
        {"method": "oracle", "tv_to_oracle": 0.0, "runtime_s": time.perf_counter() - t0, "status": "ok"}
    )
    start = Distribution.delta(model.states[0])

    def attempt(name, fn):
        t1 = time.perf_counter()
        try:
            dist = fn()
            rows.append(
                {
                    "method": name,
                    "tv_to_oracle": tv_distance(dist, reference),
                    "runtime_s": time.perf_counter() - t1,
                    "status": "ok",
                }
            )
        except QsdError as exc:
            rows.append(
                {
                    "method": name,
                    "tv_to_oracle": math.nan,
                    "runtime_s": time.perf_counter() - t1,
                    "status": f"failed: {exc}",
                }
            )

    attempt(
        "fv_stationary",
        lambda: fv_stationary(
            model, budget.fv_particles, budget.fv_burnin, budget.fv_horizon, RngStream(seed, (1,))
        ),
    )
    attempt("phi_iterate", lambda: phi_iterate(model, start, max_iters=budget.phi_iters).dist)

    def afp_dist():
        d = uniformize(model)
        return afp_run(
            d, model.states[0], budget.afp_steps, RngStream(seed, (2,))
        ).estimate

    attempt("afp", afp_dist)
    attempt(
        "branch",
        lambda: ks_estimate(
            model,
            "auto",
            budget.branch_horizon,
            budget.branch_cap,
            budget.branch_attempts,
            RngStream(seed, (3,)),
        ).nu_hat,
    )
    return rows


def _report_budget(params: dict[str, str]) -> ReportBudget:
    """The report's budget: each key read as its default's type, else the default."""
    return ReportBudget(
        **{f.name: _p(params, f.name, type(f.default), f.default) for f in fields(ReportBudget)}
    )


def _run_report(cfg, model, out):
    rows = cross_method_report(model, _report_budget(cfg.params), seed=cfg.seed)
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


_RUNNERS = {
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
