"""Spans for the benchmark's traced run, recorded from outside the package.

:meth:`Tracer.installed` replaces the public functions that each `qsdsim`
module's namespace imports (``qsdsim.harness.fv_stationary``,
``qsdsim.returnproc.phi_map``, ...) plus ``RngStream.generator`` and
``UniformBlock.__init__`` with wrappers that record one span per call:
name, start, end, parent span and op id.  The originals are put back on exit.
Counts come from return values only; a count the public API does not
return (the events of ``fv_stationary``, say) is not counted.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<function>"; the layer is the qsdsim module
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at an op's root
    op: int
    counts: dict | None = None


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _fv_run_counts(r, args, kwargs):
    horizon = float(_arg(args, kwargs, 2, "horizon"))
    return {"events": r.events, "revivals": r.revivals, "particle_time": r.final.N * horizon}


def _fv_stationary_counts(r, args, kwargs):
    return {"particle_time": _arg(args, kwargs, 1, "n") * float(_arg(args, kwargs, 3, "horizon"))}


def _patch_table():
    """(owner, attribute, span name, count function) for every wrapped function."""
    m = {name: importlib.import_module(f"qsdsim.{name}")
         for name in ("cli", "harness", "returnproc", "oracle", "afp", "chain", "rng")}
    h = m["harness"]
    iterations = lambda r, a, k: {"iterations": r.iterations}  # noqa: E731
    written = lambda r, a, k: {"bytes": os.path.getsize(a[0])}  # noqa: E731
    table = [
        (m["cli"], "main", "cli.main", None),
        (m["cli"], "run_config", "harness.run_config", None),
        (h, "map_replicas", "harness.map_replicas", lambda r, a, k: {"replicas": a[1]}),
        (h, "write_csv", "harness.write_csv", written),
        (h, "write_json", "harness.write_json", written),
        (h, "write_plot_script", "harness.write_plot_script", written),
        (h, "resolve_model", "models.resolve_model", None),
        (h, "uniformize", "models.uniformize", None),
        (h, "fv_run", "fv.fv_run", _fv_run_counts),
        (h, "fv_stationary", "fv.fv_stationary", _fv_stationary_counts),
        (h, "afp_run", "afp.afp_run", lambda r, a, k: {"steps": r.steps}),
        (h, "ks_estimate", "branching.ks_estimate",
         lambda r, a, k: {"attempts": r.attempts, "survivors": r.survivors, "cap_events": r.cap_events}),
        (h, "coupled_tagged_run", "returnproc.coupled_tagged_run",
         lambda r, a, k: {"events": r.trace.events}),
        (h, "phi_iterate", "returnproc.phi_iterate", iterations),
        (m["returnproc"], "phi_map", "returnproc.phi_map", None),
        (h, "solve_qsd_power", "oracle.solve_qsd_power", iterations),
        (h, "solve_qsd_discrete", "oracle.solve_qsd_discrete", iterations),
        (h, "minimal_qsd_reference", "oracle.minimal_qsd_reference", None),
        (m["oracle"], "solve_qsd_power", "oracle.solve_qsd_power", iterations),
        (m["rng"].RngStream, "generator", "rng.generator", None),
        (m["rng"].UniformBlock, "__init__", "rng.UniformBlock", None),
    ]
    conditioned_counts = lambda r, a, k: {"rk4_steps": round(r.horizon / r.meta["step"])}  # noqa: E731
    for owner in (h, m["returnproc"]):
        table.append((owner, "evolve_conditioned", "conditioned.evolve_conditioned", conditioned_counts))
    for owner in (h, m["oracle"], m["afp"], m["chain"]):
        table.append((owner, "tv_distance", "chain.tv_distance", None))
    return table


class Tracer:
    """Holds the spans of a run in memory; the runner sets :attr:`op` per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in _patch_table():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("fv.events_per_s", "1/s"), ("fv.particle_time_per_s", "1/s"), ("fv.busy_s", "s"),
    ("fv.events", "count"), ("fv.revivals", "count"),
    ("afp.steps_per_s", "1/s"), ("afp.busy_s", "s"),
    ("branching.busy_s", "s"), ("branching.attempts", "count"),
    ("branching.survival_ratio", "1"), ("branching.cap_events", "count"),
    ("rng.streams", "count"), ("rng.blocks", "count"), ("rng.setup_s", "s"),
    ("conditioned.calls", "count"), ("conditioned.rk4_steps", "count"),
    ("conditioned.busy_s", "s"), ("conditioned.steps_per_s", "1/s"),
    ("returnproc.couple_busy_s", "s"), ("returnproc.couple_self_s", "s"),
    ("returnproc.couple_events", "count"),
    ("returnproc.phi_map_calls", "count"), ("returnproc.phi_iterations", "count"),
    ("returnproc.phi_busy_s", "s"),
    ("oracle.solves", "count"), ("oracle.iterations", "count"), ("oracle.busy_s", "s"),
    ("oracle.iterations_per_s", "1/s"),
    ("chain.tv_calls", "count"), ("chain.tv_s", "s"),
    ("models.resolve_s", "s"), ("models.uniformize_s", "s"),
    ("harness.self_s", "s"), ("harness.write_s", "s"), ("harness.bytes_written", "B"),
    ("harness.replicas", "count"),
    ("cli.self_s", "s"), ("trace.overhead", "1"),
    ("fail_ratio", "1"),
)

FV = {"fv.fv_run", "fv.fv_stationary"}
ORACLE = {"oracle.solve_qsd_power", "oracle.solve_qsd_discrete", "oracle.minimal_qsd_reference"}
SOLVES = {"oracle.solve_qsd_power", "oracle.solve_qsd_discrete"}
RNG = {"rng.generator", "rng.UniformBlock"}
WRITES = {"harness.write_csv", "harness.write_json", "harness.write_plot_script"}


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds, per round.

    A layer's busy time counts each outermost span of the layer once; a span's
    self time is its duration minus the time its child spans cover.  Counts
    and times are per round; rates and ratios are taken over all rounds.
    """
    dur = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            covered[s.parent] += dur[i]

    def outermost(i: int, names: set[str]) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return False
            p = spans[p].parent
        return True

    def busy(names: set[str]) -> float:
        return sum(dur[i] for i, s in enumerate(spans) if s.name in names and outermost(i, names))

    def self_time(prefix: str) -> float:
        return sum(dur[i] - covered[i] for i, s in enumerate(spans) if s.name.startswith(prefix))

    def calls(names: set[str]) -> int:
        return sum(1 for s in spans if s.name in names)

    def total(names: set[str], key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans if s.name in names and s.counts)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    fv_events = total({"fv.fv_run"}, "events")
    conditioned = {"conditioned.evolve_conditioned"}
    couple = {"returnproc.coupled_tagged_run"}
    rk4_steps = total(conditioned, "rk4_steps")
    iterations = total(SOLVES, "iterations")
    attempts = total({"branching.ks_estimate"}, "attempts")
    per_round = {
        "fv.busy_s": busy(FV),
        "fv.events": fv_events,
        "fv.revivals": total({"fv.fv_run"}, "revivals"),
        "afp.busy_s": busy({"afp.afp_run"}),
        "branching.busy_s": busy({"branching.ks_estimate"}),
        "branching.attempts": attempts,
        "branching.cap_events": total({"branching.ks_estimate"}, "cap_events"),
        "rng.streams": calls({"rng.generator"}),
        "rng.blocks": calls({"rng.UniformBlock"}),
        "rng.setup_s": busy(RNG),
        "conditioned.calls": calls(conditioned),
        "conditioned.rk4_steps": rk4_steps,
        "conditioned.busy_s": busy(conditioned),
        "returnproc.couple_busy_s": busy(couple),
        "returnproc.couple_self_s": self_time("returnproc.coupled_tagged_run"),
        "returnproc.couple_events": total(couple, "events"),
        "returnproc.phi_map_calls": calls({"returnproc.phi_map"}),
        "returnproc.phi_iterations": total({"returnproc.phi_iterate"}, "iterations"),
        "returnproc.phi_busy_s": busy({"returnproc.phi_iterate"}),
        "oracle.solves": calls(SOLVES),
        "oracle.iterations": iterations,
        "oracle.busy_s": busy(ORACLE),
        "chain.tv_calls": calls({"chain.tv_distance"}),
        "chain.tv_s": busy({"chain.tv_distance"}),
        "models.resolve_s": busy({"models.resolve_model"}),
        "models.uniformize_s": busy({"models.uniformize"}),
        "harness.self_s": self_time("harness."),
        "harness.write_s": busy(WRITES),
        "harness.bytes_written": total(WRITES, "bytes"),
        "harness.replicas": total({"harness.map_replicas"}, "replicas"),
        "cli.self_s": self_time("cli."),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update({
        "fv.events_per_s": ratio(fv_events, busy({"fv.fv_run"})),
        "fv.particle_time_per_s": ratio(total(FV, "particle_time"), busy(FV)),
        "afp.steps_per_s": ratio(total({"afp.afp_run"}, "steps"), busy({"afp.afp_run"})),
        "branching.survival_ratio": ratio(total({"branching.ks_estimate"}, "survivors"), attempts),
        "conditioned.steps_per_s": ratio(rk4_steps, busy(conditioned)),
        "oracle.iterations_per_s": ratio(iterations, busy(SOLVES)),
    })
    return out
