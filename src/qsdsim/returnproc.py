"""The return process, its fixed-point map, and the tagged-particle coupling.

A chain that re-enters the live states with law mu whenever it absorbs has
effective rates q(x, y) + q(x, 0) mu(y).  Its invariant law defines the map
Phi(mu); QSDs are exactly the fixed points of Phi, which makes both the
direct iteration and the time-inhomogeneous "tagged particle" limit process
(return law T_t mu) useful simulation routes.  By the renewal argument of
Ferrari, Kesten, Martinez and Picco (1995), Phi(mu) = mu A^-1 / |mu A^-1|
with A = -Q_live, the normalized occupation law before absorption from mu;
``phi_map`` computes it as one linear solve, and ``simulate_mu_return``
checks it by simulation.  On an infinite space every QSD nu_theta of
``bd:p,q`` is a fixed point of Phi, so the return map alone cannot select
the minimal QSD.

The second half of the module realizes the Fleming-Viot system from marked
Poisson streams (internal jumps plus voter/revival events per particle) and
couples particle 1 with the limit process on the same marks, tracking the
indicator that the two trajectories have split.

scipy is used only by the return map's sparse LU factorization on windows of
more than ``PHI_LAPACK_LIMIT`` states (``scipy.sparse.linalg.splu``), and through
``evolve_conditioned`` on windows of more than ``DENSE_WINDOW_LIMIT`` (400)
states; both import it when they run.  Smaller windows need numpy alone.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .chain import AbsorbedChainModel, Distribution, strongly_connected
from .conditioned import ConditionedPath, evolve_conditioned
from .errors import EventCapExceeded, NotIrreducible, PathTooShort
from .fv import FvTrace, ParticleConfig
from .rng import RngStream, UniformBlock, TAG_EVENTS, TAG_INIT, TAG_INTERNAL, TAG_VOTER

MU_RETURN_EVENT_CAP = 10**8


@dataclass
class OccupationResult:
    """Time-weighted occupation of one return-process trajectory."""

    occupation: Distribution
    events: int
    returns: int
    horizon: float


def simulate_mu_return(
    model: AbsorbedChainModel,
    mu: Distribution,
    horizon: float,
    rng: RngStream,
    event_cap: int = MU_RETURN_EVENT_CAP,
) -> OccupationResult:
    """Simulate the return chain and accumulate its occupation measure.

    Base Gillespie dynamics; an absorbing jump instantaneously re-draws the
    position from mu (landing on the current state is a null event).  The
    occupation measure over [0, horizon] estimates Phi(mu) for long runs.
    """
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    x = mu.sample(blocks.u())
    t = 0.0
    events = 0
    returns = 0
    acc: dict[int, float] = {}
    while True:
        total = model.total_rate(x)
        if total <= 0.0:
            raise EventCapExceeded(f"state {x} has total rate 0")
        dt = blocks.exp(total)
        if t + dt >= horizon:
            acc[x] = acc.get(x, 0.0) + (horizon - t)
            break
        acc[x] = acc.get(x, 0.0) + dt
        t += dt
        y = model.sample_jump(x, blocks.u())
        if y == 0:
            y = mu.sample(blocks.u())
            returns += 1
        x = y
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} events before t={horizon}")
    return OccupationResult(Distribution.from_weights(acc), events, returns, horizon)


# Windows up to this size solve with dense LAPACK; larger ones factor a sparse LU.
PHI_LAPACK_LIMIT = 200


def _phi_step(model: AbsorbedChainModel):
    """The return map on mass vectors over ``model.states``.

    Builds A = -Q_live from the model's cached live block; the returned
    step maps v to v A^-1 / |v A^-1|.  Above ``PHI_LAPACK_LIMIT`` states A
    is factored once (sparse LU); at or below it every step is a dense
    ``np.linalg.solve``, which factors A again.  A is nonsingular
    exactly when every live state can reach absorption.  On a two-way path
    that holds when some state absorbs; other blocks are checked with a
    virtual absorbing node.
    """
    if not model.is_finite:
        raise ValueError("phi_map needs a finite model; truncate first")
    b = model.live_block()
    n = len(b.states)
    span = np.arange(n)
    if b.two_way_path is not None:
        well_posed = bool((b.absorb > 0).any())
    else:
        absorbing = np.nonzero(b.absorb > 0)[0]
        # edges into the virtual node n from the absorbing states, and out of it to all
        src = np.concatenate([b.src, absorbing, np.full(n, n)])
        dst = np.concatenate([b.dst, np.full(absorbing.size, n), span])
        well_posed = strongly_connected(n + 1, src, dst)
    if not well_posed:
        raise NotIrreducible("some live state cannot reach absorption, so Phi is undefined")
    # transposed, so that solving A^T w = v gives the row vector w = v A^-1
    if n <= PHI_LAPACK_LIMIT:
        a_t = np.diag(b.total)
        np.subtract.at(a_t, (b.dst, b.src), b.rate)

        def solve(v: np.ndarray) -> np.ndarray:
            return np.linalg.solve(a_t, v)

    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        rows = np.concatenate([span, b.dst])
        cols = np.concatenate([span, b.src])
        vals = np.concatenate([b.total, -b.rate])
        solve = splu(sp.csc_matrix((vals, (rows, cols)), shape=(n, n))).solve

    def step(v: np.ndarray) -> np.ndarray:
        w = np.maximum(solve(v), 0.0)  # A^-1 is entrywise nonnegative; this clips round-off
        return w / w.sum()

    return step


def _mass_vector(model: AbsorbedChainModel, mu: Distribution) -> np.ndarray:
    if not set(mu.support) <= set(model.states):
        raise ValueError("mu puts mass outside the model's states")
    return mu.as_vector(model.states)


def _distribution(states, v: np.ndarray) -> Distribution:
    return Distribution.from_weights(dict(zip(states, v.tolist())))


def phi_map(model: AbsorbedChainModel, mu: Distribution) -> Distribution:
    """Invariant distribution of the mu-return chain.

    By the renewal argument of Ferrari, Kesten, Martinez and Picco (1995) it
    is the occupation law before absorption from mu:
    Phi(mu) = mu A^-1 / |mu A^-1| with A = -Q_live.  One linear solve gives
    it: dense LAPACK on windows of at most ``PHI_LAPACK_LIMIT`` states, a
    sparse LU factorization above.

    QSDs are the fixed points of Phi, but on an infinite space it has more
    than one: every QSD nu_theta of ``bd:p,q`` (0 < theta <= theta*) is a
    fixed point, so the return map alone cannot select the minimal QSD.
    On an irreducible finite window the fixed point is unique.
    """
    step = _phi_step(model)
    return _distribution(model.states, step(_mass_vector(model, mu)))


@dataclass
class PhiIterationResult:
    """Iterates of the return-map fixed-point search."""

    dist: Distribution
    tv_log: list[float]
    converged: bool
    iterations: int


def phi_iterate(
    model: AbsorbedChainModel,
    mu0: Distribution,
    max_iters: int = 200,
    tol: float = 1e-10,
) -> PhiIterationResult:
    """Iterate mu -> Phi(mu) until successive iterates agree in TV.

    The iterate is a dense mass vector over ``model.states``, and each
    iteration is one step of :func:`_phi_step` (a dense solve that factors
    A again on windows of at most ``PHI_LAPACK_LIMIT`` states, the one
    sparse LU above); a ``Distribution`` is built only for the result.
    Exhausting ``max_iters`` is reported through ``converged=False`` rather
    than an exception; the TV log is the useful diagnostic either way.
    """
    step = _phi_step(model)
    mu = _mass_vector(model, mu0)
    log: list[float] = []
    converged = False
    for _ in range(max_iters):
        nxt = step(mu)
        gap = 0.5 * float(np.abs(nxt - mu).sum())
        log.append(gap)
        mu = nxt
        if gap < tol:
            converged = True
            break
    return PhiIterationResult(_distribution(model.states, mu), log, converged, len(log))


# -- the time-inhomogeneous limit process ----------------------------------


@dataclass
class Trajectory:
    """Piecewise-constant path: states[i] holds on [times[i], times[i+1])."""

    times: list[float]
    states: list[int]

    def state_at(self, t: float) -> int:
        idx = bisect_right(self.times, t) - 1
        return self.states[max(idx, 0)]

    @property
    def final(self) -> int:
        return self.states[-1]


def simulate_tagged_limit(
    model: AbsorbedChainModel,
    path: ConditionedPath,
    y0: int,
    rng: RngStream,
    horizon: float | None = None,
    event_cap: int = MU_RETURN_EVENT_CAP,
) -> Trajectory:
    """Simulate the limit process of the tagged particle.

    Same driving jumps as the base chain; an absorption attempt at time t
    re-draws the position from the conditioned law at t (interpolated on the
    path grid).  The total event rate at x is the constant r(x) because the
    return law is a probability, so no thinning is needed.
    """
    horizon = path.horizon if horizon is None else horizon
    if horizon > path.horizon + 1e-12:
        raise PathTooShort(f"path covers [0, {path.horizon}], requested {horizon}")
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    t = 0.0
    x = y0
    times = [0.0]
    states = [x]
    events = 0
    while True:
        total = model.total_rate(x)
        if total <= 0.0:
            raise EventCapExceeded(f"state {x} has total rate 0")
        t_next = t + blocks.exp(total)
        if t_next >= horizon:
            break
        t = t_next
        y = model.sample_jump(x, blocks.u())
        if y == 0:
            y = path.inverse_cdf_at(t, blocks.u())
        if y != x:
            times.append(t)
            states.append(y)
            x = y
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} events before t={horizon}")
    return Trajectory(times, states)


# -- graphical construction and the coupling --------------------------------


class MarkStream:
    """Lazily realized internal and voter marks for one particle.

    The internal Poisson process (intensity qbar) carries a uniform mark; the
    voter process (intensity C0) carries a uniform pair (b, v).  Event times
    are strictly increasing within each stream and marks are independent of
    the times, so realizations can be extended on demand.

    ``source`` is either an RngStream (standalone use: the particle gets its
    own independent generators) or a shared :class:`UniformBlock`; drawing
    lazily from a shared block yields the same joint law at a fraction of
    the setup cost when thousands of replicas each need N streams.
    """

    __slots__ = ("qbar", "c0", "_internal", "_voter", "t_internal", "t_voter")

    def __init__(self, qbar: float, c0: float, source):
        if not (math.isfinite(qbar) and math.isfinite(c0)):
            raise ValueError("the graphical construction needs finite qbar and C0")
        self.qbar = qbar
        self.c0 = c0
        if isinstance(source, RngStream):
            self._internal = UniformBlock(source.child(TAG_INTERNAL))
            self._voter = UniformBlock(source.child(TAG_VOTER))
        else:
            self._internal = source
            self._voter = source
        self.t_internal = self._internal.exp(qbar) if qbar > 0 else math.inf
        self.t_voter = self._voter.exp(c0) if c0 > 0 else math.inf

    def pop_internal(self) -> float:
        """Uniform mark of the pending internal event; schedules the next one."""
        u = self._internal.u()
        self.t_internal += self._internal.exp(self.qbar)
        return u

    def pop_voter(self) -> tuple[float, float]:
        """(b, v) mark of the pending voter event; schedules the next one."""
        b = self._voter.u()
        v = self._voter.u()
        self.t_voter += self._voter.exp(self.c0)
        return b, v


def _internal_partition(model: AbsorbedChainModel, qbar: float):
    """Per-state inverse cdf over [0, 1): jump targets in state order, hold last.

    Interval widths are q(x, y)/qbar; the remainder is the holding interval.
    Both coupled processes use the same fixed partition, which is what makes
    internal events preserve coincidence of trajectories.
    """
    cache: dict[int, tuple[tuple[float, ...], tuple[int, ...]]] = {}

    def lookup(x: int):
        got = cache.get(x)
        if got is None:
            cum = []
            targets = []
            running = 0.0
            for y, r in sorted(model.transitions(x)):
                running += r / qbar
                cum.append(running)
                targets.append(y)
            cum.append(1.0)
            targets.append(x)  # holding interval
            got = (tuple(cum), tuple(targets))
            cache[x] = got
        return got

    def draw(x: int, u: float) -> int:
        cum, targets = lookup(x)
        idx = bisect_right(cum, u)
        if idx >= len(targets):
            idx = len(targets) - 1
        return targets[idx]

    return draw


def _voter_target_others(cfg: ParticleConfig, i: int, v: float) -> int:
    """Inverse cdf of the empirical law of the other N - 1 particles at v.

    Intervals are consecutive in increasing state order, matching the
    interval construction used by the limit process.
    """
    x_i = cfg.positions[i]
    target = v * (cfg.N - 1)
    for y in sorted(cfg.occupancy):
        c = cfg.occupancy[y] - (1 if y == x_i else 0)
        if c <= 0:
            continue
        if target < c:
            return y
        target -= c
    return max(y for y, c in cfg.occupancy.items() if c - (1 if y == x_i else 0) > 0)


@dataclass
class CouplingIndicator:
    """First time the coupled trajectories split; monotone indicator psi."""

    diverged: bool
    divergence_time: float | None = None

    def psi(self, t: float) -> int:
        return 1 if self.diverged and t >= self.divergence_time else 0


@dataclass
class CoupledRun:
    """One replica of the coupled FV / limit-process construction."""

    trace: FvTrace
    tagged: Trajectory
    limit: Trajectory
    coupling: CouplingIndicator
    meta: dict = field(default_factory=dict)


def _graphical_engine(
    model: AbsorbedChainModel,
    n: int,
    mu: Distribution,
    horizon: float,
    rng: RngStream,
    grid,
    path: ConditionedPath | None,
    event_cap: int,
):
    """Shared driver: FV from marked streams, optionally coupled with the limit."""
    qbar = model.qbar
    c0 = model.c0
    if qbar is None or c0 is None or not (math.isfinite(qbar) and math.isfinite(c0)):
        raise ValueError(
            "the graphical construction needs declared finite qbar and C0"
            " (position-dependent unbounded rates are not supported here)"
        )
    couple = path is not None
    if couple and horizon > path.horizon + 1e-12:
        raise PathTooShort(f"path covers [0, {path.horizon}], requested {horizon}")

    # shared initial draw for particle 1 and the limit process
    init_blocks = UniformBlock(rng.child(TAG_INIT))
    u_shared = init_blocks.u()
    first = mu.inverse_cdf(u_shared)
    positions = [first] + [mu.sample(init_blocks.u()) for _ in range(n - 1)]
    cfg = ParticleConfig(model, positions)

    shared = UniformBlock(rng.child(TAG_EVENTS))
    streams = [MarkStream(qbar, c0, shared) for i in range(n)]
    heap = []
    for i, ms in enumerate(streams):
        heapq.heappush(heap, (ms.t_internal, i, 0))
        heapq.heappush(heap, (ms.t_voter, i, 1))

    internal_draw = _internal_partition(model, qbar)

    y = first
    y_times = [0.0]
    y_states = [first]
    tagged_times = [0.0]
    tagged_states = [first]
    coupled = True
    divergence_time = None

    grid = np.atleast_1d(np.asarray(grid, dtype=float)) if grid is not None else np.array([horizon])
    gi = 0
    times = []
    measures = []
    events = 0
    revivals = 0

    while heap:
        t_ev, i, kind = heapq.heappop(heap)
        while gi < len(grid) and grid[gi] <= min(t_ev, horizon):
            times.append(grid[gi])
            measures.append(cfg.empirical())
            gi += 1
        if t_ev > horizon:
            break
        ms = streams[i]
        x = cfg.positions[i]
        if kind == 0:
            u = ms.pop_internal()
            heapq.heappush(heap, (ms.t_internal, i, 0))
            target = internal_draw(x, u)
            if target != x:
                cfg.move(i, target)
                if i == 0:
                    tagged_times.append(t_ev)
                    tagged_states.append(target)
            if couple and i == 0:
                y_target = internal_draw(y, u)
                if y_target != y:
                    y = y_target
                    y_times.append(t_ev)
                    y_states.append(y)
        else:
            b, v = ms.pop_voter()
            heapq.heappush(heap, (ms.t_voter, i, 1))
            if b <= model.absorb_rate(x) / c0:
                target = _voter_target_others(cfg, i, v)
                revivals += 1
                if target != x:
                    cfg.move(i, target)
                    if i == 0:
                        tagged_times.append(t_ev)
                        tagged_states.append(target)
                else:
                    target = x
            else:
                target = x
            if couple and i == 0:
                if b <= model.absorb_rate(y) / c0:
                    y_target = path.inverse_cdf_at(t_ev, v)
                    if coupled and y_target != cfg.positions[0]:
                        coupled = False
                        divergence_time = t_ev
                    if y_target != y:
                        y = y_target
                        y_times.append(t_ev)
                        y_states.append(y)
                elif coupled and target != x:
                    # accepted for the particle, rejected for the limit: only
                    # possible after divergence, asserted by monotonicity
                    coupled = False
                    divergence_time = t_ev
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} marks before t={horizon}")

    while gi < len(grid):
        times.append(grid[gi])
        measures.append(cfg.empirical())
        gi += 1

    trace = FvTrace(
        times=np.array(times),
        measures=measures,
        events=events,
        revivals=revivals,
        final=cfg,
    )
    tagged = Trajectory(tagged_times, tagged_states)
    limit = Trajectory(y_times, y_states)
    indicator = CouplingIndicator(not coupled, divergence_time)
    return trace, tagged, limit, indicator


def fv_run_graphical(
    model: AbsorbedChainModel,
    n: int,
    mu: Distribution,
    horizon: float,
    grid,
    rng: RngStream,
    event_cap: int = MU_RETURN_EVENT_CAP,
) -> FvTrace:
    """Fleming-Viot run realized from marked Poisson streams.

    Generates the same law as the Gillespie kernel; exists so the two event
    constructions can be tested against each other.
    """
    trace, _, _, _ = _graphical_engine(model, n, mu, horizon, rng, grid, None, event_cap)
    return trace


def coupled_tagged_run(
    model: AbsorbedChainModel,
    n: int,
    mu: Distribution,
    horizon: float,
    rng: RngStream,
    path: ConditionedPath | None = None,
    grid=None,
    truncation: int | None = None,
    event_cap: int = MU_RETURN_EVENT_CAP,
) -> CoupledRun:
    """Couple FV particle 1 with the limit process on shared marks.

    Both processes read the same internal and voter marks; revival targets
    come from state-ordered interval partitions (the empirical law of the
    other particles for the particle, the conditioned law for the limit), so
    the trajectories coincide until a voter mark falls outside the overlap.
    The returned indicator records the first divergence time.
    """
    if path is None:
        if truncation is None:
            if not model.is_finite:
                raise ValueError("an infinite model needs an explicit truncation")
            truncation = max(model.states)
        maxrate = model.max_total_rate(model.state_window(truncation))
        path = evolve_conditioned(model, mu, horizon, min(1e-3, 0.1 / maxrate), truncation)
    trace, tagged, limit, indicator = _graphical_engine(
        model, n, mu, horizon, rng, grid, path, event_cap
    )
    meta = {"certified": False}  # equilibrium FV convergence is model-dependent
    return CoupledRun(trace, tagged, limit, indicator, meta)
