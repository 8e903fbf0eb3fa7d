"""The return process, its fixed-point map, and the tagged-particle coupling.

A chain Z^mu that re-enters the live states with law mu whenever it absorbs
has effective rates q(x, y) + q(x, 0) mu(y).  Its invariant law defines the
map Phi(mu); QSDs are exactly the fixed points of Phi, which makes both the
direct iteration and the time-inhomogeneous "tagged particle" limit process
(return law T_t mu) useful simulation routes.  By the renewal argument of
Ferrari, Kesten, Martinez and Picco (1995), Phi(mu) = mu A^-1 / |mu A^-1|
with A = -Q_live, the normalized occupation law before absorption from mu;
``phi_map`` computes it as one linear solve, and ``simulate_mu_return``
checks it by simulation.  Both simulators here run ``chain._z_mu_events``,
the Gillespie loop of the run up to absorption too.  On an infinite space
every QSD nu_theta of ``bd:p,q`` is a fixed point of Phi, so the return
map alone cannot select the minimal QSD.

The second half of the module realizes the Fleming-Viot system from marked
Poisson streams (internal jumps plus voter/revival events per particle) and
couples particle 1 with the limit process on the same marks, tracking the
indicator that the two trajectories have split.  The engine keeps each
particle's next internal and voter mark time in one heap and draws every
mark from one block on its stream's ``TAG_EVENTS`` child.  An internal mark
moves a particle through the model's ``jump_table``, the table the
Gillespie kernels draw from, so no second copy of the rates is built.  The
engine places the particles with ``fv.initial_positions``, which opens the
``TAG_INIT`` child only when the initial law has more than one state: a
point mass places them without a draw.

``phi_map`` and ``phi_iterate`` read ``oracle.return_map_iterates``, the
one Phi step, which the oracle's inverse iteration reads too.  scipy is
used only where ``LiveBlock.generator_t`` is CSR: by the sparse LU on
windows that are not two-way paths and have more than
``oracle.PHI_LAPACK_LIMIT`` states, and through ``evolve_conditioned`` on
windows of more than ``DENSE_WINDOW_LIMIT`` (400) states; both import it
when they run.  The return map on a two-way path (every builtin chain, at
any size) calls no linear-algebra library at all.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .chain import AbsorbedChainModel, Distribution, _z_mu_events
from .conditioned import ConditionedPath, evolve_conditioned
from .errors import EventCapExceeded, PathTooShort
from .fv import FvTrace, initial_positions, sample_times
from .oracle import return_map_iterates, return_map_solver
from .rng import RngStream, UniformBlock, TAG_EVENTS

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

    The chain is Z^mu of :func:`~qsdsim.chain._z_mu_events`: base Gillespie
    dynamics, and an absorbing jump instantaneously re-draws the position
    from mu (landing on the current state is a null event).  The occupation
    measure over [0, horizon] estimates Phi(mu) for long runs.
    """
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    t, y = 0.0, mu.sample(blocks.u())
    events = returns = 0
    acc: dict[int, float] = {}
    for events, (t, dt, x, y, returned) in enumerate(
        _z_mu_events(model, y, blocks, horizon, lambda t, u: mu.sample(u), event_cap), 1
    ):
        acc[x] = acc.get(x, 0.0) + dt
        returns += returned
    acc[y] = acc.get(y, 0.0) + (horizon - t)
    return OccupationResult(Distribution.from_weights(acc), events, returns, horizon)


def _phi_iterates(model: AbsorbedChainModel, mu: Distribution):
    """The iterates of Phi from mu as mass vectors over ``model.states``, A factored once.

    Raises :class:`NotIrreducible` where some live state cannot reach absorption.
    """
    solve = return_map_solver(model.live_block())  # an infinite model raises ValueError here
    if not set(mu.support) <= set(model.states):
        raise ValueError("mu puts mass outside the model's states")
    return return_map_iterates(solve, mu.as_vector(model.states))


def _distribution(states, v: np.ndarray) -> Distribution:
    return Distribution.from_weights(dict(zip(states, v.tolist())))


def phi_map(model: AbsorbedChainModel, mu: Distribution) -> Distribution:
    """Invariant distribution of the mu-return chain.

    By the renewal argument of Ferrari, Kesten, Martinez and Picco (1995) it
    is the occupation law before absorption from mu:
    Phi(mu) = mu A^-1 / |mu A^-1| with A = -Q_live, the first of the
    iterates of :func:`~qsdsim.oracle.return_map_iterates`.

    QSDs are the fixed points of Phi, but on an infinite space it has more
    than one: every QSD nu_theta of ``bd:p,q`` (0 < theta <= theta*) is a
    fixed point, so the return map alone cannot select the minimal QSD.
    On an irreducible finite window the fixed point is unique.
    """
    w, _, _ = next(_phi_iterates(model, mu))
    return _distribution(model.states, w)


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

    The iterate is a dense mass vector over ``model.states``, taken from
    :func:`~qsdsim.oracle.return_map_iterates` with A factored once for the
    whole run; a ``Distribution`` is built only for the result.
    Exhausting ``max_iters`` (at least 1) is reported through
    ``converged=False`` rather than an exception; the TV log is the useful
    diagnostic either way.
    """
    if max_iters < 1:
        raise ValueError(f"phi_iterate needs max_iters >= 1, got {max_iters}")
    log: list[float] = []
    converged = False
    for mu, _, gap in islice(_phi_iterates(model, mu0), max_iters):
        log.append(gap)
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

    Z^mu of :func:`~qsdsim.chain._z_mu_events` with a moving mu: same
    driving jumps as the base chain, and an absorption attempt at time t
    re-draws the position from the conditioned law at t (read exactly from
    the path).  The total event rate at x is the constant r(x) because the
    return law is a probability, so no thinning is needed.
    """
    horizon = path.horizon if horizon is None else horizon
    if horizon > path.horizon + 1e-12:
        raise PathTooShort(f"path covers [0, {path.horizon}], requested {horizon}")
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    times, states = [0.0], [y0]
    for t, _, x, y, _ in _z_mu_events(model, y0, blocks, horizon, path.inverse_cdf_at, event_cap):
        if y != x:
            times.append(t)
            states.append(y)
    return Trajectory(times, states)


# -- graphical construction and the coupling --------------------------------


def _internal_target(model: AbsorbedChainModel, x: int, u: float) -> int:
    """Where an internal mark with uniform u moves x.

    The ``jump_table(x)`` target whose interval holds a(x) + u qbar, past
    the absorption entry a(x) that comes first; x holds when the sum is at
    least the table's total.  So a jump to y has width q(x, y)/qbar in u,
    and both coupled processes read the same table.
    """
    targets, cum, total = model.jump_table(x)
    s = model.absorb_rate(x) + u * model.qbar
    return x if s >= total else targets[bisect_right(cum, s)]


def _voter_target_others(occupancy: dict[int, int], n: int, x_i: int, v: float) -> int:
    """Inverse cdf at v of the empirical law of the N - 1 particles other than one at x_i.

    Intervals are consecutive in increasing state order, matching the
    interval construction used by the limit process.
    """
    target = v * (n - 1)
    for y in sorted(occupancy):
        c = occupancy[y] - (1 if y == x_i else 0)
        if c <= 0:
            continue
        if target < c:
            return y
        target -= c
    return max(y for y, c in occupancy.items() if c - (1 if y == x_i else 0) > 0)


@dataclass
class CouplingIndicator:
    """First time the coupled trajectories split (None: never); monotone indicator psi."""

    divergence_time: float | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence_time is not None

    def psi(self, t: float) -> int:
        return 1 if self.diverged and t >= self.divergence_time else 0


@dataclass
class CoupledRun:
    """One replica of the coupled FV / limit-process construction."""

    trace: FvTrace
    tagged: Trajectory
    limit: Trajectory
    coupling: CouplingIndicator


def _graphical_engine(
    model: AbsorbedChainModel,
    n: int,
    mu: Distribution,
    horizon: float,
    rng: RngStream,
    grid,
    path: ConditionedPath | None,
    event_cap: int,
) -> CoupledRun:
    """Shared driver: FV from marked streams, optionally coupled with the limit.

    The system is the particle positions and the count per state: the marks
    pick the particles, so nothing indexes particles by state or rate.  The
    heap holds each particle's next internal mark (rate qbar, moved by
    :func:`_internal_target`) and next voter mark (rate C0).  Every mark is
    drawn from one block on the stream's ``TAG_EVENTS`` child: first
    exp(qbar) then exp(C0) for each particle in turn, then per popped mark
    its uniform u (internal) or its pair (b, v) (voter), and the wait to
    that particle's next mark of the same kind.
    """
    qbar = model.qbar
    c0 = model.c0
    if qbar is None or c0 is None or not (math.isfinite(qbar) and math.isfinite(c0)):
        raise ValueError(
            "the graphical construction needs finite qbar and C0, declared or on a finite model"
            " (position-dependent unbounded rates are not supported here)"
        )
    couple = path is not None
    if couple and horizon > path.horizon + 1e-12:
        raise PathTooShort(f"path covers [0, {path.horizon}], requested {horizon}")
    if n < 2:
        raise ValueError("a Fleming-Viot system needs N >= 2 particles")
    grid = sample_times(grid, horizon)

    # particle 1 and the limit process start at the same state
    positions = initial_positions(mu, n, rng)
    occupancy: dict[int, int] = {}
    for x in positions:
        occupancy[x] = occupancy.get(x, 0) + 1
    first = positions[0]

    blocks = UniformBlock(rng.child(TAG_EVENTS))
    heap = []
    for i in range(n):
        heap.append((blocks.exp(qbar) if qbar > 0 else math.inf, i, 0))
        heap.append((blocks.exp(c0) if c0 > 0 else math.inf, i, 1))
    heapq.heapify(heap)  # (time, particle, kind) keys are distinct: one pop order

    absorb_rate = model.absorb_rate

    y = first
    y_times = [0.0]
    y_states = [first]
    tagged_times = [0.0]
    tagged_states = [first]
    divergence_time = None

    gi = 0
    times = []
    measures = []
    events = 0
    revivals = 0

    while heap:
        t_ev, i, kind = heapq.heappop(heap)
        while gi < len(grid) and grid[gi] <= min(t_ev, horizon):
            times.append(grid[gi])
            measures.append(Distribution.from_counts(occupancy, n))
            gi += 1
        if t_ev > horizon:
            break
        x = positions[i]
        if kind == 0:
            u = blocks.u()
            heapq.heappush(heap, (t_ev + blocks.exp(qbar), i, 0))
            target = _internal_target(model, x, u)
        else:
            b = blocks.u()
            v = blocks.u()
            heapq.heappush(heap, (t_ev + blocks.exp(c0), i, 1))
            if b <= absorb_rate(x) / c0:
                target = _voter_target_others(occupancy, n, x, v)
                revivals += 1
            else:
                target = x
        if target != x:
            occupancy[x] -= 1
            occupancy[target] = occupancy.get(target, 0) + 1
            positions[i] = target
            if i == 0:
                tagged_times.append(t_ev)
                tagged_states.append(target)
        if couple and i == 0:
            if kind == 0:
                y_target = _internal_target(model, y, u)
            elif b <= absorb_rate(y) / c0:
                y_target = path.inverse_cdf_at(t_ev, v)
            else:
                y_target = y
            if y_target != y:
                y = y_target
                y_times.append(t_ev)
                y_states.append(y)
            # while coupled, both sit at one state and read each mark alike,
            # so only a revival can part them
            if divergence_time is None and positions[0] != y:
                divergence_time = t_ev
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} marks before t={horizon}")

    while gi < len(grid):
        times.append(grid[gi])
        measures.append(Distribution.from_counts(occupancy, n))
        gi += 1

    trace = FvTrace(times=np.array(times), measures=measures, events=events, revivals=revivals)
    return CoupledRun(
        trace,
        Trajectory(tagged_times, tagged_states),
        Trajectory(y_times, y_states),
        CouplingIndicator(divergence_time),
    )


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
    return _graphical_engine(model, n, mu, horizon, rng, grid, None, event_cap).trace


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
        path = evolve_conditioned(model, mu, horizon, None, model.truncation_or_top(truncation))
    return _graphical_engine(model, n, mu, horizon, rng, grid, path, event_cap)
