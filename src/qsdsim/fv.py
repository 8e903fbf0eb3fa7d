"""Event-driven Fleming-Viot particle system.

N particles move independently with the driving rates; a particle that
attempts the absorbing jump instead adopts the position of one of the other
N - 1 particles chosen uniformly at random.  The empirical measure of the
system tracks the conditioned evolution at fixed times and, in its
stationary regime, approximates the QSD (the minimal one when several
exist).

One event kernel, the generator ``_fv_events``, draws every event on the
configuration's own model: fixed-time sampling (:func:`fv_run`) and time
averaging (:func:`fv_stationary`) consume it, each on its stream's
``TAG_EVENTS`` child.  The kernel is one loop that zips its uniforms from
the stream's ``iter(UniformBlock(...))`` and does the draws, the tree walk
and the particle move inline; a state's count is the length of its member
list, kept nowhere else.  Per-event work is kept at O(log S) in the number
of visited states via a weighted tree over states, sized to those states,
because position-dependent rates (the branching population chain) make
per-event rate scans too expensive.  A move climbs the two changed leaves'
paths together, so the ancestors they share are summed once.

A replica opens its stream's ``TAG_EVENTS`` child, and its ``TAG_INIT``
child only when the initial law has more than one state: a point mass
places the particles without a draw.  Recorded measures are the counts / N.
:func:`initial_positions` places the particles and :func:`sample_times`
checks the sample times for this kernel and for the graphical engine of
:mod:`qsdsim.returnproc` alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .chain import AbsorbedChainModel, Distribution
from .errors import DeadConfig, EventCapExceeded, NegativeRate
from .rng import RngStream, UniformBlock, TAG_EVENTS, TAG_INIT

FV_EVENT_CAP = 10**8


class _RateIndex:
    """Weighted binary tree over state slots for O(log) categorical draws.

    Leaf s holds count(state) * rate(state); internal nodes hold child
    sums.  Leaves are re-set (not incremented), so float drift cannot
    accumulate beyond one path of roundings per update.  Plain lists: the
    event loop inlines the descent and the leaf updates.

    The tree is built bottom-up over the given weights, one slot per state
    in their order, at the least power-of-two size that holds them, and
    doubles when a new state needs a slot.  Every internal node is the sum
    of its children however the leaves were set, and a larger tree only
    adds subtrees of zeros (adding 0.0 is exact), so every sum and every
    descent is the same as for leaves set one by one on a smaller tree.
    """

    __slots__ = ("cap", "tree", "slot_of", "state_of")

    def __init__(self, weights: dict[int, float]):
        cap = 1
        while cap < len(weights):
            cap += cap
        tree = [0.0] * (2 * cap)
        tree[cap : cap + len(weights)] = weights.values()
        for i in range(cap - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        self.cap = cap
        self.tree = tree
        self.slot_of: dict[int, int] = {x: slot for slot, x in enumerate(weights)}
        self.state_of: dict[int, int] = dict(enumerate(weights))

    def _grow(self):
        old = self.cap
        self.cap = 2 * old
        tree = [0.0] * (2 * self.cap)
        tree[self.cap : self.cap + old] = self.tree[old : 2 * old]
        for i in range(self.cap - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        self.tree = tree

    def set_weight(self, state: int, w: float):
        slot = self.slot_of.get(state)
        if slot is None:
            slot = len(self.slot_of)
            while slot >= self.cap:
                self._grow()
            self.slot_of[state] = slot
            self.state_of[slot] = state
        i = self.cap + slot
        tree = self.tree
        tree[i] = w
        i >>= 1
        while i:
            tree[i] = tree[2 * i] + tree[2 * i + 1]
            i >>= 1

    @property
    def total(self) -> float:
        return self.tree[1]


def initial_positions(dist: Distribution, n: int, rng: RngStream) -> list[int]:
    """n independent positions from ``dist``, drawn on ``rng``'s ``TAG_INIT`` child.

    A point mass places all n particles at its state and opens no stream:
    its draws could only give that state.  Both FV engines place their
    particles here.
    """
    if len(dist.support) == 1:
        return [dist.support[0]] * n
    return dist.sample_many(rng.child(TAG_INIT).generator(), n).tolist()


def sample_times(grid, horizon: float) -> list[float]:
    """The checked sample times of a run; ``None`` means the horizon alone.

    ``grid`` must be a nonempty increasing sequence of times within the
    horizon (a scalar is a single sample time), or ``ValueError`` is raised.
    """
    if grid is None:
        grid = [horizon]
    try:
        times = [float(s) for s in grid]
    except TypeError:  # a scalar
        times = [float(grid)]
    # comparisons written so that a NaN time or horizon fails them
    if not (
        times
        and 0 <= times[0]
        and times[-1] <= horizon + 1e-12
        and all(a < b for a, b in zip(times, times[1:]))
    ):
        raise ValueError("grid must be nonempty, increasing, nonnegative and within the horizon")
    return times


class ParticleConfig:
    """Positions of the N particles plus the indexes the event loop needs.

    Keeps, per state, the list of particle ids sitting there (swap-remove
    layout), whose length is the state's count, plus the weighted tree for
    rate-proportional particle selection.  ``occupancy`` is a read-only view
    of those lengths; a state the particles left keeps its empty list and
    reads 0.  States take their lists and tree slots in order of first
    appearance in ``positions``.  Only grouping the ids by state walks the
    particles, and a start with every particle at one state skips even that;
    the tree is built per state.
    """

    def __init__(self, model: AbsorbedChainModel, positions):
        positions = [int(x) for x in positions]
        n = len(positions)
        if n < 2:
            raise ValueError("a Fleming-Viot system needs N >= 2 particles")
        first = positions[0]
        if positions.count(first) == n:
            members = {first: list(range(n))}
            where = list(range(n))
        else:
            members = {}
            where = [0] * n
            for i, x in enumerate(positions):
                lst = members.get(x)
                if lst is None:
                    members[x] = [i]
                else:
                    where[i] = len(lst)
                    lst.append(i)
        if min(members) <= 0:
            raise ValueError("particles cannot start at the absorbing state")
        self.model = model
        self.N = n
        self.positions = positions
        self.members = members
        self.where = where
        self.index = _RateIndex({x: len(lst) * model.total_rate(x) for x, lst in members.items()})

    @classmethod
    def from_distribution(
        cls, model: AbsorbedChainModel, dist: Distribution, n: int, rng: RngStream
    ) -> "ParticleConfig":
        """Independent positions from ``dist``: see :func:`initial_positions`."""
        return cls(model, initial_positions(dist, n, rng))

    @property
    def occupancy(self) -> MappingProxyType:
        """The count per state, in the order of ``members``."""
        return MappingProxyType({x: len(lst) for x, lst in self.members.items()})

    def empirical(self) -> Distribution:
        return Distribution.from_counts(self.occupancy, self.N)


def _fv_events(cfg: ParticleConfig, rng: RngStream, until: float, event_cap: int):
    """The events of ``cfg`` on ``cfg.model`` before ``until``, from ``rng``'s ``TAG_EVENTS`` child.

    Yields ``(t, particle, source, target, revived)`` with cfg still as it
    was before the event, and moves the particle when resumed; cfg must not
    be changed while the generator is suspended.  Each event draws, in
    order: the exponential wait, the state (rate-weighted), the particle
    there, the jump, and on an absorption attempt the other particle to copy
    (uniform, by rejection).  Nothing is drawn after the first event time
    >= ``until``.  An aggregate rate that overflows raises
    :class:`~qsdsim.errors.NegativeRate`, one that is 0 :class:`DeadConfig`.

    One loop does the tree descent, the work of
    ``AbsorbedChainModel.sample_jump`` and the particle move: the
    swap-remove from the source's members, then both leaves, each weighted
    by the length of the member list just changed.  The two leaf paths are
    climbed together up to the ancestor they share and once from there, so
    each ancestor is summed once, from its final children.  The uniforms
    come from ``iter(UniformBlock(...))`` on the stream, four per event
    through one ``zip`` and the revival draws by ``next``.
    """
    us = iter(UniformBlock(rng.child(TAG_EVENTS)))
    index = cfg.index
    tree = index.tree
    cap = index.cap
    slot_of = index.slot_of
    state_of = index.state_of
    members = cfg.members
    where = cfg.where
    positions = cfg.positions
    n = cfg.N
    jump_table = cfg.model.jump_table
    tables: dict[int, tuple] = {}  # state -> (targets, cumulative rates, total rate)
    log1p = math.log1p
    inf = math.inf
    t = 0.0
    events = 0
    for u_wait, u_state, u_particle, u_jump in zip(us, us, us, us):
        agg = tree[1]
        if not 0.0 < agg < inf:
            if agg > 0.0:
                raise NegativeRate(f"the aggregate rate of {n} particles overflows at t={t:g}")
            raise DeadConfig("aggregate rate is 0; every particle sits at a dead state")
        t += -log1p(-u_wait) / agg
        if t >= until:
            return
        # the state whose leaf interval holds u * agg
        w = u_state * agg
        k = 1
        while k < cap:
            k += k
            left = tree[k]
            if w >= left:
                w -= left
                k += 1
        x = state_of[k - cap]
        lst = members[x]
        i = lst[int(u_particle * len(lst))]
        table = tables.get(x)
        if table is None:
            table = tables[x] = jump_table(x)
        targets, cum, total = table
        if total <= 0.0:
            raise EventCapExceeded(f"state {x} has total rate 0; the chain is stuck")
        k = bisect_right(cum, u_jump * total)
        y = targets[k] if k < len(targets) else targets[-1]
        revived = y == 0
        if revived:
            j = i
            while j == i:
                j = int(next(us) * n)
            y = positions[j]
        yield t, i, x, y, revived
        if y != x:
            # swap-remove i from x and add it to y
            k = where[i]
            last = lst[-1]
            lst[k] = last
            where[last] = k
            lst.pop()
            positions[i] = y
            dst = members.get(y)
            if dst is None:
                dst = members[y] = []
            where[i] = len(dst)
            dst.append(i)
            table = tables.get(y)
            if table is None:
                table = tables[y] = jump_table(y)
            k = cap + slot_of[x]
            tree[k] = len(lst) * total
            slot = slot_of.get(y)
            if slot is None:
                # a state's first visit: x's path alone, then y's leaf, where
                # the tree may double
                while k > 1:
                    tree[k >> 1] = tree[k] + tree[k ^ 1]
                    k >>= 1
                index.set_weight(y, len(dst) * table[2])
                tree = index.tree
                cap = index.cap
            else:
                ky = cap + slot
                tree[ky] = len(dst) * table[2]
                k >>= 1
                ky >>= 1
                while k != ky:
                    tree[k] = tree[k + k] + tree[k + k + 1]
                    tree[ky] = tree[ky + ky] + tree[ky + ky + 1]
                    k >>= 1
                    ky >>= 1
                while k:
                    tree[k] = tree[k + k] + tree[k + k + 1]
                    k >>= 1
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} events before t={until}")


@dataclass
class FvTrace:
    """Sampled empirical measures of one run plus its event counters.

    ``final`` is the Gillespie kernel's configuration at the end of the run;
    the graphical engine keeps positions and counts only and leaves it None.
    """

    times: np.ndarray
    measures: list[Distribution]
    events: int
    revivals: int
    final: ParticleConfig | None = None


def _resolve_init(model, init, n, rng) -> ParticleConfig:
    if isinstance(init, ParticleConfig):
        if init.model is not model:
            raise ValueError(f"init is a configuration of {init.model!r}; the run's model"
                             f" is {model!r}, another object")
        if n is not None and n != init.N:
            raise ValueError(f"n = {n} particles asked, but init is a configuration of {init.N}")
        return init
    if isinstance(init, Distribution):
        if n is None:
            raise ValueError("n is required when init is a Distribution")
        return ParticleConfig.from_distribution(model, init, n, rng)
    raise TypeError("init must be a ParticleConfig or a Distribution")


def fv_run(
    model: AbsorbedChainModel,
    init,
    horizon: float,
    grid,
    rng: RngStream,
    n: int | None = None,
    event_cap: int = FV_EVENT_CAP,
) -> FvTrace:
    """Run the system to the last grid time, recording the empirical measure on the grid.

    ``grid`` is a nonempty increasing sequence of sample times within the
    horizon (a scalar is treated as a single sample time).  Deterministic
    for a fixed (seed, path).
    """
    cfg = _resolve_init(model, init, n, rng)
    times = sample_times(grid, horizon)
    measures = []
    events = 0
    revivals = 0
    for t, _, _, _, revived in _fv_events(cfg, rng, times[-1], event_cap):
        # the grid times up to this event see the configuration before it
        while times[len(measures)] <= t:
            measures.append(cfg.empirical())
        events += 1
        revivals += revived
    while len(measures) < len(times):
        measures.append(cfg.empirical())
    return FvTrace(
        times=np.array(times),
        measures=measures,
        events=events,
        revivals=revivals,
        final=cfg,
    )


def fv_stationary(
    model: AbsorbedChainModel,
    n: int,
    burn_in: float | None,
    horizon: float,
    rng: RngStream,
    init: Distribution | ParticleConfig | None = None,
    event_cap: int = FV_EVENT_CAP,
) -> Distribution:
    """Time-averaged empirical measure over (burn_in, horizon].

    Estimates the mean of the empirical measure under the stationary law of
    the system.  The average is exact over the piecewise-constant trajectory
    (occupancy times holding durations), not a grid subsample.  Burn-in
    defaults to a tenth of the horizon; its adequacy is heuristic (no
    mixing-rate theory is available for these dynamics), so callers should
    check stability against longer runs.
    """
    if burn_in is None:
        burn_in = horizon / 10.0
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    if init is None:
        init = Distribution.delta(model.states[0] if model.is_finite else 1)
    cfg = _resolve_init(model, init, n, rng)
    members = cfg.members
    acc: dict[int, float] = {}
    last_change: dict[int, float] = {}
    # each state's mass is flushed into acc when its count changes: the
    # source, which holds the moving particle, and then the target
    for t, _, x, y, _ in _fv_events(cfg, rng, horizon, event_cap):
        if t > burn_in and y != x:
            acc[x] = acc.get(x, 0.0) + len(members[x]) * (t - last_change.get(x, burn_in))
            last_change[x] = t
            dst = members.get(y)
            if dst:
                acc[y] = acc.get(y, 0.0) + len(dst) * (t - last_change.get(y, burn_in))
            last_change[y] = t
    for x, lst in members.items():
        if lst:
            acc[x] = acc.get(x, 0.0) + len(lst) * (horizon - last_change.get(x, burn_in))
    total = math.fsum(acc.values())
    if total <= 0:
        raise DeadConfig("no occupation mass accumulated after burn-in")
    return Distribution.from_weights(acc)


@dataclass(frozen=True)
class CorrelationProbe:
    """Estimated |Cov(m(x), m(y))| at a fixed time against its a-priori bound."""

    estimate: float
    bound: float
    stderr: float
    replicas: int


def correlation_probe(
    model: AbsorbedChainModel,
    n: int,
    t: float,
    x: int,
    y: int,
    replicas: int,
    rng: RngStream,
    init: Distribution | None = None,
) -> CorrelationProbe:
    """Monte Carlo check of the particle decorrelation bound 2 e^{2 C0 t} / N.

    Runs independent replicas from a fixed initial configuration and
    estimates |E[m(x)m(y)] - E m(x) E m(y)| at time t.  The standard error
    is the influence-function estimate for the covariance statistic.
    """
    if replicas < 100:
        raise ValueError("use at least 100 replicas for a meaningful probe")
    if init is None:
        init = Distribution.delta(model.states[0] if model.is_finite else 1)
    a = np.empty(replicas)
    b = np.empty(replicas)
    for r in range(replicas):
        replica = rng.child(r)
        cfg = ParticleConfig.from_distribution(model, init, n, replica)
        trace = fv_run(model, cfg, t, [t], replica.child(TAG_EVENTS))
        m = trace.measures[-1]
        a[r] = m.mass(x)
        b[r] = m.mass(y)
    cov = float(np.mean(a * b) - np.mean(a) * np.mean(b))
    infl = (a - a.mean()) * (b - b.mean()) - cov
    stderr = float(infl.std(ddof=1) / math.sqrt(replicas))
    c0 = model.c0
    if c0 is None:
        raise ValueError("the model must declare C0 for the decorrelation bound")
    bound = 2.0 * math.exp(2.0 * c0 * t) / n
    return CorrelationProbe(abs(cov), bound, stderr, replicas)
