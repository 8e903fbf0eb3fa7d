"""Event-driven Fleming-Viot particle system.

N particles move independently with the driving rates; a particle that
attempts the absorbing jump instead adopts the position of one of the other
N - 1 particles chosen uniformly at random.  The empirical measure of the
system tracks the conditioned evolution at fixed times and, in its
stationary regime, approximates the QSD (the minimal one when several
exist).

One event kernel, the generator ``_fv_events``, draws every event:
fixed-time sampling (:func:`fv_run`), time averaging (:func:`fv_stationary`)
and the single-step view (:func:`fv_step`) consume it, so all three see the
same draws.  Per-event work is kept at O(log S) in the number of occupied
states via a weighted tree over states, because position-dependent rates
(the branching population chain) make per-event rate scans too expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import AbsorbedChainModel, Distribution
from .errors import DeadConfig, EventCapExceeded
from .rng import RngStream, UniformBlock, TAG_EVENTS, TAG_INIT, event_block

FV_EVENT_CAP = 10**8


class _RateIndex:
    """Weighted binary tree over state slots for O(log) categorical draws.

    Leaf s holds occupancy(state) * rate(state); internal nodes hold child
    sums.  Leaves are re-set (not incremented), so float drift cannot
    accumulate beyond one path of roundings per update.  Plain lists: the
    tree is walked one scalar at a time in the event loop.
    """

    __slots__ = ("cap", "tree", "slot_of", "state_of", "free")

    def __init__(self, cap: int = 64):
        self.cap = cap
        self.tree = [0.0] * (2 * cap)
        self.slot_of: dict[int, int] = {}
        self.state_of: dict[int, int] = {}
        self.free: list[int] = []

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
            if self.free:
                slot = self.free.pop()
            else:
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

    def sample(self, u: float) -> int:
        """State whose weight interval contains u * total."""
        tree = self.tree
        target = u * tree[1]
        i = 1
        cap = self.cap
        while i < cap:
            i += i
            left = tree[i]
            if target >= left:
                target -= left
                i += 1
        return self.state_of[i - cap]


class ParticleConfig:
    """Positions of the N particles plus the indexes the event loop needs.

    Keeps, per state: the occupancy count and the list of particle ids
    sitting there (swap-remove layout), plus the weighted tree for
    rate-proportional particle selection.
    """

    def __init__(self, model: AbsorbedChainModel, positions):
        positions = [int(x) for x in positions]
        if len(positions) < 2:
            raise ValueError("a Fleming-Viot system needs N >= 2 particles")
        if any(x <= 0 for x in positions):
            raise ValueError("particles cannot start at the absorbing state")
        self.model = model
        self.N = len(positions)
        self.positions = positions
        self.occupancy: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}
        self.where = [0] * self.N
        self.index = _RateIndex()
        for i, x in enumerate(self.positions):
            self.occupancy[x] = self.occupancy.get(x, 0) + 1
            lst = self.members.setdefault(x, [])
            self.where[i] = len(lst)
            lst.append(i)
        for x, c in self.occupancy.items():
            self.index.set_weight(x, c * model.total_rate(x))

    @classmethod
    def from_distribution(
        cls, model: AbsorbedChainModel, dist: Distribution, n: int, rng: RngStream
    ) -> "ParticleConfig":
        """Independent positions drawn from ``dist`` (one draw per particle)."""
        gen = rng.child(TAG_INIT).generator()
        return cls(model, dist.sample_many(gen, n))

    @property
    def aggregate_rate(self) -> float:
        return self.index.total

    def empirical(self) -> Distribution:
        return Distribution.from_weights({x: c for x, c in self.occupancy.items() if c})

    def move(self, i: int, target: int) -> None:
        """Relocate particle i, updating occupancy, membership and weights."""
        src = self.positions[i]
        if target == src:
            return
        lst = self.members[src]
        j = self.where[i]
        last = lst[-1]
        lst[j] = last
        self.where[last] = j
        lst.pop()
        self.occupancy[src] -= 1
        self.index.set_weight(src, self.occupancy[src] * self.model.total_rate(src))
        self.positions[i] = target
        dst = self.members.setdefault(target, [])
        self.where[i] = len(dst)
        dst.append(i)
        self.occupancy[target] = self.occupancy.get(target, 0) + 1
        self.index.set_weight(target, self.occupancy[target] * self.model.total_rate(target))

    def check_consistency(self, tol: float = 1e-9) -> None:
        """Debug invariants: counts sum to N and the tree matches a recompute."""
        assert sum(c for c in self.occupancy.values()) == self.N
        assert all(x > 0 for x, c in self.occupancy.items() if c)
        exact = math.fsum(
            c * self.model.total_rate(x) for x, c in self.occupancy.items() if c
        )
        assert abs(self.index.total - exact) <= tol * max(1.0, exact)


@dataclass(frozen=True)
class FvEvent:
    kind: str  # "jump" or "revival"
    particle: int
    source: int
    target: int


def fv_step(cfg: ParticleConfig, model: AbsorbedChainModel, rng) -> tuple[float, ParticleConfig, FvEvent]:
    """One event of the particle system; cfg is updated in place.

    Waits an exponential time at the aggregate rate, picks a particle
    proportionally to its total rate, then either performs the driving jump
    or, on an absorption attempt, a revival onto a uniformly chosen other
    particle.  ``rng`` may be an RngStream, a Generator or a UniformBlock;
    the event is the first one :func:`fv_run` would draw from it.
    """
    events = _fv_events(cfg, model, event_block(rng), math.inf, FV_EVENT_CAP)
    dt, i, x, target, revived = next(events)
    cfg.move(i, target)
    return dt, cfg, FvEvent("revival" if revived else "jump", i, x, target)


def _fv_events(cfg: ParticleConfig, model: AbsorbedChainModel, blocks: UniformBlock,
               until: float, event_cap: int):
    """The system's events before time ``until``, drawn from ``blocks``.

    Yields ``(t, particle, source, target, revived)`` with cfg still as it
    was before the event, and moves the particle when resumed.  Each event
    draws, in order: the exponential wait, the state (rate-weighted), the
    particle there, the jump, and on an absorption attempt the other
    particle to copy (uniform, by rejection).  Nothing is drawn after the
    first event time >= ``until``.
    """
    index = cfg.index
    members = cfg.members
    positions = cfg.positions
    n = cfg.N
    move = cfg.move
    u = blocks.u
    sample_jump = model.sample_jump
    t = 0.0
    events = 0
    while True:
        agg = index.tree[1]
        if agg <= 0.0:
            raise DeadConfig("aggregate rate is 0; every particle sits at a dead state")
        t += blocks.exp(agg)
        if t >= until:
            return
        x = index.sample(u())
        lst = members[x]
        i = lst[int(u() * len(lst))]
        target = sample_jump(x, u())
        revived = target == 0
        if revived:
            j = i
            while j == i:
                j = int(u() * n)
            target = positions[j]
        yield t, i, x, target, revived
        move(i, target)
        events += 1
        if events > event_cap:
            raise EventCapExceeded(f"more than {event_cap} events before t={until}")


@dataclass
class FvTrace:
    """Sampled empirical measures of one run plus its event counters."""

    times: np.ndarray
    measures: list[Distribution]
    events: int
    revivals: int
    final: ParticleConfig | None = None
    meta: dict = field(default_factory=dict)


def _resolve_init(model, init, n, rng) -> ParticleConfig:
    if isinstance(init, ParticleConfig):
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

    ``grid`` is an increasing sequence of sample times within the horizon
    (a scalar is treated as a single sample time).  Deterministic for a
    fixed (seed, path).
    """
    cfg = _resolve_init(model, init, n, rng)
    blocks = event_block(rng)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if (np.diff(grid) <= 0).any() or (grid < 0).any() or grid[-1] > horizon + 1e-12:
        raise ValueError("grid must be increasing, nonnegative and within the horizon")
    times = grid.tolist()
    measures = []
    events = 0
    revivals = 0
    for t, _, _, _, revived in _fv_events(cfg, model, blocks, times[-1], event_cap):
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
    occupancy = cfg.occupancy
    acc: dict[int, float] = {}
    last_change: dict[int, float] = {}

    def flush(x: int, now: float):
        c = occupancy.get(x, 0)
        if c:
            acc[x] = acc.get(x, 0.0) + c * (now - last_change.get(x, burn_in))
        last_change[x] = now

    for t, _, x, target, _ in _fv_events(cfg, model, event_block(rng), horizon, event_cap):
        if t > burn_in and target != x:
            flush(x, t)
            flush(target, t)
    for x in list(occupancy):
        flush(x, horizon)
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
        positions = init.sample_many(rng.child(r, TAG_INIT).generator(), n)
        cfg = ParticleConfig(model, positions)
        trace = fv_run(model, cfg, t, [t], rng.child(r, TAG_EVENTS))
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
