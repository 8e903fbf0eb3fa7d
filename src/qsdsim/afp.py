"""History-renewal approximation of the discrete-time QSD.

A walker moves with the substochastic matrix; on a kill event it re-enters
according to the empirical distribution of its own past positions.  The
normalized history converges to the QSD of the discrete chain (the
Aldous-Flannery-Palacios scheme).  The history starts as a unit atom at the
start state so the renewal draw is always well defined.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .chain import Distribution, tv_distance
from .models import DiscreteChainModel
from .rng import RngStream, UniformBlock, TAG_EVENTS

# 64-bit counts; refuse to grow the history past this total mass.
MASS_LIMIT = 1 << 62


@dataclass
class HistoryState:
    """Walker position plus the counting measure of all positions so far."""

    walker: int
    counts: dict[int, int]
    total: int
    step: int
    history: list[int] = field(default_factory=list)

    @classmethod
    def start_at(cls, x: int) -> "HistoryState":
        return cls(walker=x, counts={x: 1}, total=1, step=0, history=[x])

    def distribution(self) -> Distribution:
        """Normalized history mu_n / |mu_n|."""
        return Distribution.from_weights({x: c for x, c in self.counts.items()})


def afp_step(h: HistoryState, d: DiscreteChainModel, rng) -> HistoryState:
    """One renewal step; h is updated in place and returned.

    The next position is y with probability P(x, y) + kill(x) mu(y)/|mu|.
    Drawing a uniform element of the stored history list realizes the
    renewal part exactly in O(1).
    """
    blocks = rng if isinstance(rng, UniformBlock) else UniformBlock(
        rng.child(TAG_EVENTS) if isinstance(rng, RngStream) else rng
    )
    if h.total >= MASS_LIMIT:
        raise OverflowError("history mass exceeds the 2^62 bookkeeping limit")
    i = d.index[h.walker]
    cum = d.cum_rows[i]
    u = blocks.u()
    if u < cum[-1]:
        y = d.states[bisect_right(cum, u)]
    else:
        y = h.history[int(blocks.u() * h.total)]
    h.walker = y
    h.counts[y] = h.counts.get(y, 0) + 1
    h.total += 1
    h.step += 1
    h.history.append(y)
    return h


@dataclass
class AfpResult:
    estimate: Distribution
    checkpoints: list[int]
    checkpoint_tv: list[float]
    steps: int


def afp_run(
    d: DiscreteChainModel,
    start: int,
    steps: int,
    rng: RngStream,
    checkpoints=None,
    reference: Distribution | None = None,
) -> AfpResult:
    """Run the renewal chain and report the normalized history.

    ``checkpoints`` (defaults to steps/8, /4, /2 and steps) record the TV to
    ``reference`` when one is supplied; the discrete oracle is the natural
    reference on finite windows.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps + 1 >= MASS_LIMIT:
        raise OverflowError("history mass would exceed the 2^62 bookkeeping limit")
    if start not in d.index:
        raise ValueError(f"start state {start} not in the window")
    if checkpoints is None:
        checkpoints = sorted({max(1, steps // 8), max(1, steps // 4), max(1, steps // 2), steps})
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints[-1] != steps:
        raise ValueError("the last checkpoint must equal steps")

    h = HistoryState.start_at(start)
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    cums = [tuple(row) for row in d.cum_rows]
    states = d.states
    index = d.index
    history = h.history
    counts = h.counts

    ci = 0
    tv_log: list[float] = []
    n = 0
    walker = h.walker
    while n < steps:
        u = blocks.u()
        cum = cums[index[walker]]
        if u < cum[-1]:
            walker = states[bisect_right(cum, u)]
        else:
            walker = history[int(blocks.u() * (n + 1))]
        counts[walker] = counts.get(walker, 0) + 1
        history.append(walker)
        n += 1
        if n == checkpoints[ci]:
            if reference is not None:
                est = Distribution.from_weights({x: c for x, c in counts.items()})
                tv_log.append(tv_distance(est, reference))
            ci += 1
    h.walker = walker
    h.total = 1 + steps
    h.step = steps
    return AfpResult(h.distribution(), checkpoints, tv_log, steps)
