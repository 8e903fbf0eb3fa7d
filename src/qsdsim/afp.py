"""History-renewal approximation of the discrete-time QSD.

A walker moves with the uniformized substochastic matrix P = I + Q/rate,
read from the window model's ``jump_table``; on a kill event it re-enters
according to the empirical distribution of its own past positions.  The
normalized history converges to the QSD of the discrete chain (the
Aldous-Flannery-Palacios scheme).
The history starts as a unit atom at the start state so the renewal draw
is always well defined.  One loop, ``_advance``, takes the steps;
:func:`afp_run` advances it from checkpoint to checkpoint.
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


def _advance(h: HistoryState, d: DiscreteChainModel, blocks: UniformBlock, steps: int) -> None:
    """Take ``steps`` renewal steps in place.

    The next position is y with probability P(x, y) + kill(x) mu(y)/|mu|:
    with s = u x rate, the walker holds when s >= total(x), else takes the
    ``jump_table`` target at s, and target 0 draws a second uniform that
    picks an element of the stored history list, the renewal part in O(1).
    """
    if h.total + steps > MASS_LIMIT:
        raise OverflowError("history mass exceeds the 2^62 bookkeeping limit")
    jump_table = d.model.jump_table
    tables: dict[int, tuple] = {}  # state -> (targets, cumulative rates, total rate)
    rate = d.rate
    history = h.history
    counts = h.counts
    u = blocks.u
    walker = h.walker
    total = h.total
    for _ in range(steps):
        table = tables.get(walker)
        if table is None:
            table = tables[walker] = jump_table(walker)
        targets, cum, out = table
        s = u() * rate
        if s < out:
            walker = targets[bisect_right(cum, s)]
            if walker == 0:
                walker = history[int(u() * total)]
        counts[walker] = counts.get(walker, 0) + 1
        history.append(walker)
        total += 1
    h.walker = walker
    h.total = total
    h.step += steps


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
    if checkpoints[0] < 1 or checkpoints[-1] != steps:
        raise ValueError("checkpoints must lie in 1..steps, the last equal to steps")

    h = HistoryState.start_at(start)
    blocks = UniformBlock(rng.child(TAG_EVENTS))
    tv_log: list[float] = []
    for cp in checkpoints:
        _advance(h, d, blocks, cp - h.step)
        if reference is not None:
            tv_log.append(tv_distance(h.distribution(), reference))
    return AfpResult(h.distribution(), checkpoints, tv_log, steps)
