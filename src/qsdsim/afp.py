"""History-renewal approximation of the discrete-time QSD.

A walker moves with the uniformized substochastic matrix P = I + Q/rate,
read from the window model's ``jump_table``; on a kill event it re-enters
according to the empirical distribution of its own past positions.  The
normalized history converges to the QSD of the discrete chain (the
Aldous-Flannery-Palacios scheme).
The whole state is one list, the history: it starts as a unit atom at the
start state, so the renewal draw is always well defined, and the walker is
its last entry.  One loop, ``_advance``, appends the steps, taking each
step's uniform from the run's ``iter(UniformBlock(...))`` through
``islice`` and the renewal uniform by ``next``; :func:`afp_run` advances it
from checkpoint to checkpoint and counts each checkpoint's new stretch into
the estimate.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .chain import Distribution, tv_distance
from .models import DiscreteChainModel
from .rng import RngStream, UniformBlock, TAG_EVENTS

# 64-bit counts; refuse to grow the history past this total mass.
MASS_LIMIT = 1 << 62


def _advance(history: list, d: DiscreteChainModel, us: Iterator[float], steps: int) -> None:
    """Append ``steps`` renewal steps to ``history``, whose last entry is the walker.

    The next position is y with probability P(x, y) + kill(x) mu(y)/|mu|,
    mu the history so far: with s = u x rate, the walker holds when
    s >= total(x), else takes the ``jump_table`` target at s, and target 0
    draws a second uniform that picks an entry of the history, the renewal
    part in O(1).  The uniforms are taken from ``us`` in that order.
    """
    total = len(history)
    if total + steps > MASS_LIMIT:
        raise OverflowError("history mass exceeds the 2^62 bookkeeping limit")
    jump_table = d.model.jump_table
    tables: dict[int, tuple] = {}  # state -> (targets, cumulative rates, total rate)
    rate = d.rate
    append = history.append
    walker = history[-1]
    for u in islice(us, steps):
        table = tables.get(walker)
        if table is None:
            table = tables[walker] = jump_table(walker)
        targets, cum, out = table
        s = u * rate
        if s < out:
            walker = targets[bisect_right(cum, s)]
            if walker == 0:
                walker = history[int(next(us) * total)]
        append(walker)
        total += 1


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

    history = [start]
    counts = Counter(history)
    us = iter(UniformBlock(rng.child(TAG_EVENTS)))
    tv_log: list[float] = []
    for cp in checkpoints:
        done = len(history)
        _advance(history, d, us, cp + 1 - done)
        counts.update(islice(history, done, None))
        estimate = Distribution.from_weights(counts)
        if reference is not None:
            tv_log.append(tv_distance(estimate, reference))
    return AfpResult(estimate, checkpoints, tv_log, steps)
