"""Constructors for the chains used throughout the package.

Covers finite rate matrices given explicitly, birth-death walks with
constant rates, the binary-split Galton-Watson population chain, and the
uniformized discrete-time view, one sparse row per state, that the
history-renewal method walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from .chain import AbsorbedChainModel, read_model_file
from .errors import NegativeRate, RateTooSmall, SelfLoop, SupercriticalSpec

# A truncation lists the states of its window: the oracle on 10^5 of them
# takes about 2 s and 200 MB, on 10^6 about 25 s and 1.7 GB (one core of a
# 2-vCPU x86-64 machine).
WINDOW_MAX_STATES = 10**5


@dataclass(frozen=True)
class BirthDeathSpec:
    """Constant up/down rates; the down-jump at state 1 is absorption."""

    up_rate: float
    down_rate: float

    def __post_init__(self):
        if not all(0 <= r < math.inf for r in (self.up_rate, self.down_rate)):
            raise NegativeRate("birth-death rates must be finite and nonnegative")


@dataclass(frozen=True)
class GaltonWatsonSpec:
    """Binary split/death population chain: q(n, n+1) = b n, q(n, n-1) = d n.

    Subcriticality (b < d) is required so that extinction is certain.
    """

    split_rate: float
    death_rate: float

    def __post_init__(self):
        if not all(0 <= r < math.inf for r in (self.split_rate, self.death_rate)):
            raise NegativeRate("branching rates must be finite and nonnegative")
        if self.split_rate >= self.death_rate:
            raise SupercriticalSpec(
                f"split rate {self.split_rate} >= death rate {self.death_rate}"
            )


def build_finite(rates: Mapping[tuple[int, int], float]) -> AbsorbedChainModel:
    """Finite model from a {(x, y): rate} map; y = 0 entries are absorption.

    Transitions are listed by target; C0 and qbar are derived on first read.
    """
    trans: dict[int, list[tuple[int, float]]] = {}
    absorb: dict[int, float] = {}
    states: set[int] = set()
    for (x, y), r in rates.items():
        x, y = int(x), int(y)
        if x == y:
            raise SelfLoop(f"explicit diagonal entry at state {x}")
        if r < 0:
            raise NegativeRate(f"rate {r} on ({x}, {y})")
        if x <= 0:
            raise ValueError("source states must be >= 1")
        states.add(x)
        if y == 0:
            absorb[x] = absorb.get(x, 0.0) + float(r)
        else:
            states.add(y)
            trans.setdefault(x, []).append((y, float(r)))
    for x in states:
        trans.setdefault(x, []).sort()
    return AbsorbedChainModel(
        lambda x: trans[x],
        lambda x: absorb.get(x, 0.0),
        states=sorted(states),
        name="finite",
    )


def build_birth_death(spec: BirthDeathSpec, truncation: int | None = None) -> AbsorbedChainModel:
    """Random walk with constant drift; absorption happens on the down-jump at 1.

    Transitions are enumerated lazily and the declared bounds are
    C0 = down rate, qbar = up + down.  With ``truncation=K`` the walk is its
    ``restricted(K)``, named ``bd:p,q,K``: the up-jump at K is dropped and
    the bounds are derived on first read.
    """
    p, q = spec.up_rate, spec.down_rate

    def transitions(x: int):
        return [(x - 1, q), (x + 1, p)] if x >= 2 else [(x + 1, p)]

    def absorb(x: int) -> float:
        return q if x == 1 else 0.0

    model = AbsorbedChainModel(transitions, absorb, states=None, c0=q, qbar=p + q,
                               name=f"bd:{p},{q}")
    if truncation is None:
        return model
    window = model.restricted(truncation)
    window.name = f"bd:{p},{q},{truncation}"
    return window


def build_galton_watson(spec: GaltonWatsonSpec) -> AbsorbedChainModel:
    """Population-size chain of a binary-split branching process.

    Rates grow linearly with the population, so the out-rate supremum is
    declared infinite; only n = 1 can absorb, so C0 equals the death rate.
    """
    b, d = spec.split_rate, spec.death_rate

    def transitions(n: int):
        out = [(n + 1, b * n)]
        if n >= 2:
            out.append((n - 1, d * n))
        return sorted(out)

    def absorb(n: int) -> float:
        return d if n == 1 else 0.0

    return AbsorbedChainModel(
        transitions,
        absorb,
        states=None,
        c0=d,
        qbar=math.inf,
        name=f"gw:{b},{d}",
    )


class DiscreteChainModel:
    """Uniformized chain P = I + Q/rate on the window ``model``, one sparse row per state.

    ``rows[x]`` is ``(targets, cum)``: the states P moves x to, in state
    order, and the running sums of their probabilities.  The hold entry
    1 - total(x)/rate is always present, so no row is empty; a repeated
    target is merged by adding in transition order.  So the sums equal a
    dense row's ``np.cumsum`` at every nonzero entry and at the row end,
    and ``bisect_right`` draws the same states.  ``kill[i]`` is the
    probability of absorption from ``states[i]``; each row plus its kill
    mass sums to 1 within 1e-12.
    """

    def __init__(self, model: AbsorbedChainModel, rate: float):
        b = model.live_block()
        self.model = model
        self.rate = rate
        self.states = b.states
        self.index = b.index
        self.name = f"unif({model.name},{rate:g})"
        self.kill = b.absorb / rate
        hold = (1.0 - b.total / rate).tolist()
        if min(hold) < 0.0:
            raise NegativeRate("negative holding probability")
        # hold first, then the jumps in transition order, as np.add.at adds them
        mass = [{i: h} for i, h in enumerate(hold)]
        for i, j, p in zip(b.src.tolist(), b.dst.tolist(), (b.rate / rate).tolist()):
            mass[i][j] = mass[i].get(j, 0.0) + p
        self.rows = {}
        for x, row, k in zip(b.states, mass, self.kill.tolist()):
            order = sorted(row)
            cum = tuple(accumulate(row[j] for j in order))
            if abs(cum[-1] + k - 1.0) > 1e-12:
                raise ValueError("rows plus kill mass must sum to 1")
            self.rows[x] = (tuple(b.states[j] for j in order), cum)

    @property
    def n(self) -> int:
        return len(self.states)

    def __repr__(self):
        return f"DiscreteChainModel(name={self.name!r}, n={self.n})"


def uniformization_rate(
    model: AbsorbedChainModel, truncation: int | None = None, rate: float | None = None
) -> tuple[AbsorbedChainModel, float]:
    """The window :func:`uniformize` runs on and the rate it uses there.

    The window is the finite model itself, else ``restricted(truncation)``,
    whose edge totals leave out the dropped jumps.  The rate must dominate
    every total jump rate in the window, else :class:`RateTooSmall` is
    raised; the default 1.05 x max keeps some holding probability, hence
    aperiodicity.
    """
    K = model.truncation_or_top(truncation)
    finite = model if model.is_finite and truncation is None else model.restricted(K)
    maxrate = finite.max_total_rate(finite.states)
    if rate is None:
        rate = 1.05 * maxrate if maxrate > 0 else 1.0
    if rate < maxrate - 1e-12:
        raise RateTooSmall(f"uniformization rate {rate} < max total rate {maxrate}")
    return finite, rate


def uniformize(
    model: AbsorbedChainModel, truncation: int | None = None, rate: float | None = None
) -> DiscreteChainModel:
    """Uniformized chain I + Q/rate of the (possibly truncated) model, as sparse rows.

    The left Perron vector is unchanged by uniformization, which is what
    lets the discrete solver and history-renewal chain target the same QSD.
    The window and the rate are those of :func:`uniformization_rate`.
    Memory is O(jumps in the window): no n x n matrix is built.
    """
    return DiscreteChainModel(*uniformization_rate(model, truncation, rate))


# -- builtin model names ----------------------------------------------------

def resolve_model(name: str) -> AbsorbedChainModel:
    """Builtin model names used by the CLI and experiment configs.

    ``point``, ``two-state``, ``bd:p,q[,K]``, ``gw:b,d`` and ``file:<path>``.
    A ``bd`` window of more than ``WINDOW_MAX_STATES`` states raises
    ``ValueError`` before any state is listed.
    """
    if name == "point":
        return build_finite({(1, 0): 1.0})
    if name == "two-state":
        return build_finite({(1, 2): 1.0, (2, 1): 1.0, (1, 0): 1.0})
    if name.startswith("bd:"):
        parts = name[3:].split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"expected bd:p,q[,K], got {name!r}")
        p, q = float(parts[0]), float(parts[1])
        K = int(parts[2]) if len(parts) == 3 else None
        if K is not None and K > WINDOW_MAX_STATES:
            raise ValueError(f"{name}: K = {K} is above the window bound {WINDOW_MAX_STATES}")
        return build_birth_death(BirthDeathSpec(p, q), truncation=K)
    if name.startswith("gw:"):
        parts = name[3:].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected gw:b,d, got {name!r}")
        return build_galton_watson(GaltonWatsonSpec(float(parts[0]), float(parts[1])))
    if name.startswith("file:"):
        return read_model_file(name[5:])
    raise ValueError(f"unknown model {name!r}")
