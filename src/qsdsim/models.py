"""Constructors for the chains used throughout the package.

Covers finite rate matrices given explicitly, birth-death walks with
constant rates, the binary-split Galton-Watson population chain, and the
uniformized discrete-time view needed by the history-renewal method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .chain import AbsorbedChainModel, exact_bounds, read_model_file
from .errors import NegativeRate, RateTooSmall, SelfLoop, SupercriticalSpec


@dataclass(frozen=True)
class BirthDeathSpec:
    """Constant up/down rates; the down-jump at state 1 is absorption."""

    up_rate: float
    down_rate: float

    def __post_init__(self):
        if self.up_rate < 0 or self.down_rate < 0:
            raise NegativeRate("birth-death rates must be nonnegative")


@dataclass(frozen=True)
class GaltonWatsonSpec:
    """Binary split/death population chain: q(n, n+1) = b n, q(n, n-1) = d n.

    Subcriticality (b < d) is required so that extinction is certain.
    """

    split_rate: float
    death_rate: float

    def __post_init__(self):
        if self.split_rate < 0 or self.death_rate < 0:
            raise NegativeRate("branching rates must be nonnegative")
        if self.split_rate >= self.death_rate:
            raise SupercriticalSpec(
                f"split rate {self.split_rate} >= death rate {self.death_rate}"
            )


def build_finite(rates: Mapping[tuple[int, int], float]) -> AbsorbedChainModel:
    """Finite model from a {(x, y): rate} map; y = 0 entries are absorption.

    Bounds C0 and qbar are computed exactly.
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
    model = AbsorbedChainModel(
        lambda x: trans[x],
        lambda x: absorb.get(x, 0.0),
        states=sorted(states),
        name="finite",
    )
    model.c0, model.qbar = exact_bounds(model)
    return model


def build_birth_death(spec: BirthDeathSpec, truncation: int | None = None) -> AbsorbedChainModel:
    """Random walk with constant drift; absorption happens on the down-jump at 1.

    With ``truncation=K`` the up-jump at K is dropped and exact bounds are
    computed; otherwise transitions are enumerated lazily and the declared
    bounds are C0 = down rate, qbar = up + down.
    """
    p, q = spec.up_rate, spec.down_rate

    def transitions(x: int):
        out = []
        if x >= 2:
            out.append((x - 1, q))
        if truncation is None or x < truncation:
            out.append((x + 1, p))
        return out

    def absorb(x: int) -> float:
        return q if x == 1 else 0.0

    if truncation is not None:
        model = AbsorbedChainModel(
            transitions, absorb, states=range(1, truncation + 1), name=f"bd:{p},{q},{truncation}"
        )
        model.c0, model.qbar = exact_bounds(model)
        return model
    return AbsorbedChainModel(
        transitions,
        absorb,
        states=None,
        c0=q,
        qbar=p + q,
        name=f"bd:{p},{q}",
    )


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
    """Substochastic matrix on a finite window plus its kill column.

    Row x of ``sub`` holds the within-window transition probabilities and
    ``kill[x]`` the probability of jumping to the absorbing state; each row
    plus its kill mass sums to 1 within 1e-12.
    """

    def __init__(self, states, sub: np.ndarray, kill: np.ndarray, name: str = ""):
        self.states = tuple(int(s) for s in states)
        self.sub = np.asarray(sub, dtype=float)
        self.kill = np.asarray(kill, dtype=float)
        self.name = name
        n = len(self.states)
        if self.sub.shape != (n, n) or self.kill.shape != (n,):
            raise ValueError("shape mismatch between states, sub and kill")
        if (self.sub < 0).any() or (self.kill < 0).any():
            raise NegativeRate("negative transition probability")
        rows = self.sub.sum(axis=1) + self.kill
        if np.abs(rows - 1.0).max() > 1e-12:
            raise ValueError("rows plus kill mass must sum to 1")
        self.index = {s: i for i, s in enumerate(self.states)}
        # cumulative rows for categorical draws: within-window mass first,
        # anything above it is the kill event; tuples, for bisect in the walk
        self.cum_rows = tuple(map(tuple, np.cumsum(self.sub, axis=1).tolist()))

    @property
    def n(self) -> int:
        return len(self.states)

    def __repr__(self):
        return f"DiscreteChainModel(name={self.name!r}, n={self.n})"


def uniformize(
    model: AbsorbedChainModel, truncation: int | None = None, rate: float | None = None
) -> DiscreteChainModel:
    """Discrete skeleton I + Q/rate of the (possibly truncated) model.

    The left Perron eigenvector is unchanged by uniformization, which is what
    lets the discrete solver and history-renewal chain target the same QSD.
    The rate must dominate every total jump rate in the window; the default
    1.05 x max keeps some holding probability, hence aperiodicity.
    """
    finite = model if model.is_finite and truncation is None else model.restricted(
        truncation if truncation is not None else max(model.states)
    )
    states = finite.states
    maxrate = finite.max_total_rate(states)
    if rate is None:
        rate = 1.05 * maxrate if maxrate > 0 else 1.0
    if rate < maxrate - 1e-12:
        raise RateTooSmall(f"uniformization rate {rate} < max total rate {maxrate}")
    b = finite.live_block()
    n = len(states)
    sub = np.zeros((n, n))
    np.fill_diagonal(sub, 1.0 - b.total / rate)
    np.add.at(sub, (b.src, b.dst), b.rate / rate)
    return DiscreteChainModel(states, sub, b.absorb / rate, name=f"unif({finite.name},{rate:g})")


# -- builtin model names ----------------------------------------------------

def resolve_model(name: str) -> AbsorbedChainModel:
    """Builtin model names used by the CLI and experiment configs.

    ``point``, ``two-state``, ``bd:p,q[,K]``, ``gw:b,d`` and ``file:<path>``.
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
        return build_birth_death(BirthDeathSpec(p, q), truncation=K)
    if name.startswith("gw:"):
        parts = name[3:].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected gw:b,d, got {name!r}")
        return build_galton_watson(GaltonWatsonSpec(float(parts[0]), float(parts[1])))
    if name.startswith("file:"):
        return read_model_file(name[5:])
    raise ValueError(f"unknown model {name!r}")
