"""Constructors for the chains used throughout the package.

Covers finite rate matrices given explicitly, birth-death walks with
constant rates, the binary-split Galton-Watson population chain, and the
uniformized discrete-time view that the history-renewal method walks: a
window model and a rate, stepped from the window's ``jump_table``, whose
constructor owns the rule for the rate.  The two infinite families declare
their minimal QSD nu* in closed form (van Doorn 1991), in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        p, q = self.up_rate, self.down_rate
        if not (min(p, q) >= 0 and p + q < math.inf):  # a NaN fails one of the two tests
            raise NegativeRate("birth-death rates must be nonnegative with a finite sum")


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
    A rate below zero or not finite, or a state whose total rate overflows,
    raises :class:`NegativeRate`.
    """
    trans: dict[int, list[tuple[int, float]]] = {}
    absorb: dict[int, float] = {}
    states: set[int] = set()
    for (x, y), r in rates.items():
        x, y = int(x), int(y)
        if x == y:
            raise SelfLoop(f"explicit diagonal entry at state {x}")
        if not 0 <= r < math.inf:
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
    model = AbsorbedChainModel(lambda x: trans[x], lambda x: absorb.get(x, 0.0),
                               states=sorted(states), name="finite")
    for x in model.states:
        model.jump_table(x)  # raises NegativeRate where a state's total overflows
    return model


def build_birth_death(spec: BirthDeathSpec, truncation: int | None = None) -> AbsorbedChainModel:
    """Random walk with constant drift; absorption happens on the down-jump at 1.

    Transitions are enumerated lazily and the declared bounds are
    C0 = down rate, qbar = up + down.  With p < q the walk declares its
    minimal QSD nu*(x) = (1 - r)^2 x r^(x-1), r = sqrt(p/q), whose mass
    above x is r^x (1 + x (1 - r)); with p >= q it has no QSD.  With
    ``truncation=K`` the walk is its ``restricted(K)``, named ``bd:p,q,K``:
    the up-jump at K is dropped and the bounds are derived on first read.
    """
    p, q = spec.up_rate, spec.down_rate

    def transitions(x: int):
        return [(x - 1, q), (x + 1, p)] if x >= 2 else [(x + 1, p)]

    def absorb(x: int) -> float:
        return q if x == 1 else 0.0

    nu_star = None
    if p < q:
        r = math.sqrt(p / q)
        log_r, log_gap = (math.log(r) if r > 0 else -math.inf), math.log1p(-r)

        def nu_star(x: int) -> tuple[float, float]:
            return (2 * log_gap + math.log(x) + (x - 1) * log_r if x > 1 else 2 * log_gap,
                    x * log_r + math.log1p(x * (1 - r)))

    model = AbsorbedChainModel(transitions, absorb, states=None, c0=q, qbar=p + q,
                               name=f"bd:{p},{q}", nu_star=nu_star)
    if truncation is None:
        return model
    window = model.restricted(truncation)
    window.name = f"bd:{p},{q},{truncation}"
    return window


def build_galton_watson(spec: GaltonWatsonSpec) -> AbsorbedChainModel:
    """Population-size chain of a binary-split branching process.

    Rates grow linearly with the population, so the out-rate supremum is
    declared infinite; only n = 1 can absorb, so C0 equals the death rate.
    The declared minimal QSD is geometric: nu*(n) = (1 - rho) rho^(n-1),
    rho = b/d, whose mass above n is rho^n.
    """
    b, d = spec.split_rate, spec.death_rate
    log_rho, log_gap = (math.log(b / d) if b > 0 else -math.inf), math.log1p(-b / d)

    def nu_star(n: int) -> tuple[float, float]:
        return log_gap + (n - 1) * log_rho if n > 1 else log_gap, n * log_rho

    def transitions(n: int):
        return [(n - 1, d * n), (n + 1, b * n)] if n >= 2 else [(n + 1, b * n)]

    def absorb(n: int) -> float:
        return d if n == 1 else 0.0

    return AbsorbedChainModel(transitions, absorb, states=None, c0=d, qbar=math.inf,
                              name=f"gw:{b},{d}", nu_star=nu_star)


class DiscreteChainModel:
    """Uniformized chain P = I + Q/rate on the finite window ``model``.

    No matrix and no second table of rates is built: a walker steps from
    the window model's ``jump_table`` (see :func:`qsdsim.afp._advance`),
    and the solvers read its live block.  The constructor owns the rate
    rule: the rate must be finite, positive and at least the window's
    largest total rate up to a relative 1e-12, else :class:`RateTooSmall`
    is raised.  ``None`` takes 1.05 x that maximum (1.0 when it is 0),
    which keeps some holding probability, hence aperiodicity.
    """

    def __init__(self, model: AbsorbedChainModel, rate: float | None):
        model.truncation_or_top(None)  # an infinite model raises: it needs a window
        maxrate = model.max_total_rate(model.states)
        if rate is None:
            rate = 1.05 * maxrate if maxrate > 0 else 1.0
        if not 0 < rate < math.inf or rate < maxrate * (1 - 1e-12):
            raise RateTooSmall(f"uniformization rate {rate} must be finite and at least"
                               f" the max total rate {maxrate}")
        self.model = model
        self.rate = rate
        self.name = f"unif({model.name},{rate:g})"

    def __repr__(self):
        return f"DiscreteChainModel(name={self.name!r}, n={len(self.model.states)})"


def uniformize(
    model: AbsorbedChainModel, truncation: int | None = None, rate: float | None = None
) -> DiscreteChainModel:
    """Uniformized chain I + Q/rate of the (possibly truncated) model.

    The window is ``restricted(truncation)``, whose totals leave out the
    dropped jumps, and :class:`DiscreteChainModel` checks ``rate`` on it.
    Uniformization keeps the left Perron vector, so the discrete solver and
    the history-renewal chain target the same QSD.  Memory is O(jumps in
    the window): no n x n matrix is built.
    """
    return DiscreteChainModel(model.restricted(model.truncation_or_top(truncation)), rate)


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
