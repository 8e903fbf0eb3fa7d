"""Absorbed Markov jump chains on a countable state space.

States are positive integers; 0 is the reserved absorbing state.  A model
exposes, for every state x, the finite list of jump rates q(x, y) to other
states y >= 1 together with the absorption rate q(x, 0).  The diagonal
q(x, x) = -(sum of off-diagonal rates) is never stored, always derived.

This module also holds the live generator block that every deterministic
solver builds from, the sparse probability vectors used throughout the
package and :func:`_z_mu_events`, the one Gillespie loop of Z^mu (the chain
that jumps to mu when it absorbs): the run up to absorption, the mu-return
chain and the tagged particle's limit process each set its revival rule.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EventCapExceeded, ModelFormatError, NegativeRate
from .rng import RngStream, UniformBlock, TAG_EVENTS

# Masses below this are treated as exact zeros when building distributions.
MASS_EPS = 1e-15
# Constructors require total mass 1 within this tolerance.
NORM_TOL = 1e-12


class Distribution:
    """Immutable sparse probability vector on the non-absorbing states.

    Supports must exclude 0, masses are nonnegative, and the total mass is 1
    within 1e-12.  Entries below 1e-15 are dropped at construction so that
    floating noise never creates spurious support.
    """

    __slots__ = ("_states", "_masses", "_cum")

    def __init__(self, masses: Mapping[int, float]):
        items = []
        for x, m in masses.items():
            x = int(x)
            if x <= 0:
                raise ValueError(f"state {x} is not a valid support point (states are >= 1)")
            if m < -MASS_EPS:
                raise ValueError(f"negative mass {m} at state {x}")
            if m > MASS_EPS:
                items.append((x, float(m)))
        items.sort()
        total = math.fsum(m for _, m in items)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"total mass {total!r} is not 1 within {NORM_TOL}")
        self._states = tuple(x for x, _ in items)
        self._masses = tuple(m for _, m in items)
        self._cum = None

    @classmethod
    def delta(cls, x: int) -> "Distribution":
        return cls({x: 1.0})

    @classmethod
    def uniform(cls, states: Iterable[int]) -> "Distribution":
        states = list(states)
        return cls({x: 1.0 / len(states) for x in states})

    @classmethod
    def from_weights(cls, weights: Mapping[int, float]) -> "Distribution":
        """Normalize nonnegative weights into a distribution.

        Weights of magnitude at most ``MASS_EPS`` are dropped as round-off; a
        NaN, infinite or more negative weight, or a sum that overflows, raises
        ``ValueError``.
        """
        kept = {}
        for x, w in weights.items():
            if not math.isfinite(w) or w < -MASS_EPS:
                raise ValueError(f"weight {w} at state {x} is not finite and nonnegative")
            if w > MASS_EPS:
                kept[x] = w
        try:
            total = math.fsum(kept.values())
        except OverflowError:
            raise ValueError("the weights' sum overflows") from None
        if total <= 0:
            raise ValueError("weights sum to zero")
        return cls({x: w / total for x, w in kept.items()})

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], n: int) -> "Distribution":
        """The empirical law c / n of n particles from their per-state counts.

        Zero counts are skipped.  The masses are the floats
        ``from_weights(counts)`` gives (its total is the exact float n), but
        built without its checks: the caller guarantees states >= 1 and
        nonnegative integer counts that sum to n.
        """
        items = sorted((x, c) for x, c in counts.items() if c)
        dist = cls.__new__(cls)
        dist._states = tuple(x for x, _ in items)
        dist._masses = tuple(c / n for _, c in items)
        dist._cum = None
        return dist

    @property
    def support(self) -> tuple[int, ...]:
        return self._states

    def mass(self, x: int) -> float:
        i = bisect_left(self._states, x)
        if i < len(self._states) and self._states[i] == x:
            return self._masses[i]
        return 0.0

    def items(self):
        """(state, mass) pairs in increasing state order."""
        return zip(self._states, self._masses)

    def as_dict(self) -> dict[int, float]:
        return dict(self.items())

    def as_vector(self, states: Sequence[int]) -> np.ndarray:
        """Dense mass vector over the given state ordering."""
        lookup = dict(self.items())
        return np.array([lookup.get(x, 0.0) for x in states])

    def _cumulative(self) -> np.ndarray:
        if self._cum is None:
            self._cum = np.cumsum(self._masses)
        return self._cum

    def sample(self, u_or_rng) -> int:
        """Draw one state; accepts a uniform in [0, 1) or a Generator."""
        u = u_or_rng if isinstance(u_or_rng, float) else u_or_rng.random()
        idx = int(np.searchsorted(self._cumulative(), u, side="right"))
        idx = min(idx, len(self._states) - 1)
        return self._states[idx]

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        us = rng.random(n)
        idx = np.searchsorted(self._cumulative(), us, side="right")
        idx = np.minimum(idx, len(self._states) - 1)
        return np.array(self._states, dtype=np.int64)[idx]

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self._states == other._states
            and self._masses == other._masses
        )

    def __hash__(self):
        return hash((self._states, self._masses))

    def __repr__(self):
        inner = ", ".join(f"{x}: {m:.6g}" for x, m in self.items())
        return f"Distribution({{{inner}}})"


def mean_distribution(dists: Sequence[Distribution]) -> Distribution:
    """Equal-weight average of distributions (itself a distribution)."""
    acc: dict[int, float] = {}
    for d in dists:
        for x, m in d.items():
            acc[x] = acc.get(x, 0.0) + m
    return Distribution.from_weights(acc)


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance (half the L1 difference over the joint support)."""
    states = set(a.support) | set(b.support)
    return 0.5 * math.fsum(abs(a.mass(x) - b.mass(x)) for x in states)


def aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """``np.zeros(shape)`` on a 64-byte boundary: OpenBLAS's x86-64 (Haswell) dgemv on
    200 x 200 takes 7.5 us there and 9.5 us at the 16 or 48 mod 64 that ``malloc``
    gives, with the same bits."""
    buf = np.zeros(math.prod(shape) + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + math.prod(shape)].reshape(shape)


@dataclass
class LiveBlock:
    """The live block Q_live of the generator on a window of states.

    ``src``, ``dst`` and ``rate`` hold the in-window jumps
    Q[src[k], dst[k]] = rate[k] as COO index arrays, in state order and then
    in transition order.  ``total[i]`` is ``total_rate(states[i])``, the
    ``jump_table`` sum with absorption first, so the diagonal is ``-total``;
    ``absorb[i]`` is q(x, 0); ``boundary`` holds the states with a jump that
    leaves the window.  Walkers read the model's ``jump_table``, solvers
    the block, and a solver that needs a matrix :meth:`generator_t`.

    The block keeps the model's truncation convention.  On a
    ``restricted(K)`` model (the oracle, uniformization, the branching
    means) a dropped jump is gone from ``total`` too: it leaves the
    diagonal, and the window's edge reflects.  On the full model over a
    window (the conditioned flow) ``total`` still counts it: a dropped jump
    kills, and the flow guards that leak with ``TruncationLeak``, using
    ``boundary``.
    """

    states: tuple[int, ...]
    index: dict[int, int]
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    total: np.ndarray
    absorb: np.ndarray
    boundary: tuple[int, ...]

    def generator_t(self, dense: bool):
        """Q^T: the jumps in block order, then -``total`` on the diagonal.

        Dense and 64-byte aligned, or CSR (scipy.sparse's one import), by the caller's size rule.
        """
        n = len(self.states)
        span = np.arange(n)
        rows = np.concatenate([self.dst, span])
        cols = np.concatenate([self.src, span])
        vals = np.concatenate([self.rate, -self.total])
        if dense:
            qt = aligned_zeros((n, n))
            np.add.at(qt, (rows, cols), vals)
            return qt
        import scipy.sparse as sp

        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    @cached_property
    def two_way_path(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(up, down) rates when the block is a two-way path, else None.

        A two-way path has every positive in-window jump between window
        neighbours i and i+1, and a positive rate both ways across each
        neighbour pair; ``up[i]`` sums the rates i -> i+1 and ``down[i]``
        those i+1 -> i.  Such a block is strongly connected and, in the
        symmetrized form, tridiagonal.  A single state is a path.
        """
        n = len(self.states)
        keep = self.rate > 0
        src, dst, rate = self.src[keep], self.dst[keep], self.rate[keep]
        step = dst - src
        if not np.all((step == 1) | (step == -1)):
            return None
        rise = step == 1
        pairs = max(n - 1, 0)
        up = np.bincount(src[rise], weights=rate[rise], minlength=pairs)
        down = np.bincount(dst[~rise], weights=rate[~rise], minlength=pairs)
        if not (np.all(up > 0) and np.all(down > 0)):
            return None
        up.flags.writeable = down.flags.writeable = False
        return up, down


def strongly_connected(n: int, src, dst) -> bool:
    """Whether the graph on 0..n-1 with edges src[k] -> dst[k] is strongly connected.

    Every vertex must be reachable from vertex 0 both along the edges and
    against them.
    """
    src, dst = np.asarray(src).tolist(), np.asarray(dst).tolist()
    for tails, heads in ((src, dst), (dst, src)):
        adj: list[list[int]] = [[] for _ in range(n)]
        for x, y in zip(tails, heads):
            adj[x].append(y)
        seen = {0} if n else set()
        stack = list(seen)
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < n:
            return False
    return True


class AbsorbedChainModel:
    """Rate matrix of an absorbed chain, exposed as per-state transition lists.

    Parameters
    ----------
    transitions_fn : callable
        Maps a state x >= 1 to a finite sequence of (y, rate) pairs with
        y >= 1, y != x and rate >= 0.
    absorb_fn : callable
        Maps x to the absorption rate q(x, 0) >= 0.
    states : sequence of int, optional
        The full state set for finite models; None for lazily enumerated
        (countably infinite) models.
    c0, qbar : float, optional
        Declared bounds sup q(x, 0) and sup of total off-diagonal out-rate;
        ``math.inf`` marks an explicitly unbounded quantity.  A declared
        value wins; left out, a finite model derives it on first read and an
        infinite one reads None.
    nu_star : callable, optional
        The minimal QSD of an infinite model, known in closed form: maps x to
        (log nu*(x), log of nu*'s mass above x).  None where none is declared.
    """

    def __init__(
        self,
        transitions_fn: Callable[[int], Sequence[tuple[int, float]]],
        absorb_fn: Callable[[int], float],
        states: Sequence[int] | None = None,
        c0: float | None = None,
        qbar: float | None = None,
        name: str = "",
        nu_star: Callable[[int], tuple[float, float]] | None = None,
    ):
        self._transitions_fn = transitions_fn
        self._absorb_fn = absorb_fn
        self.states = tuple(sorted(int(s) for s in states)) if states is not None else None
        if c0 is not None:
            self.c0 = c0  # shadows the derived value
        if qbar is not None:
            self.qbar = qbar
        self.name = name
        self.nu_star = nu_star
        self._trans_cache: dict[int, tuple[tuple[int, float], ...]] = {}
        self._absorb_cache: dict[int, float] = {}
        self._jump_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self._blocks: dict[tuple[int, ...], LiveBlock] = {}

    # -- basic access -----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.states is not None

    def transitions(self, x: int) -> tuple[tuple[int, float], ...]:
        """Jump rates out of x into other live states, cached per state."""
        got = self._trans_cache.get(x)
        if got is None:
            if x <= 0:
                raise ValueError("state 0 is absorbing; it has no outgoing transitions")
            got = tuple(
                (int(y), float(r)) for y, r in self._transitions_fn(x) if r != 0.0
            )
            self._trans_cache[x] = got
        return got

    def absorb_rate(self, x: int) -> float:
        got = self._absorb_cache.get(x)
        if got is None:
            got = float(self._absorb_fn(x))
            self._absorb_cache[x] = got
        return got

    @cached_property
    def c0(self) -> float | None:
        """C0: declared, or a finite model's largest absorption rate."""
        return max(map(self.absorb_rate, self.states), default=0.0) if self.is_finite else None

    @cached_property
    def qbar(self) -> float | None:
        """qbar: declared, or a finite model's largest ``math.fsum`` of a state's transitions."""
        return max((math.fsum(r for _, r in self.transitions(x)) for x in self.states),
                   default=0.0) if self.is_finite else None

    def total_rate(self, x: int) -> float:
        return self.jump_table(x)[2]

    def jump_table(self, x: int) -> tuple[tuple[int, ...], tuple[float, ...], float]:
        """(targets, cumulative rates, total rate) with absorption first.

        The first target is 0 when q(x, 0) > 0; the remaining targets follow
        the transition list order.  The one copy of the state's rates: every
        jump draw reads it, the graphical engine's internal marks and the
        history-renewal steps too; plain tuples keep per-event lookups cheap.
        A total that is not finite raises :class:`NegativeRate` naming the state.
        """
        got = self._jump_cache.get(x)
        if got is None:
            targets = []
            cum = []
            running = 0.0
            a = self.absorb_rate(x)
            if a > 0:
                targets.append(0)
                running += a
                cum.append(running)
            for y, r in self.transitions(x):
                targets.append(y)
                running += r
                cum.append(running)
            if not math.isfinite(running):
                raise NegativeRate(f"the total rate out of state {x} overflows")
            got = (tuple(targets), tuple(cum), running)
            self._jump_cache[x] = got
        return got

    def sample_jump(self, x: int, u: float) -> int:
        """Jump target from x given a uniform u in [0, 1); 0 means absorption."""
        targets, cum, total = self.jump_table(x)
        if total <= 0.0:
            raise EventCapExceeded(f"state {x} has total rate 0; the chain is stuck")
        idx = bisect_right(cum, u * total)
        if idx >= len(targets):
            idx = len(targets) - 1
        return targets[idx]

    # -- derived views ----------------------------------------------------

    def live_block(self, states: Sequence[int] | None = None) -> LiveBlock:
        """The live generator block on ``states`` (default: all states), cached per window."""
        if states is None:
            if not self.is_finite:
                raise ValueError("an infinite model needs an explicit window")
            states = self.states
        states = tuple(states)
        got = self._blocks.get(states)
        if got is None:
            index = {x: i for i, x in enumerate(states)}
            src, dst, rate, boundary = [], [], [], {}
            for i, x in enumerate(states):
                for y, r in self.transitions(x):
                    j = index.get(y)
                    if j is None:
                        boundary[x] = None
                    else:
                        src.append(i)
                        dst.append(j)
                        rate.append(r)
            total = [self.total_rate(x) for x in states]
            absorb = [self.absorb_rate(x) for x in states]
            src, dst = (np.array(v, dtype=np.intp) for v in (src, dst))
            rate, total, absorb = (np.array(v, dtype=float) for v in (rate, total, absorb))
            for arr in (src, dst, rate, total, absorb):
                arr.flags.writeable = False  # shared by every consumer of the window
            got = LiveBlock(states, index, src, dst, rate, total, absorb, tuple(boundary))
            self._blocks[states] = got
        return got

    def truncation_or_top(self, K: int | None) -> int:
        """K, else the largest state of a finite model; an infinite model needs K."""
        if K is None and not self.is_finite:
            raise ValueError("an infinite model needs an explicit truncation")
        return max(self.states) if K is None else K

    def state_window(self, K: int) -> tuple[int, ...]:
        """States covered by a truncation at K (ids <= K)."""
        if self.is_finite:
            return tuple(x for x in self.states if x <= K)
        return tuple(range(1, K + 1))

    def restricted(self, K: int) -> "AbsorbedChainModel":
        """Finite truncation: transitions leaving the window are dropped.

        Dropping (rather than redirecting) keeps the restricted generator
        substochastic, so the principal-eigenvector problem stays well posed.
        A state's transitions are the parent's, filtered on first use.  A
        finite model with K at or above its top state is its own window, and
        is returned as it is, with its cached blocks.
        """
        if self.is_finite and K >= max(self.states, default=0):
            return self
        window = self.state_window(K)
        wset = set(window)
        return AbsorbedChainModel(
            lambda x: [(y, r) for y, r in self.transitions(x) if y in wset],
            self.absorb_rate,
            states=window,
            name=f"{self.name}|K={K}" if self.name else f"K={K}",
        )

    def max_total_rate(self, states: Iterable[int]) -> float:
        return max(self.total_rate(x) for x in states)

    def __repr__(self):
        size = len(self.states) if self.is_finite else "inf"
        return f"AbsorbedChainModel(name={self.name!r}, states={size})"


@dataclass(frozen=True)
class AbsorptionSample:
    """Absorption time and the last live state visited before absorbing."""

    tau: float
    exit_state: int


DEFAULT_EVENT_CAP = 10**7


def _z_mu_events(model: AbsorbedChainModel, x: int, us: Iterator[float], end: float,
                 revive: Callable[[float, float], int], event_cap: int):
    """Gillespie events of Z^mu, the chain that jumps to mu when it absorbs.

    From state x at time 0, yields (t, dt, x, y, revived) per event before
    ``end``: event time, drawn wait, states before and after, and whether
    the jump absorbed and ``revive(t, u)`` drew y.  Each event takes from
    ``us`` the wait's uniform, the jump's, then on absorption the revival
    uniform; the wait that crosses ``end`` is the last draw.  Raises
    :class:`EventCapExceeded` at a state with total rate 0, and at an event
    past ``event_cap`` before ``end``.
    """
    t, events = 0.0, 0
    log1p = math.log1p
    while True:
        total = model.total_rate(x)
        if total <= 0.0:
            raise EventCapExceeded(f"state {x} has total rate 0; the chain is stuck")
        dt = -log1p(-next(us)) / total
        if t + dt >= end:
            return
        if events >= event_cap:
            raise EventCapExceeded(f"more than {event_cap} events before t={end}")
        events += 1
        t += dt
        y = model.sample_jump(x, next(us))
        revived = y == 0
        if revived:
            y = revive(t, next(us))
        yield t, dt, x, y, revived
        x = y


def simulate_until_absorption(
    model: AbsorbedChainModel,
    start: Distribution,
    rng: RngStream,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> AbsorptionSample:
    """Gillespie simulation of the raw chain until the absorbing jump.

    Exact event-driven simulation: exponential holding times at the total
    rate, categorical jump draws, run by :func:`_z_mu_events` up to its
    first absorption.  Raises :class:`EventCapExceeded` past ``event_cap``
    jumps, which signals a practically non-absorbing input.
    """
    if event_cap <= 0:
        raise ValueError("event_cap must be positive")
    us = iter(UniformBlock(rng.child(TAG_EVENTS)))
    x = start.sample(next(us))
    for t, _, x, _, absorbed in _z_mu_events(model, x, us, math.inf, lambda t, u: 0, event_cap):
        if absorbed:
            return AbsorptionSample(tau=t, exit_state=x)
    raise EventCapExceeded("the absorption time overflowed to infinity")


# -- model files ----------------------------------------------------------

MODEL_HEADER = "qsdmodel v1"


def read_model_file(path) -> AbsorbedChainModel:
    """Parse the line-oriented model format.

    Header line ``qsdmodel v1``; one ``x y rate`` triple per line with y = 0
    meaning absorption; ``#`` starts a comment.  Negative or non-finite
    rates, a state whose total rate overflows, duplicate (x, y) pairs and
    self-loops are rejected, naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [ln.split("#", 1)[0].strip() for ln in lines]
    body = [(i + 1, ln) for i, ln in enumerate(body) if ln]
    if not body or body[0][1] != MODEL_HEADER:
        raise ModelFormatError(f"missing '{MODEL_HEADER}' header line")
    rates: dict[tuple[int, int], float] = {}
    totals: dict[int, float] = {}
    for lineno, ln in body[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ModelFormatError(f"line {lineno}: expected 'x y rate'")
        try:
            x, y = int(parts[0]), int(parts[1])
            rate = float(parts[2])
        except ValueError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None
        if x <= 0 or y < 0:
            raise ModelFormatError(f"line {lineno}: states must be x >= 1, y >= 0")
        if x == y:
            raise ModelFormatError(f"line {lineno}: self-loop at state {x}")
        if not 0 <= rate < math.inf:
            raise ModelFormatError(f"line {lineno}: rate {rate} is not finite and nonnegative")
        if (x, y) in rates:
            raise ModelFormatError(f"line {lineno}: duplicate pair ({x}, {y})")
        rates[(x, y)] = rate
        totals[x] = totals.get(x, 0.0) + rate
        if totals[x] == math.inf:
            raise ModelFormatError(f"line {lineno}: the total rate out of state {x} overflows")
    from .models import build_finite  # deferred; models builds on this module

    return build_finite(rates)


def write_model_file(path, model: AbsorbedChainModel) -> None:
    if not model.is_finite:
        raise ValueError("only finite models can be written to a file")
    lines = [MODEL_HEADER]
    for x in model.states:
        a = model.absorb_rate(x)
        if a > 0:
            lines.append(f"{x} 0 {a!r}")
        for y, r in model.transitions(x):
            lines.append(f"{x} {y} {r!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
