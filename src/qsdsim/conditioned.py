"""The law conditioned on survival, computed by uniformization.

The law of the chain at time t conditioned on not yet being absorbed is the
normalized linear flow mu e^{tQ} / |mu e^{tQ}| on the live states.  Jensen's
uniformization writes e^{hQ} as a Poisson mixture of powers of a
nonnegative matrix: a short series of nonnegative terms with an a-priori
tail bound, on the live block's Q^T (``LiveBlock.generator_t``), each step
at most 0.1 / Lambda by :func:`uniformization_step`.  Where a step runs by
matvecs, a grid time inside it costs one axpy per term on the step's own
powers, not a series.  A QSD is exactly a stationary point of the flow, so
the same module also evaluates the fixed-point residual and the absorption
rate theta of a candidate distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain import AbsorbedChainModel, Distribution, aligned_zeros
from .errors import TruncationLeak

LEAK_TOL = 1e-6
# Each step keeps the Poisson weights until the tail beyond them is below this.
TAIL_TOL = 1e-16
# Windows up to this many states get a dense operator; larger ones a CSR matrix.
DENSE_WINDOW_LIMIT = 400


class ConditionedPath:
    """Conditioned law on a fixed truncation window, exact at any time in its range."""

    def __init__(self, times, states: tuple[int, ...], masses, advance, meta=None):
        self.times = np.asarray(times, dtype=float)
        self.states = states
        self.masses = np.asarray(masses, dtype=float)
        self.advance = advance
        self.meta = dict(meta or {})
        if (np.diff(self.times) <= 0).any():
            raise ValueError("time grid must be strictly increasing")
        if self.masses.shape != (len(self.times), len(states)):
            raise ValueError("masses must be (len(times), len(states))")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def final(self) -> Distribution:
        return self.distribution_at(self.horizon)

    def vector_at(self, t: float) -> np.ndarray:
        """Mass vector at time t: the snapshot at or before t, carried to t by ``advance``."""
        if t < self.times[0] - 1e-12 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the path range [0, {self.horizon}]")
        t = min(max(t, self.times[0]), self.horizon)
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        if t == self.times[j]:
            return self.masses[j]
        return self.advance(self.masses[j], t - self.times[j])

    def distribution_at(self, t: float) -> Distribution:
        v = self.vector_at(t)
        return Distribution.from_weights({x: m for x, m in zip(self.states, v)})

    def inverse_cdf_at(self, t: float, u: float) -> int:
        """State whose cumulative-mass interval (in state order) contains u.

        ``distribution_at(t).sample(u)`` without building the distribution; the
        limit process and the graphical engine draw their return states with it.
        """
        v = self.vector_at(t)
        target = u * v.sum()
        acc = 0.0
        for x, m in zip(self.states, v):
            acc += m
            if target < acc:
                return x
        return self.states[-1]


def _window_operator(model: AbsorbedChainModel, states):
    """(transpose generator, indices of the states near the boundary).

    The generator is the live block's :meth:`~qsdsim.chain.LiveBlock.generator_t`:
    a dense numpy array on windows of at most ``DENSE_WINDOW_LIMIT`` states
    and a scipy CSR matrix on larger ones.  Jumps that leave the window stay
    in the diagonal, so they kill.
    """
    b = model.live_block(states)
    n = len(b.states)
    near = np.zeros(n, dtype=bool)
    near[[b.index[x] for x in b.boundary]] = True
    near[b.src[near[b.dst]]] = True  # one step back from the boundary counts as "near" it
    return b.generator_t(n <= DENSE_WINDOW_LIMIT), np.flatnonzero(near)


def _poisson_weights(x: float) -> tuple[np.ndarray, float]:
    """Poisson(x) weights w_0..w_K, tail bound w_{K+1}/(1-x/(K+2)) <= TAIL_TOL, K least > x - 2."""
    w = [math.exp(-x)]
    while True:
        nxt = w[-1] * x / len(w)
        if len(w) + 1 > x:
            tail = nxt / (1.0 - x / (len(w) + 1))
            if tail <= TAIL_TOL:
                return np.array(w), tail
        w.append(nxt)


def _series(qt, rate: float, weights, v: np.ndarray) -> list[np.ndarray]:
    """[sum_k w_k P^k v for w in weights], P = I + qt / rate: one matvec per power
    P^k v up to the longest list, and one axpy per list and term."""
    sums = [w[0] * v for w in weights]
    for k in range(1, max(map(len, weights))):
        v = v + (qt @ v) / rate
        for out, w in zip(sums, weights):
            if k < len(w):
                out += w[k] * v
    return sums


def _step_matrix(qt: np.ndarray, rate: float, w: np.ndarray) -> np.ndarray:
    """The step's matrix sum_k w_k P^k on a 64-byte boundary, one column per series
    of matvecs: no matrix product, whose BLAS work buffers would stay in the process."""
    mat = aligned_zeros(qt.shape)
    e = np.zeros(len(qt))
    for j in range(len(qt)):
        e[j] = 1.0
        mat[:, j] = _series(qt, rate, [w], e)[0]
        e[j] = 0.0
    return mat


def _advance(qt, maxrate: float, step: float, v: np.ndarray, dt: float) -> np.ndarray:
    """v e^{dt Q_w}, renormalized per equal sub-step of at most ``step``."""
    n = max(1, math.ceil(dt / step - 1e-9))
    w, _ = _poisson_weights(maxrate * dt / n)
    for _ in range(n):
        v = _series(qt, maxrate or 1.0, [w], v)[0]
        v /= v.sum()
    return v


def uniformization_step(model: AbsorbedChainModel, states, horizon: float,
                        step: float | None) -> tuple[float, float]:
    """(Lambda, step) of the flow over ``horizon`` on ``states``, Lambda the largest total rate.

    ``step=None`` takes 0.1 / Lambda, or the horizon when Lambda = 0.  A
    horizon or step that is not positive, or a step above 0.1 / Lambda by
    more than a relative 1e-12, raises ``ValueError``.
    """
    maxrate = model.max_total_rate(states)
    if step is None:
        step = 0.1 / maxrate if maxrate > 0 else horizon
    if not (step > 0 and horizon > 0):
        raise ValueError("horizon and step must be positive")
    if maxrate > 0 and step > 0.1 / maxrate * (1 + 1e-12):
        raise ValueError(f"step {step} exceeds 0.1/max rate = {0.1 / maxrate:g}")
    return maxrate, step


def evolve_conditioned(
    model: AbsorbedChainModel,
    mu: Distribution,
    horizon: float,
    step: float | None,
    truncation: int,
    grid_dt: float | None = None,
) -> ConditionedPath:
    """The conditioned law from mu over [0, horizon], by uniformization.

    Each step h <= 0.1 / Lambda (Lambda: the window's largest total rate;
    :func:`uniformization_step` checks ``step`` and fills in ``None``) applies
    e^{hQ_w} = sum_k Pois(k; Lambda h) P^k, P = I + Q_w / Lambda >= 0, as one
    step matrix when the window has fewer states than the run has steps, else
    by matvecs P^k u (CSR on a large window), then renormalizes.  The law is
    kept at the multiples of ``grid_dt`` (default h) below the horizon and at
    the horizon; a time s into a matvec step sums Pois(k; Lambda s) P^k u.
    The path's ``advance(v, dt)`` reads any time exactly, in sub-steps of at
    most h, whose weights start at exp(-Lambda h) >= exp(-0.1), so no read
    underflows.  ``meta`` holds the step, the truncation, the weights kept per
    step (``terms``) and ``tail_bound``, the dropped Poisson mass summed over
    the steps: every term is nonnegative, so the unnormalized law is below the
    exact one and at most that much lighter.  Raises :class:`TruncationLeak`
    when mass within one step of the cut boundary exceeds 1e-6 after a step.
    """
    states = model.state_window(truncation)
    if not set(mu.support) <= set(states):
        raise ValueError("truncation window does not cover the initial support")
    maxrate, step = uniformization_step(model, states, horizon, step)
    qt, near_idx = _window_operator(model, states)

    n_steps = max(1, int(math.ceil(horizon / step - 1e-9)))
    h = horizon / n_steps
    grid_dt = h if grid_dt is None else grid_dt
    grid = [0.0] + [j * grid_dt for j in range(1, math.ceil(horizon / grid_dt - 1e-9))] + [horizon]
    w, tail = _poisson_weights(maxrate * h)
    rate = maxrate or 1.0
    advance = partial(_advance, qt, maxrate, h)
    # one step matrix when the window has fewer states than the run has steps
    by_matrix = isinstance(qt, np.ndarray) and len(states) < n_steps
    mat = _step_matrix(qt, rate, w) if by_matrix else None

    u, k = mu.as_vector(states), 0
    inside = {}  # row -> s of each grid time kh + s inside the next matvec step
    snaps = np.empty((len(grid), len(states)))
    for i, t in enumerate(grid):
        while (k + 1 - 1e-9) * h <= t:
            k += 1
            if by_matrix:
                u = mat.dot(u)
            else:  # the step's powers P^j u also give the grid times inside it
                reads = [_poisson_weights(maxrate * s)[0] for s in inside.values()]
                u, *reads = _series(qt, rate, [w, *reads], u)
                for row, v in zip(inside, reads):
                    snaps[row] = v / v.sum()
                inside.clear()
            u /= u.sum()
            if len(near_idx) and float(u[near_idx].sum()) > LEAK_TOL:
                raise TruncationLeak(
                    f"mass {u[near_idx].sum():.3g} near the truncation boundary at t={k * h:g};"
                    " increase the truncation"
                )
        if t <= (k + 1e-9) * h:
            snaps[i] = u
        elif by_matrix:
            snaps[i] = advance(u, t - k * h)
        else:
            inside[i] = t - k * h

    meta = {"step": h, "truncation": truncation, "terms": len(w), "tail_bound": n_steps * tail}
    return ConditionedPath(np.array(grid), states, snaps, advance, meta)


@dataclass
class ResidualVector:
    """Fixed-point defect of a candidate distribution, per state."""

    values: dict[int, float] = field(default_factory=dict)

    @property
    def sup_norm(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)


def theta_of(model: AbsorbedChainModel, nu: Distribution) -> float:
    """Absorption rate under nu: sum of nu(x) q(x, 0).

    When nu is a QSD this is the rate of the exponential absorption-time law.
    """
    return math.fsum(nu.mass(x) * model.absorb_rate(x) for x in nu.support)


def qsd_residual(model: AbsorbedChainModel, mu: Distribution) -> ResidualVector:
    """Stationarity defect r(x) = (mu Q)(x) + theta_mu * mu(x).

    Evaluated on the support and its one-step neighborhood; identically zero
    exactly when mu is a QSD.
    """
    theta = theta_of(model, mu)
    targets = set(mu.support)
    for x in mu.support:
        targets.update(y for y, _ in model.transitions(x))
    acc = {x: theta * mu.mass(x) for x in sorted(targets)}
    for x in mu.support:
        m = mu.mass(x)
        total = model.absorb_rate(x)
        for y, r in model.transitions(x):
            total += r
            acc[y] += m * r
        acc[x] -= m * total
    return ResidualVector(acc)
