import math
import os
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

import qsdsim
from qsdsim import resolve_model, solve_qsd_power
from qsdsim.afp import _advance
from qsdsim.branching import BranchingPopulation, downsample_counts
from qsdsim.errors import DeadConfig, QsdError
from qsdsim.fv import FV_EVENT_CAP, _fv_events
from qsdsim.rng import TAG_EVENTS, UniformBlock

# closed-form two-state solution: principal root of l^2 + 3l + 1 = 0
T2_LAMBDA = (-3.0 + math.sqrt(5.0)) / 2.0
T2_NU1 = (3.0 - math.sqrt(5.0)) / 2.0


# Twelve states, eight of them absorbing with two or three jumps as well, so
# that the order of a + r1 + r2 + ... sums is pinned; no builtin model has
# more than one jump out of an absorbing state.  Irreducible on 1..12 and on
# the window 1..9, which drops the jumps 5 -> 11 and 9 -> 10.
MULTI_JUMP_MODEL = """qsdmodel v1
1 0 0.3
1 2 0.7
1 5 0.1
2 1 1.1
2 3 0.45
3 2 0.2
3 4 1.3
3 0 0.1
4 3 0.6
4 5 0.35
4 1 0.15
4 0 0.05
5 4 0.9
5 6 0.3
5 11 0.07
6 5 0.8
6 7 0.55
6 0 0.2
7 6 1.7
7 8 0.25
7 2 0.01
8 7 0.4
8 9 0.65
8 0 0.3
9 8 2.1
9 10 0.12
9 0 0.03
10 9 0.33
10 11 0.44
10 1 0.11
11 10 0.5
11 12 0.6
11 0 0.7
12 11 1.9
12 3 0.2
12 0 0.13
"""


def multi_jump_model_file(directory) -> Path:
    path = Path(directory) / "multi_jump.qsdmodel"
    path.write_text(MULTI_JUMP_MODEL)
    return path


def large_model_file(directory, n: int = 250) -> Path:
    """A chain on 1..n that is not a two-way path: a walk with skips.

    Each state steps to its neighbours and also jumps two states up, and
    only state 1 absorbs, so every state reaches absorption.
    """
    lines = ["qsdmodel v1", "1 0 0.5"]
    for x in range(1, n + 1):
        if x > 1:
            lines.append(f"{x} {x - 1} 2.0")
        if x < n:
            lines.append(f"{x} {x + 1} 0.5")
        if x + 2 <= n:
            lines.append(f"{x} {x + 2} 0.25")
    path = Path(directory) / "large_skip.qsdmodel"
    path.write_text("\n".join(lines) + "\n")
    return path


def column_bound(model) -> float:
    """Largest inflow sum over the columns of a finite model's generator.

    The live columns sum_y q(y, x) and the absorption column sum_y q(y, 0),
    the constant of the fixed-time FV error bound.
    """
    col = dict.fromkeys((0, *model.states), 0.0)
    for x in model.states:
        col[0] += model.absorb_rate(x)
        for y, r in model.transitions(x):
            col[y] += r
    return max(col.values())


def reference_bounds(model) -> tuple[float, float]:
    """(C0, qbar) of a finite model by the exact formula the package used to store eagerly."""
    c0 = max((model.absorb_rate(x) for x in model.states), default=0.0)
    qbar = max((math.fsum(r for _, r in model.transitions(x)) for x in model.states), default=0.0)
    return c0, qbar


def reference_internal_partition(model, qbar: float):
    """The graphical engine's former inverse cdf of an internal mark u at x.

    Jump targets in sorted (y, rate) order with widths q(x, y)/qbar, then
    the holding interval up to 1.
    """
    def draw(x: int, u: float) -> int:
        cum, targets, running = [], [], 0.0
        for y, r in sorted(model.transitions(x)):
            running += r / qbar
            cum.append(running)
            targets.append(y)
        cum.append(1.0)
        targets.append(x)
        return targets[min(bisect_right(cum, u), len(targets) - 1)]

    return draw


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_thread_env(threads: int = 1) -> dict[str, str]:
    """Environment for a fresh interpreter on ``threads`` BLAS threads that imports this qsdsim."""
    env = {**os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS}}
    env["PYTHONPATH"] = str(Path(qsdsim.__file__).resolve().parents[1])
    return env


@pytest.fixture(scope="session")
def t1():
    return resolve_model("point")


@pytest.fixture(scope="session")
def t2():
    return resolve_model("two-state")


@pytest.fixture(scope="session")
def t2_oracle(t2):
    return solve_qsd_power(t2)


def move(cfg, i: int, target: int) -> None:
    """Relocate particle i of a ParticleConfig or ReferenceFv: its member lists and their weights.

    Each state's leaf weight is the length of its member list times its rate.
    """
    src = cfg.positions[i]
    if target == src:
        return
    lst = cfg.members[src]
    j = cfg.where[i]
    last = lst[-1]
    lst[j] = last
    cfg.where[last] = j
    lst.pop()
    cfg.index.set_weight(src, len(lst) * cfg.model.total_rate(src))
    cfg.positions[i] = target
    dst = cfg.members.setdefault(target, [])
    cfg.where[i] = len(dst)
    dst.append(i)
    cfg.index.set_weight(target, len(dst) * cfg.model.total_rate(target))


def fv_event(cfg, rng) -> tuple:
    """One event of the FV kernel on ``cfg.model``, applied to cfg in place.

    Returns ``(t, particle, source, target, revived)``: the first event
    ``fv_run`` would draw from the stream ``rng``.
    """
    event = next(_fv_events(cfg, rng, math.inf, FV_EVENT_CAP))
    move(cfg, event[1], event[3])
    return event


class _ReferenceRateIndex:
    """The FV kernel's rate tree as a class of its own: 64 leaves to start, then doubling."""

    def __init__(self, cap: int = 64):
        self.cap = cap
        self.tree = [0.0] * (2 * cap)
        self.slot_of: dict[int, int] = {}
        self.state_of: dict[int, int] = {}

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

    def sample(self, u: float) -> int:
        """State whose weight interval contains u * total."""
        tree = self.tree
        target = u * tree[1]
        i = 1
        while i < self.cap:
            i += i
            left = tree[i]
            if target >= left:
                target -= left
                i += 1
        return self.state_of[i - self.cap]


class ReferenceFv:
    """Reference FV stepper: the event kernel one call per step, on its own state.

    Positions and swap-remove member lists moved by :func:`move`, the count
    per state read from the lists, a 64-leaf :class:`_ReferenceRateIndex`,
    ``model.sample_jump``, and uniforms handed out one call at a time from
    blocks of 64 doubling to 16,384 on ``rng``'s TAG_EVENTS child.
    ``drawn`` counts the uniforms taken.
    """

    def __init__(self, model, positions, rng):
        self.model = model
        self.positions = [int(x) for x in positions]
        self.N = len(self.positions)
        self.members: dict[int, list[int]] = {}
        self.where = [0] * self.N
        self.index = _ReferenceRateIndex()
        for i, x in enumerate(self.positions):
            lst = self.members.setdefault(x, [])
            self.where[i] = len(lst)
            lst.append(i)
        for x, lst in self.members.items():
            self.index.set_weight(x, len(lst) * model.total_rate(x))
        self._gen = rng.child(TAG_EVENTS).generator()
        self._len = 64
        self._buf = self._gen.random(self._len).tolist()
        self._pos = 0
        self.drawn = 0

    def u(self) -> float:
        if self._pos == self._len:
            self._len = min(2 * self._len, 1 << 14)
            self._buf = self._gen.random(self._len).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        self.drawn += 1
        return v

    @property
    def occupancy(self) -> dict[int, int]:
        return {x: len(lst) for x, lst in self.members.items()}

    def exp(self, rate: float) -> float:
        return -math.log1p(-self.u()) / rate

    def events(self, until: float):
        """``(t, particle, source, target, revived)`` before ``until``, moving after each yield."""
        t = 0.0
        while True:
            agg = self.index.tree[1]
            if agg <= 0.0:
                raise DeadConfig("aggregate rate is 0")
            t += self.exp(agg)
            if t >= until:
                return
            x = self.index.sample(self.u())
            lst = self.members[x]
            i = lst[int(self.u() * len(lst))]
            target = self.model.sample_jump(x, self.u())
            revived = target == 0
            if revived:
                j = i
                while j == i:
                    j = int(self.u() * self.N)
                target = self.positions[j]
            yield t, i, x, target, revived
            move(self, i, target)


def afp_advance(history, d, rng):
    """One renewal step appended to ``history``: the first ``afp_run`` takes on ``rng``."""
    _advance(history, d, iter(UniformBlock(rng.child(TAG_EVENTS))), 1)
    return history


class Extinct(QsdError):
    """A branching population stepped by ``_one_event`` died out."""


class GeneratorUniforms:
    """Uniforms from a borrowed generator, refilled ``size`` at a time.

    Other draws on the same generator land between refills, so the refill
    size fixes where they fall.
    """

    def __init__(self, gen: np.random.Generator, size: int):
        self.gen = gen
        self.size = size
        self.buf = gen.random(size).tolist()
        self.pos = 0

    def u(self) -> float:
        if self.pos == self.size:
            self.buf = self.gen.random(self.size).tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v

    def exp(self, rate: float) -> float:
        return -math.log1p(-self.u()) / rate


class _OffspringBlocks:
    """Pre-drawn Poisson offspring rows, ``size`` rows per parent type at a time."""

    def __init__(self, gen: np.random.Generator, means: np.ndarray, size: int = 1 << 10):
        self.gen = gen
        self.means = means
        self.size = size
        self.blocks = [None] * means.shape[0]
        self.pos = [size] * means.shape[0]

    def row(self, i: int) -> list:
        if self.pos[i] == self.size:
            self.blocks[i] = self.gen.poisson(self.means[i], size=(self.size, len(self.means))).tolist()
            self.pos[i] = 0
        out = self.blocks[i][self.pos[i]]
        self.pos[i] += 1
        return out


def _one_event(pop, uniforms: GeneratorUniforms, offspring: _OffspringBlocks, gen) -> int:
    """Reference branching event: a uniform individual dies and leaves Poisson offspring.

    Applied to ``pop`` in place; returns the size before any down-sampling
    and raises ``Extinct`` at size 0, after setting ``pop.extinct``: a mark
    of this stepper's own, which ``BranchingPopulation`` does not declare.
    """
    counts = pop.counts
    total = sum(counts)
    pop.t += uniforms.exp(float(total))
    pick = uniforms.u() * total
    i = 0
    acc = counts[0]
    while pick >= acc:
        i += 1
        acc += counts[i]
    kids = offspring.row(i)
    counts[i] -= 1
    for j, k in enumerate(kids):
        if k:
            counts[j] += k
    new_total = total - 1 + sum(kids)
    if new_total == 0:
        pop.extinct = True
        raise Extinct(f"population died at t={pop.t:.4g}")
    if new_total > pop.cap:
        pop.counts[:] = downsample_counts(counts, pop.cap // 2, gen)
        pop.cap_events += 1
    return new_total


def single_population(sm, start: int, cap: int) -> BranchingPopulation:
    """A population of one individual of type ``start``, as each attempt begins."""
    counts = [0] * sm.n
    counts[sm.states.index(start)] = 1
    return BranchingPopulation(states=sm.states, counts=counts, cap=cap)


def reference_attempt(sm, start, horizon, cap, stream):
    """One ``ks_estimate`` attempt stepped event by event by ``_one_event``; None on extinction.

    Refills 16,384 uniforms and 1,024 offspring rows at a time, so it draws
    what ``branching._run_attempt`` draws, in the same order.
    """
    gen = stream.generator()
    blocks = GeneratorUniforms(gen, 1 << 14)
    offspring = _OffspringBlocks(gen, sm.means)
    pop = single_population(sm, start, cap)
    pop.growth_log.append((0.0, 1))
    events = 0
    while pop.t < horizon:
        try:
            total = _one_event(pop, blocks, offspring, gen)
        except Extinct:
            return None
        if pop.t >= horizon:
            break
        events += 1
        if pop.cap_events == 0 and events % 64 == 0:
            pop.growth_log.append((pop.t, total))
    return pop


def branch_event(pop, sm, rng):
    """One lifetime event of a branching population, in place.

    Draws from the generator of ``rng``'s TAG_EVENTS child, with refills of
    8 uniforms and one offspring row; raises ``Extinct`` at size 0.
    """
    if sum(pop.counts) < 1:
        raise Extinct("population is already empty")
    gen = rng.child(TAG_EVENTS).generator()
    _one_event(pop, GeneratorUniforms(gen, 8), _OffspringBlocks(gen, sm.means, size=1), gen)
    return pop


def check_consistency(cfg, tol: float = 1e-9) -> None:
    """Invariants of a ParticleConfig: the member lists hold each particle once, where it sits,
    and the rate tree matches a recompute from their lengths."""
    assert sorted(i for lst in cfg.members.values() for i in lst) == list(range(cfg.N))
    assert all(cfg.positions[i] == x and cfg.where[i] == k
               for x, lst in cfg.members.items() for k, i in enumerate(lst))
    assert all(x > 0 for x, lst in cfg.members.items() if lst)
    exact = math.fsum(len(lst) * cfg.model.total_rate(x) for x, lst in cfg.members.items() if lst)
    assert abs(cfg.index.total - exact) <= tol * max(1.0, exact)


class ReturnRates:
    """Effective rates of the chain that re-enters with law mu on absorption.

    Reference code for the return-map tests: the rates q(x, y) + q(x, 0) mu(y)
    entry by entry, and the dense generator they form.
    """

    def __init__(self, model, mu):
        self.model = model
        self.mu = mu

    def rate(self, x: int, y: int) -> float:
        if x == y:
            raise ValueError("diagonal entries are derived, not stored")
        base = dict(self.model.transitions(x)).get(y, 0.0)
        return base + self.model.absorb_rate(x) * self.mu.mass(y)

    def matrix(self, states) -> np.ndarray:
        """Dense generator of the return chain on the given states.

        The self-return mass q(x, 0) mu(x) is a null event and is left out,
        so rows sum to zero exactly.
        """
        b = self.model.live_block(states)
        n = len(b.states)
        gen = np.zeros((n, n))
        np.add.at(gen, (b.src, b.dst), b.rate)
        for i, x in enumerate(b.states):
            a = b.absorb[i]
            if a > 0:
                for y, m in self.mu.items():
                    if y != x:
                        gen[i, b.index[y]] += a * m
            gen[i, i] = -gen[i].sum()
        return gen


class TimeDepReturnRates:
    """Rates of the limit process: the return law at time t is the conditioned law.

    Where the supplied path is constant and equal to a QSD, these rates are
    time-independent and coincide with :class:`ReturnRates` of that QSD.
    """

    def __init__(self, model, path):
        self.model = model
        self.path = path

    def rate(self, t: float, x: int, y: int) -> float:
        if x == y:
            raise ValueError("diagonal entries are derived, not stored")
        base = dict(self.model.transitions(x)).get(y, 0.0)
        vec = self.path.vector_at(t)
        mass = 0.0
        for state, m in zip(self.path.states, vec):
            if state == y:
                mass = float(m)
                break
        return base + self.model.absorb_rate(x) * mass


def full_generator_t2() -> np.ndarray:
    """Generator of the two-state chain including the absorbing state.

    Row/column order (0, 1, 2); used by the independent matrix-exponential
    oracle below.
    """
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, -2.0, 1.0],
            [0.0, 1.0, -1.0],
        ]
    )


def expm_uniformized(gen: np.ndarray, t: float, tol: float = 1e-16) -> np.ndarray:
    """Matrix exponential by the uniformization series.

    e^{tQ} = sum_k e^{-Lt} (Lt)^k / k! P^k with P = I + Q/L; the series is
    truncated once the remaining Poisson tail is below tol.  One series over
    [0, t] on the full generator, absorbing state included, independent of
    the stepped window operator of the conditioned flow.
    """
    rate = max(-np.diag(gen)) or 1.0
    p = np.eye(len(gen)) + gen / rate
    lt = rate * t
    term = math.exp(-lt)
    out = term * np.eye(len(gen))
    pk = np.eye(len(gen))
    acc = term
    k = 0
    while 1.0 - acc > tol and k < 10_000:
        k += 1
        term *= lt / k
        pk = pk @ p
        out += term * pk
        acc += term
    return out


def conditional_law_t2(t: float) -> np.ndarray:
    """Exact conditioned law (states 1, 2) at time t started from state 2."""
    pt = expm_uniformized(full_generator_t2(), t)
    row = pt[2]
    alive = row[1] + row[2]
    return np.array([row[1] / alive, row[2] / alive])


def expm_window_law(model, mu, t: float, truncation: int) -> tuple[np.ndarray, float]:
    """(mu e^{tQ_w} / |mu e^{tQ_w}|, |mu e^{tQ_w}|) by ``scipy.linalg.expm``.

    Q_w is the generator on the window up to truncation, built here from
    ``model.transitions``; a jump that leaves the window stays in the
    diagonal, so it kills, as in the conditioned flow.  The second value is
    the probability of staying alive in the window up to t.
    """
    from scipy.linalg import expm

    states = model.state_window(truncation)
    index = {x: i for i, x in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for x in states:
        i = index[x]
        q[i, i] -= model.absorb_rate(x)
        for y, r in model.transitions(x):
            q[i, i] -= r
            if y in index:
                q[i, index[y]] += r
    v = mu.as_vector(states) @ expm(t * q)
    return v / v.sum(), float(v.sum())


def reference_series(qt, rate: float, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k w_k P^k v, P = I + qt / rate: one weight list, one series (the earlier _series)."""
    out = w[0] * v
    for wk in w[1:]:
        v = v + (qt @ v) / rate
        out += wk * v
    return out


def reference_step_matrix(qt: np.ndarray, rate: float, w: np.ndarray) -> np.ndarray:
    """The step matrix built on ``np.zeros``, wherever malloc puts it, column by column."""
    mat = np.zeros(qt.shape)
    e = np.zeros(len(qt))
    for j in range(len(qt)):
        e[j] = 1.0
        mat[:, j] = reference_series(qt, rate, w, e)
        e[j] = 0.0
    return mat


def reference_conditioned(model, mu, horizon: float, truncation: int, grid_dt=None):
    """(times, masses) of the conditioned flow at the default step, by the earlier loop.

    Each grid time inside a step runs a series of its own from the step's start
    (one sub-step of ``_advance`` with the earlier one-list series), where
    ``evolve_conditioned`` reads it from the step's powers.
    """
    from qsdsim.conditioned import _poisson_weights, _window_operator

    states = model.state_window(truncation)
    maxrate = model.max_total_rate(states)
    qt, _ = _window_operator(model, states)
    n_steps = max(1, int(math.ceil(horizon / (0.1 / maxrate) - 1e-9)))
    h = horizon / n_steps
    grid_dt = h if grid_dt is None else grid_dt
    grid = [0.0] + [j * grid_dt for j in range(1, math.ceil(horizon / grid_dt - 1e-9))] + [horizon]
    w, _ = _poisson_weights(maxrate * h)
    rate = maxrate or 1.0
    if isinstance(qt, np.ndarray) and len(states) < n_steps:
        step_once = reference_step_matrix(qt, rate, w).dot
    else:
        def step_once(v):
            return reference_series(qt, rate, w, v)

    def advance(v, dt):
        n = max(1, math.ceil(dt / h - 1e-9))
        wd, _ = _poisson_weights(maxrate * dt / n)
        for _ in range(n):
            v = reference_series(qt, rate, wd, v)
            v /= v.sum()
        return v

    u, k = mu.as_vector(states), 0
    snaps = np.empty((len(grid), len(states)))
    for i, t in enumerate(grid):
        while (k + 1 - 1e-9) * h <= t:
            k += 1
            u = step_once(u)
            u /= u.sum()
        snaps[i] = u if t <= (k + 1e-9) * h else advance(u, t - k * h)
    return np.array(grid), snaps


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal arrays with equal sign bits, so that -0.0 and 0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def reference_sweep(piv: list[float], lower: list[float], upper: list[float]):
    """The earlier ``oracle._sweep``: list indexing in the forward sweep, appends in the back."""
    mult = [e / p for e, p in zip(lower, piv)]
    back = list(zip(upper[::-1], piv[-2::-1]))

    def solve(y: list[float]) -> list[float]:
        for i, m in enumerate(mult):
            y[i + 1] += m * y[i]
        u = [y[-1] / piv[-1]]
        for yi, (e, p) in zip(y[-2::-1], back):
            u.append((yi + e * u[-1]) / p)
        u.reverse()
        return u

    return solve


def poisson_tail(x: float, first: int) -> float:
    """P(Poisson(x) >= first), summed term by term (no cancellation); x <= 1."""
    return math.fsum(math.exp(-x) * x**k / math.factorial(k) for k in range(first, first + 40))


def merge_bins(counts_a: dict, counts_b: dict, min_expected: float = 5.0):
    """Pool two samples of categorical counts into chi-square-safe bins.

    Categories are ordered by key; adjacent categories are merged until each
    pooled bin has at least ``min_expected`` expected counts in both samples.
    Returns two aligned count arrays.
    """
    keys = sorted(set(counts_a) | set(counts_b))
    a = np.array([counts_a.get(k, 0) for k in keys], dtype=float)
    b = np.array([counts_b.get(k, 0) for k in keys], dtype=float)
    na, nb = a.sum(), b.sum()
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for va, vb in zip(a, b):
        acc_a += va
        acc_b += vb
        pooled = (acc_a + acc_b) / (na + nb)
        if pooled * na >= min_expected and pooled * nb >= min_expected:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
    return np.array(bins_a), np.array(bins_b)


def two_sample_chi2_pvalue(sample_a, sample_b) -> float:
    """Two-sample chi-square homogeneity test on categorical samples."""
    from collections import Counter
    from scipy.stats import chi2_contingency

    a, b = merge_bins(Counter(sample_a), Counter(sample_b))
    if len(a) < 2:
        return 1.0  # identical degenerate distributions
    table = np.vstack([a, b])
    return float(chi2_contingency(table)[1])


def one_sample_chi2_pvalue(sample, probs: dict) -> float:
    """Goodness-of-fit test of a categorical sample against given masses."""
    from collections import Counter
    from scipy.stats import chisquare

    counts = Counter(sample)
    keys = sorted(probs)
    obs = np.array([counts.get(k, 0) for k in keys], dtype=float)
    exp = np.array([probs[k] for k in keys], dtype=float) * obs.sum()
    keep = exp > 0
    return float(chisquare(obs[keep], exp[keep])[1])
