"""Supercritical multitype branching estimator of the QSD.

Shifting the live generator block by alpha on the diagonal gives a
nonnegative offspring mean matrix m(x, y) = q(x, y) + (alpha + 1) delta_xy,
read from the block's dense Q^T (``LiveBlock.generator_t``).
Individuals live mean-one exponential lifetimes and branch with independent
Poisson(m(x, y)) offspring per type; for alpha large enough the process is
supercritical and the normalized type profile converges, on survival, to
the left Perron eigenvector, i.e. the QSD (Kesten-Stigum limit).  The
Poisson choice matches the prescribed means exactly and has the moments the
limit theorem needs.

Populations are capped with multinomial down-sampling to cap/2 on overflow;
cap events are counted and reported, not hidden, because the control bias is
not quantified by theory.

Each attempt is one loop over lifetime events with its state in locals.  It
draws from its stream's generator in a fixed order: 16,384 uniforms at a time
(two per event: the wait, then the pick), 1,024 Poisson offspring rows of a
type at a time, and a multinomial on each cap overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import AbsorbedChainModel, Distribution, mean_distribution
from .errors import AllExtinct, NegativeMean
from .oracle import check_irreducible
from .rng import RngStream, TAG_EVENTS


@dataclass
class ShiftedMeanMatrix:
    """Offspring mean matrix of the shifted process plus its growth metadata.

    ``supercritical`` is a certificate, not an estimate: it is True only when
    the shift provably makes the principal eigenvalue positive (alpha above
    the largest total rate, or matching it on an irreducible set of >= 2
    types, where a positive cycle forces a positive Perron value).  A
    user-supplied alpha below that threshold leaves the flag False even when
    the process happens to be supercritical.
    """

    states: tuple[int, ...]
    alpha: float
    means: np.ndarray
    supercritical: bool
    auto_bumped: bool = False
    lam_alpha_exact: float | None = None  # known in closed form only for one type

    @property
    def n(self) -> int:
        return len(self.states)


def certifies_supercritical(model: AbsorbedChainModel, alpha: float) -> bool:
    """Whether the shift alpha certifies strict supercriticality on the finite model.

    A single type grows at alpha - r exactly; otherwise alpha >= the largest
    total rate suffices.
    """
    maxrate = model.max_total_rate(model.states)
    return alpha > maxrate if len(model.states) == 1 else alpha >= maxrate


def build_shifted(model: AbsorbedChainModel, alpha="auto") -> ShiftedMeanMatrix:
    """Mean matrix q(x, y) + (alpha + 1) delta_xy on the finite type set.

    With ``alpha="auto"`` the shift is the largest total rate, bumped by one
    when that alone cannot certify strict supercriticality (single type, or
    an exactly critical shift).  Raises :class:`NegativeMean` when a
    user-supplied alpha leaves a negative diagonal.
    """
    if not model.is_finite:
        raise ValueError("the branching estimator needs a finite type set; truncate first")
    states = model.states
    check_irreducible(model, states)
    n = len(states)
    maxrate = model.max_total_rate(states)

    auto_bumped = False
    if alpha == "auto":
        alpha = maxrate
        if n == 1:
            # single type: lambda = -r exactly, so the shift must exceed r
            x = states[0]
            if alpha - model.total_rate(x) <= 0:
                alpha = maxrate + 1.0
                auto_bumped = True
    else:
        alpha = float(alpha)

    means = model.live_block().generator_t(dense=True).T  # Q, a view of the fresh Q^T
    means[np.diag_indices(n)] += alpha + 1.0
    if means.diagonal().min() < 0:
        worst = states[int(means.diagonal().argmin())]
        raise NegativeMean(
            f"alpha={alpha} leaves a negative mean at type {worst};"
            f" need alpha >= r(x) - 1 everywhere"
        )

    lam_alpha_exact = alpha - model.total_rate(states[0]) if n == 1 else None
    return ShiftedMeanMatrix(
        states=states,
        alpha=alpha,
        means=means,
        supercritical=certifies_supercritical(model, alpha),
        auto_bumped=auto_bumped,
        lam_alpha_exact=lam_alpha_exact,
    )


@dataclass
class BranchingPopulation:
    """Type counts of one population, with the cap bookkeeping."""

    states: tuple[int, ...]
    counts: list[int]
    cap: int
    t: float = 0.0
    cap_events: int = 0
    growth_log: list[tuple[float, int]] = field(default_factory=list)

    def profile(self) -> Distribution:
        return Distribution.from_weights(
            {x: c for x, c in zip(self.states, self.counts) if c}
        )


def downsample_counts(counts, keep: int, gen: np.random.Generator) -> list[int]:
    """Multinomial down-sample of a count vector to ``keep`` individuals.

    Type proportions are preserved in expectation; this is the population
    control applied when a cap overflows.
    """
    total = sum(counts)
    sampled = gen.multinomial(keep, np.asarray(counts, dtype=float) / total)
    return sampled.tolist()


@dataclass
class KsEstimate:
    """Averaged surviving-type profile with survival and growth statistics."""

    nu_hat: Distribution
    survival_fraction: float
    attempts: int
    survivors: int
    growth_rate_fit: float
    cap_events: int
    alpha: float


# Draws per refill.  They fix where each refill falls among the other draws
# on the attempt's generator, so changing them changes every seeded run.
UNIFORM_BLOCK = 1 << 14
OFFSPRING_ROWS = 1 << 10


def _run_attempt(sm: ShiftedMeanMatrix, start: int, horizon: float, cap: int, stream: RngStream):
    """One attempt from a single individual, or None when it dies out.

    The event whose time passes the horizon is still applied.
    """
    gen = stream.generator()
    uniforms = gen.random(UNIFORM_BLOCK).tolist()
    pos = 0
    cols = range(sm.n)
    # rows[i] iterates type i's offspring rows, each as the count changes (the
    # parent's -1 included) followed by their sum.  A block's rows are freed
    # together when the next block replaces it; freeing them one at a time
    # fragments the heap and raised peak RSS by 2% over a long run.
    rows = [iter(()) for _ in cols]
    counts = [0] * sm.n
    counts[sm.states.index(start)] = 1
    total = 1
    t = 0.0
    cap_events = 0
    growth_log = [(0.0, 1)]
    events = 0
    while t < horizon:
        if pos == UNIFORM_BLOCK:
            uniforms = gen.random(UNIFORM_BLOCK).tolist()
            pos = 0
        t += -math.log1p(-uniforms[pos]) / total
        pick = uniforms[pos + 1] * total
        pos += 2
        i = 0
        acc = counts[0]
        while pick >= acc:
            i += 1
            acc += counts[i]
        row = next(rows[i], None)
        if row is None:
            block = gen.poisson(sm.means[i], size=(OFFSPRING_ROWS, sm.n))
            block[:, i] -= 1
            rows[i] = iter(np.column_stack((block, block.sum(axis=1))).tolist())
            row = next(rows[i])
        for j, d in zip(cols, row):
            if d:
                counts[j] += d
        total += row[-1]
        if total == 0:
            return None
        if total > cap:
            counts = downsample_counts(counts, cap // 2, gen)
            total = cap // 2
            cap_events += 1
        if t >= horizon:
            break
        events += 1
        if cap_events == 0 and events % 64 == 0:
            growth_log.append((t, total))
    return BranchingPopulation(sm.states, counts, cap, t, cap_events=cap_events,
                               growth_log=growth_log)


def _growth_slope(log: list[tuple[float, int]], min_total: int = 20) -> float | None:
    pts = [(t, n) for t, n in log if n >= min_total]
    if len(pts) < 2:
        return None
    ts = np.array([t for t, _ in pts])
    ys = np.log([n for _, n in pts])
    if np.ptp(ts) <= 0:
        return None
    return float(np.polyfit(ts, ys, 1)[0])


def ks_estimate(
    model: AbsorbedChainModel,
    alpha,
    horizon: float,
    cap: int,
    restarts: int,
    rng: RngStream,
) -> KsEstimate:
    """Normalized type profile at the horizon, averaged over surviving attempts.

    ``restarts`` is the total number of independent attempts from a single
    individual at the first state; attempts that die out are simply counted
    against survival.  The growth-rate fit uses the pre-cap log-size samples
    and should match alpha plus the principal eigenvalue.
    """
    sm = alpha if isinstance(alpha, ShiftedMeanMatrix) else build_shifted(model, alpha)
    if not sm.supercritical:
        raise ValueError(
            "the shift is not certified supercritical; increase alpha or use 'auto'"
        )
    if cap < 2:
        raise ValueError(f"cap must be at least 2, got {cap}: down-sampling keeps cap // 2 individuals")
    profiles = []
    slopes = []
    cap_events = 0
    for k in range(restarts):
        pop = _run_attempt(sm, sm.states[0], horizon, cap, rng.child(k, TAG_EVENTS))
        if pop is None:
            continue
        profiles.append(pop.profile())
        cap_events += pop.cap_events
        slope = _growth_slope(pop.growth_log)
        if slope is not None:
            slopes.append(slope)
    if not profiles:
        raise AllExtinct(f"all {restarts} attempts died before t={horizon}")
    nu_hat = mean_distribution(profiles)
    return KsEstimate(
        nu_hat=nu_hat,
        survival_fraction=len(profiles) / restarts,
        attempts=restarts,
        survivors=len(profiles),
        growth_rate_fit=float(np.mean(slopes)) if slopes else math.nan,
        cap_events=cap_events,
        alpha=sm.alpha,
    )
