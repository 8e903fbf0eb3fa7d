"""Reference QSDs on finite or truncated spaces via the principal left eigenvector.

On a finite window the QSD is the normalized left Perron vector of the live
block of the generator.  The solvers here run power iteration on the
uniformized matrix M = I + Q/rate, built from the window's live block;
nothing ever densifies beyond the window itself.  The iteration count grows
quickly with the window on drifted chains: on bd:1,2 it takes 44,536
iterations at K=200 and 143,663 at K=400, and at K >= 800 it raises
:class:`NoConvergence` within the default 200,000 iterations.

scipy is used here only for the power iteration's matrix: ``scipy.sparse``
builds it and its ``csr_matvec`` kernel runs each step.  It is imported when
a solver first runs, not with the module, so runs that never call the oracle
never load it; ``scipy.sparse.linalg`` and ``scipy.linalg`` are not used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .chain import AbsorbedChainModel, Distribution, strongly_connected, tv_distance
from .errors import NoConvergence, NoStabilization, NotIrreducible
from .conditioned import qsd_residual
from .models import DiscreteChainModel

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class QsdSolution:
    """Principal-eigenvector solution: the QSD with its eigenvalue data.

    ``lam`` is the principal eigenvalue of the live generator block (negative
    in continuous time, in (0, 1) for a discrete skeleton); ``theta = -lam``
    for continuous models.  ``residual`` is the sup-norm fixed-point defect.
    ``meta["gap_log"]`` is a bounded record of the TV gaps between successive
    iterates: the gaps of the first ``GAP_HEAD`` iterations, then the last
    ``GAP_HEAD`` gaps computed after them.  Past the head a gap is computed
    only at iterations whose growth-factor drift is already below ``tol``,
    the only ones where it can stop the iteration.
    """

    nu: Distribution
    lam: float
    theta: float
    residual: float
    truncation: int
    iterations: int
    meta: dict = field(default_factory=dict)


def check_irreducible(model: AbsorbedChainModel, states) -> None:
    """Raise :class:`NotIrreducible` unless the window is strongly connected."""
    b = model.live_block(states)
    positive = b.rate > 0
    if not strongly_connected(len(b.states), b.src[positive], b.dst[positive]):
        raise NotIrreducible(f"window of {len(b.states)} states is not strongly connected")


# Gaps recorded at the start of a power iteration, and again at its end.
GAP_HEAD = 32


def _left_power(mat_t: sp.csr_matrix, start: np.ndarray, tol: float, max_iters: int):
    """Left power iteration; returns (vector, growth factor, iterations, gap log).

    The matrix is passed transposed so each step is a plain csr matvec, run
    by scipy's own kernel into a reused buffer (the kernel accumulates, so
    the buffer is zeroed first).  Convergence requires both the TV gap
    between successive normalized iterates and the growth-factor drift to
    fall below ``tol``; the gap is only needed where the drift already has,
    and in the first ``GAP_HEAD`` iterations, which the log keeps.
    """
    from scipy.sparse._sparsetools import csr_matvec

    n = mat_t.shape[0]
    indptr, indices, data = mat_t.indptr, mat_t.indices, mat_t.data
    add = np.add.reduce
    v = start / start.sum()
    w = np.empty(n)
    diff = np.empty(n)
    rho = 0.0
    head: list[float] = []
    tail: deque[float] = deque(maxlen=GAP_HEAD)
    gap = None

    def tv_gap() -> float:
        np.subtract(w, v, out=diff)
        np.abs(diff, out=diff)
        return 0.5 * float(add(diff))

    for it in range(1, max_iters + 1):
        w.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, v, w)
        total = float(add(w))
        if total <= 0.0:
            raise NotIrreducible("iterate left the positive cone; matrix is degenerate")
        w /= total
        drift = abs(total - rho)
        if it <= GAP_HEAD:
            gap = tv_gap()
            head.append(gap)
        elif drift < tol:
            gap = tv_gap()
            tail.append(gap)
        else:
            gap = None
        v, w, rho = w, v, total
        if gap is not None and gap < tol and drift < tol and it >= 2:
            return v, rho, it, head + list(tail)
    if gap is None and max_iters >= 1:
        gap = tv_gap()  # skipped in the last iteration; w holds the one before
    raise NoConvergence(
        f"power iteration did not converge in {max_iters} iterations", last_gap=gap
    )


def solve_qsd_power(
    model: AbsorbedChainModel,
    truncation: int | None = None,
    tol: float = 1e-12,
    max_iters: int = 200_000,
) -> QsdSolution:
    """QSD of the model restricted to states <= truncation.

    Power iteration on the left of M = I + Q/rate with rate = 1.05 x max
    total rate; the principal eigenvalue of the generator is recovered as
    rate * (growth - 1).
    """
    import scipy.sparse as sp

    if truncation is None:
        if not model.is_finite:
            raise ValueError("an infinite model needs an explicit truncation")
        truncation = max(model.states)
    finite = model.restricted(truncation)
    states = finite.states
    check_irreducible(finite, states)
    rate = 1.05 * finite.max_total_rate(states)
    if rate <= 0:
        raise NotIrreducible("all states have total rate zero")
    b = finite.live_block()
    n = len(states)
    span = np.arange(n)
    # transposed: column src feeds row dst
    rows = np.concatenate([span, b.dst])
    cols = np.concatenate([span, b.src])
    vals = np.concatenate([1.0 - b.total / rate, b.rate / rate])
    mat_t = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    v, rho, iters, gaps = _left_power(mat_t, np.ones(n), tol, max_iters)
    lam = rate * (rho - 1.0)
    nu = Distribution.from_weights(dict(zip(states, v)))
    residual = qsd_residual(finite, nu).sup_norm
    return QsdSolution(
        nu=nu,
        lam=lam,
        theta=-lam,
        residual=residual,
        truncation=truncation,
        iterations=iters,
        meta={"rate": rate, "gap_log": gaps, "model": finite.name},
    )


def solve_qsd_discrete(
    d: DiscreteChainModel, tol: float = 1e-12, max_iters: int = 200_000
) -> QsdSolution:
    """Left Perron vector of a substochastic matrix: nu P = lam nu, lam in (0, 1).

    The deterministic start vector is deliberately non-uniform so that
    periodic inputs fail over to :class:`NoConvergence` instead of landing on
    the uniform vector by accident.
    """
    import scipy.sparse as sp

    n = d.n
    if not strongly_connected(n, *np.nonzero(d.sub > 0)):
        raise NotIrreducible("discrete window is not strongly connected")
    start = np.arange(1.0, n + 1.0)
    v, rho, iters, gaps = _left_power(sp.csr_matrix(d.sub.T), start, tol, max_iters)
    nu = Distribution.from_weights({x: v[d.index[x]] for x in d.states})
    vec = nu.as_vector(d.states)
    residual = float(np.abs(vec @ d.sub - rho * vec).max())
    return QsdSolution(
        nu=nu,
        lam=rho,
        theta=float(vec @ d.kill),
        residual=residual,
        truncation=max(d.states),
        iterations=iters,
        meta={"gap_log": gaps, "model": d.name},
    )


DEFAULT_SCHEDULE = (100, 200, 400, 800, 1600)


def minimal_qsd_reference(
    model: AbsorbedChainModel,
    schedule=DEFAULT_SCHEDULE,
    tol: float = 1e-8,
    solver_tol: float = 1e-12,
) -> QsdSolution:
    """Truncation-stabilized QSD used as the minimal-QSD reference.

    Solves on increasing windows until two consecutive solutions agree in
    total variation.  Identifying that limit with the minimal QSD is an
    engineering convention (well supported for birth-death chains); the
    solution is tagged accordingly in ``meta``.
    """
    if model.is_finite:
        sol = solve_qsd_power(model, tol=solver_tol)
        sol.meta["minimal_qsd_convention"] = "finite space: unique solution"
        return sol
    prev = None
    for K in schedule:
        sol = solve_qsd_power(model, truncation=K, tol=solver_tol)
        if prev is not None and tv_distance(prev.nu, sol.nu) < tol:
            sol.meta["minimal_qsd_convention"] = (
                f"truncation limit stabilized at K={K} (tv tol {tol:g})"
            )
            sol.meta["schedule"] = tuple(schedule)
            return sol
        prev = sol
    raise NoStabilization(
        f"schedule {tuple(schedule)} exhausted without TV-stabilization below {tol:g}"
    )
