"""Reference QSDs on finite or truncated spaces via the principal left eigenvector.

On a finite window the QSD is the normalized left Perron vector of the live
block of the generator.  :func:`solve_qsd_power` picks its route from the
block's shape:

* *Two-way paths* (every builtin chain: ``two-state``, ``bd:p,q[,K]``,
  ``gw:b,d``).  Such a chain is reversible, so the block is similar to a
  symmetric tridiagonal matrix S.  The top eigenvalue of S comes from
  Sturm-count bisection and the vector from two Thomas solves of
  (sigma I - S) u = 1 with sigma just above it; that matrix is a
  positive-definite M-matrix, so u stays entrywise positive.  The vector is
  mapped back in log space.  On bd:1,2 a whole solve takes about 7 ms at
  K=400 and 0.12 s at K=6400 on a 2-vCPU host, where power iteration needed
  143,663 steps (1.2 s) at K=400 and did not converge at K >= 800.
* *Other windows* run power iteration on the uniformized matrix
  M = I + Q/rate.  Its iteration count grows quickly with the window on
  drifted chains.

Only the power route uses scipy: ``scipy.sparse`` builds its matrix and the
``csr_matvec`` kernel runs each step.  It is imported when that route first
runs, not with the module, so path windows never load it;
``scipy.sparse.linalg`` and ``scipy.linalg`` are not used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .chain import AbsorbedChainModel, Distribution, LiveBlock, strongly_connected, tv_distance
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
    ``meta["solver"]`` names the route, ``"path"`` or ``"power"``, and
    ``iterations`` counts its steps: Sturm-count bisection steps on the path
    route, matrix-vector products on the power route.  On the power route
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
    """Raise :class:`NotIrreducible` unless the window is strongly connected.

    A two-way path is, so only other windows are walked.
    """
    b = model.live_block(states)
    if b.two_way_path is not None:
        return
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


def _pivots(x: float, total: list[float], off2: list[float]) -> list[float] | None:
    """LDL^T pivots of x I - S, or None as soon as one is not positive.

    S is the symmetrized path block: diagonal ``-total``, squared
    off-diagonal ``off2``.  All pivots are positive exactly when x I - S is
    positive definite, that is when the Sturm count at x is n and x lies
    above the top eigenvalue.
    """
    p = x + total[0]
    if p <= 0.0:
        return None
    piv = [p]
    for t, e2 in zip(total[1:], off2):
        p = (x + t) - e2 / p
        if p <= 0.0:
            return None
        piv.append(p)
    return piv


def _thomas(piv: list[float], off: list[float], rhs: list[float]) -> list[float]:
    """Solve (x I - S) u = rhs from the pivots of x I - S.

    The off-diagonal of x I - S is ``-off`` <= 0, so with positive pivots and
    a positive right-hand side every step adds positive terms: u is positive
    and has no cancellation.
    """
    y = [rhs[0]]
    for p, e, r in zip(piv, off, rhs[1:]):
        y.append(r + e / p * y[-1])
    u = [y[-1] / piv[-1]]
    for i in range(len(piv) - 2, -1, -1):
        u.append((y[i] + off[i] * u[-1]) / piv[i])
    u.reverse()
    return u


def _path_qsd(b: LiveBlock) -> tuple[np.ndarray, float, int]:
    """(left Perron vector, eigenvalue, bisection steps) of a two-way-path block.

    With pi(i+1) / pi(i) = up(i) / down(i), the block is similar to the
    symmetric tridiagonal S with diagonal -total and off-diagonal
    sqrt(up down); its top eigenvector u maps back to nu = u pi^(1/2).
    """
    up, down = b.two_way_path
    n = len(b.states)
    off2 = up * down
    off = np.sqrt(off2)
    radius = np.zeros(n)
    radius[:-1] += off
    radius[1:] += off
    lo = float(np.min(-b.total - radius))
    hi = float(np.max(-b.total + radius))
    # widen the Gershgorin bracket so that rounding cannot put lambda_1 on its edge
    scale = max(abs(lo), abs(hi))
    lo, hi = lo - 1e-9 * scale, hi + 1e-9 * scale
    floor = 4.0 * np.finfo(float).eps ** 2 * scale
    total, off2, off = b.total.tolist(), off2.tolist(), off.tolist()
    steps = 0
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        if _pivots(mid, total, off2) is None:
            lo = mid
        else:
            hi = mid
    piv = _pivots(hi, total, off2)
    if piv is None:
        raise NoConvergence("bisection lost the top eigenvalue of the path block")
    u = _thomas(piv, off, [1.0] * n)
    top = max(u)
    u = np.array(_thomas(piv, off, [v / top for v in u]))
    if not (np.all(u > 0.0) and np.all(np.isfinite(u))):
        raise NoConvergence("the shifted path solve left the positive cone")
    log_nu = np.log(u)
    log_nu[1:] += 0.5 * np.cumsum(np.log(up) - np.log(down))
    nu = np.exp(log_nu - log_nu.max())
    return nu / nu.sum(), hi, steps


def solve_qsd_power(
    model: AbsorbedChainModel,
    truncation: int | None = None,
    tol: float = 1e-12,
    max_iters: int = 200_000,
) -> QsdSolution:
    """QSD of the model restricted to states <= truncation.

    A window whose live block is a two-way path (see
    :attr:`LiveBlock.two_way_path`) is solved by :func:`_path_qsd`, in
    O(n) work per bisection step and no iteration limit.  Any other window
    runs power iteration on the left of M = I + Q/rate with
    rate = 1.05 x max total rate, and recovers the principal eigenvalue of
    the generator as rate * (growth - 1); ``tol`` and ``max_iters`` apply to
    that route only, which raises :class:`NoConvergence` past ``max_iters``.
    """
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
    if b.two_way_path is not None:
        v, lam, iters = _path_qsd(b)
        meta = {"solver": "path", "model": finite.name}
    else:
        v, lam, iters, meta = _power_qsd(b, rate, tol, max_iters)
        meta.update(solver="power", model=finite.name)
    nu = Distribution.from_weights(dict(zip(states, v)))
    residual = qsd_residual(finite, nu).sup_norm
    return QsdSolution(
        nu=nu,
        lam=lam,
        theta=-lam,
        residual=residual,
        truncation=truncation,
        iterations=iters,
        meta=meta,
    )


def _power_qsd(b: LiveBlock, rate: float, tol: float, max_iters: int):
    """(vector, eigenvalue, iterations, meta) by power iteration on I + Q/rate."""
    import scipy.sparse as sp

    n = len(b.states)
    span = np.arange(n)
    # transposed: column src feeds row dst
    rows = np.concatenate([span, b.dst])
    cols = np.concatenate([span, b.src])
    vals = np.concatenate([1.0 - b.total / rate, b.rate / rate])
    mat_t = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    v, rho, iters, gaps = _left_power(mat_t, np.ones(n), tol, max_iters)
    return v, rate * (rho - 1.0), iters, {"rate": rate, "gap_log": gaps}


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
