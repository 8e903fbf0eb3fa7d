"""Reference QSDs: the principal left eigenvector on finite or truncated
spaces, and the closed form an infinite model declares (:func:`minimal_qsd_reference`).

On a finite window the QSD is the normalized left Perron vector of the live
block of the generator.  :func:`solve_qsd_power` picks its route from the
block's shape:

* *Two-way paths* (every builtin chain: ``two-state``, ``bd:p,q[,K]``,
  ``gw:b,d``).  Such a chain is reversible, so the block is similar to a
  symmetric tridiagonal matrix S.  The top eigenvalue of S comes from
  Sturm-count bisection and the vector from two ``_sweep`` solves of
  (sigma I - S) u = 1 with sigma just above it; that matrix is a
  positive-definite M-matrix, so u stays entrywise positive.  The vector is
  mapped back in log space.  On bd:1,2 a whole solve takes about 7 ms at
  K=400 and 0.12 s at K=6400 on a 2-vCPU host, where power iteration needed
  143,663 steps (1.2 s) at K=400 and did not converge at K >= 800.
* *Other windows* iterate the return map Phi(v) = v A^-1 / |v A^-1|,
  A = -Q_live, whose fixed point is the QSD, with the Phi step of
  :func:`return_map_iterates` that ``returnproc`` runs too.  A^-1 is
  entrywise positive on an irreducible window that absorbs, so this inverse
  iteration converges from any positive start, periodic chains included.
  Its step count grows with the window on drifted chains: a walk with skips
  takes 3,716 steps (0.12 s) on 250 states, 34,656 (1.7 s) on 1000 and
  171,445 (26 s) on 3000, on the same host with one BLAS thread.

:func:`solve_qsd_discrete` solves a uniformized chain P = I + Q/rate by the
same routes on its window's generator, since P and Q share the left Perron
vector, and maps the eigenvalue back to 1 + lambda/rate.

A is factored once by :func:`return_map_solver`, which imports
``scipy.sparse.linalg`` only for its sparse LU on non-path windows of more
than ``PHI_LAPACK_LIMIT`` states; on a two-way path it runs ``_sweep``, the
positive tridiagonal solve that the path route runs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .chain import MASS_EPS, AbsorbedChainModel, Distribution, LiveBlock, strongly_connected
from .chain import tv_distance  # noqa: F401  (perfbench/spans.py wraps it by this name)
from .errors import NoConvergence, NoMinimalQsd, NotIrreducible
from .conditioned import qsd_residual, theta_of
from .models import WINDOW_MAX_STATES, DiscreteChainModel


@dataclass
class QsdSolution:
    """Principal-eigenvector solution: the QSD with its eigenvalue data.

    ``lam`` is the principal eigenvalue of the live generator block (negative
    in continuous time, in (0, 1) for a discrete skeleton); ``theta = -lam``
    for continuous models.  ``residual`` is the sup-norm fixed-point defect.
    ``meta["solver"]`` names the route, ``"path"``, ``"inverse"`` or
    ``"exact"`` (a declared closed form, with no step), and ``iterations``
    counts its steps: Sturm-count bisection steps on the path route, solves
    with the factored A on the inverse route.  On the inverse
    route ``meta["gap_log"]`` is a bounded record of the TV gaps between
    successive iterates: the first ``GAP_HEAD`` gaps and the last
    ``GAP_HEAD``.
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


# Non-path windows up to this size invert A densely; larger ones factor a sparse LU.
PHI_LAPACK_LIMIT = 200


def _sweep(piv: list[float], lower: list[float], upper: list[float]):
    """solve(y) = u for the tridiagonal matrix of LU pivots ``piv``, sub- and
    superdiagonal -``lower`` and -``upper`` (both >= 0), multipliers computed once.

    With positive pivots, a nonnegative right-hand side y makes the forward
    sweep y(i+1) += lower(i)/piv(i) y(i), which overwrites the list y, and the
    back sweep u(i) = (y(i) + upper(i) u(i+1)) / piv(i) add nonnegative terms
    only, so nothing cancels.  Pure Python on lists: no BLAS call, O(n) per solve.
    """
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


def _path_solver(total: np.ndarray, up: np.ndarray, down: np.ndarray):
    """Solve A^T w = v on a two-way path: one :func:`_sweep` with the pivots of A^T.

    A^T has diagonal ``total``, superdiagonal -``down`` and subdiagonal -``up``;
    A is a nonsingular M-matrix, so every pivot (:func:`_pivots` at 0) is positive.
    """
    piv = _pivots(0.0, total.tolist(), (up * down).tolist())
    if piv is None:
        raise NotIrreducible("the path block is singular, so Phi is undefined")
    sweep = _sweep(piv, up.tolist(), down.tolist())
    return lambda v: np.array(sweep(v.tolist()))


def return_map_solver(b: LiveBlock):
    """solve(v) = A^-T v for A = -Q_live of the block, with A factored once.

    v A^-1 is the row vector ``solve(v)``, the occupation before absorption
    from v.  On a two-way path each solve is one :func:`_sweep` run, through
    :func:`_path_solver`, with no linear-algebra library call.  Other
    windows of at most ``PHI_LAPACK_LIMIT`` states compute A^-T once and
    take one matvec per solve; larger ones factor one sparse LU.  A is
    nonsingular exactly when every live state can reach absorption, else
    :class:`NotIrreducible` is raised.  On a two-way path that holds when
    some state absorbs; other blocks are checked with a virtual absorbing
    node.
    """
    n = len(b.states)
    span = np.arange(n)
    path = b.two_way_path
    if path is not None:
        well_posed = bool((b.absorb > 0).any())
    else:
        absorbing = np.nonzero(b.absorb > 0)[0]
        # edges into the virtual node n from the absorbing states, and out of it to all
        src = np.concatenate([b.src, absorbing, np.full(n, n)])
        dst = np.concatenate([b.dst, np.full(absorbing.size, n), span])
        well_posed = strongly_connected(n + 1, src, dst)
    if not well_posed:
        raise NotIrreducible("some live state cannot reach absorption, so Phi is undefined")
    # transposed, so that solving A^T w = v gives the row vector w = v A^-1
    if path is not None:
        return _path_solver(b.total, *path)
    if n <= PHI_LAPACK_LIMIT:
        a_t = np.diag(b.total)
        np.subtract.at(a_t, (b.dst, b.src), b.rate)
        inv_t = np.linalg.inv(a_t)

        def solve(v: np.ndarray) -> np.ndarray:
            return inv_t @ v

        return solve
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    rows = np.concatenate([span, b.dst])
    cols = np.concatenate([span, b.src])
    vals = np.concatenate([b.total, -b.rate])
    return splu(sp.csc_matrix((vals, (rows, cols)), shape=(n, n))).solve


# Gaps kept from the start of an inverse iteration, and again from its end.
GAP_HEAD = 32


def return_map_iterates(solve, v: np.ndarray):
    """The return map's iterates w = max(solve(v), 0) / s from v, s the sum of the clipped solve.

    ``solve`` applies A^-T for an A whose inverse is entrywise nonnegative, so
    the clip only removes round-off.  Yields (w, s, 0.5 |w - v|_1) forever.
    """
    while True:
        w = np.maximum(solve(v), 0.0)
        s = float(w.sum())
        w /= s
        yield w, s, 0.5 * float(np.abs(w - v).sum())
        v = w


def _inverse_iteration(solve, start: np.ndarray, tol: float, max_iters: int):
    """Run :func:`return_map_iterates` from ``start`` normalized.

    1/s tends to the Perron root of A.  The loop stops, from the second
    step on, once both the TV gap between successive iterates and the drift
    of 1/s are below ``tol``, and raises :class:`NoConvergence` past
    ``max_iters``.  Returns (vector, s, iterations, gap log), the log
    holding the first and the last ``GAP_HEAD`` gaps.
    """
    root = 0.0
    gaps: list[float] = []
    gap = None
    iterates = islice(return_map_iterates(solve, start / start.sum()), max_iters)
    for it, (v, s, gap) in enumerate(iterates, 1):
        drift = abs(1.0 / s - root)
        gaps.append(gap)
        if len(gaps) > 2 * GAP_HEAD:
            del gaps[GAP_HEAD]
        root = 1.0 / s
        if gap < tol and drift < tol and it >= 2:
            return v, s, it, gaps
    raise NoConvergence(
        f"inverse iteration did not converge in {max_iters} iterations", last_gap=gap
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
    solve = _sweep(piv, off, off)
    u = solve([1.0] * n)
    top = max(u)
    u = np.array(solve([v / top for v in u]))
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
    runs :func:`_inverse_iteration` with the solver of
    :func:`return_map_solver` from the uniform vector, and recovers the
    principal eigenvalue of the generator as -1/s; ``tol`` and ``max_iters``
    apply to that route only, which raises :class:`NoConvergence` past
    ``max_iters``.  Either route raises :class:`NotIrreducible` where no
    state absorbs.
    """
    truncation = model.truncation_or_top(truncation)
    return _solve_window(model.restricted(truncation), truncation, tol, max_iters)


def _solve_window(finite: AbsorbedChainModel, truncation: int, tol: float, max_iters: int):
    """:func:`solve_qsd_power` on a finite window model, read as it is."""
    states = finite.states
    check_irreducible(finite, states)
    b = finite.live_block()
    if b.two_way_path is not None:
        if not (b.absorb > 0).any():
            raise NotIrreducible("no state of the path window absorbs, so it has no QSD")
        v, lam, iters = _path_qsd(b)
        meta = {"solver": "path", "model": finite.name}
    else:
        solve = return_map_solver(b)
        v, s, iters, gaps = _inverse_iteration(solve, np.ones(len(states)), tol, max_iters)
        lam = -1.0 / s
        meta = {"solver": "inverse", "model": finite.name, "gap_log": gaps}
    nu = Distribution.from_weights(dict(zip(states, v)))
    return QsdSolution(nu=nu, lam=lam, theta=-lam, residual=qsd_residual(finite, nu).sup_norm,
                       truncation=truncation, iterations=iters, meta=meta)


def solve_qsd_discrete(
    d: DiscreteChainModel, tol: float = 1e-12, max_iters: int = 200_000
) -> QsdSolution:
    """Left Perron vector of a uniformized chain: nu P = rho nu, rho in (0, 1).

    P = I + Q/rate has the left Perron vector of the generator Q on its
    window, so this is :func:`solve_qsd_power` on ``d.model`` mapped back:
    the same nu, rho = 1 + lam/rate and theta = nu . kill.  ``residual`` is
    the sup-norm defect of nu P = rho nu.  A window where no state kills
    (I - P is then singular), or that is not strongly connected, raises
    :class:`NotIrreducible`.
    """
    if not (d.kill > 0).any():
        raise NotIrreducible("no state of the discrete window kills, so I - P is singular")
    sol = _solve_window(d.model, max(d.states), tol, max_iters)
    rho = 1.0 + sol.lam / d.rate
    b = d.model.live_block()
    vec = sol.nu.as_vector(d.states)
    moved = vec * (1.0 - b.total / d.rate)  # nu P
    np.add.at(moved, b.dst, vec[b.src] * (b.rate / d.rate))
    return replace(
        sol, lam=rho, theta=float(vec @ d.kill), residual=float(np.abs(moved - rho * vec).max()),
        meta={**sol.meta, "model": d.name},
    )


def minimal_qsd_reference(model: AbsorbedChainModel) -> QsdSolution:
    """The minimal QSD: the oracle's solve on a finite model, the declared nu* on an infinite one.

    The closed form (:attr:`AbsorbedChainModel.nu_star`) is cut at the first
    state above which its mass falls below ``MASS_EPS``; theta is
    :func:`theta_of` and ``iterations`` is 0.  An infinite model that
    declares no nu*, or whose cut would pass ``WINDOW_MAX_STATES`` states,
    raises :class:`NoMinimalQsd`.
    """
    if model.is_finite:
        return solve_qsd_power(model)
    if model.nu_star is None:
        raise NoMinimalQsd(f"{model.name}: no minimal QSD is declared for this infinite model")
    log_masses = []
    for x in range(1, WINDOW_MAX_STATES + 1):
        log_mass, log_above = model.nu_star(x)
        log_masses.append(log_mass)
        if log_above < math.log(MASS_EPS):
            break
    else:
        raise NoMinimalQsd(f"{model.name}: nu* holds {MASS_EPS:g} past {WINDOW_MAX_STATES} states")
    nu = Distribution.from_weights(dict(enumerate(np.exp(log_masses).tolist(), 1)))
    theta = theta_of(model, nu)
    return QsdSolution(nu=nu, lam=-theta, theta=theta, residual=qsd_residual(model, nu).sup_norm,
                       truncation=len(log_masses), iterations=0,
                       meta={"solver": "exact", "model": model.name})
