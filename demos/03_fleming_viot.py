"""Fleming-Viot particles: fixed-time tracking and the stationary estimate.

N particles follow the driving chain; a particle that would absorb adopts
the position of a uniformly chosen peer.  The empirical measure tracks the
conditioned evolution at fixed times with error O(1/sqrt N), and its
stationary time-average estimates the QSD.
"""

import math

import numpy as np

from qsdsim import (
    Distribution,
    RngStream,
    evolve_conditioned,
    fv_run,
    fv_stationary,
    rate_fit,
    resolve_model,
    solve_qsd_power,
    tv_distance,
)

print(__doc__)

model = resolve_model("two-state")
mu = Distribution.delta(2)
reference = evolve_conditioned(model, mu, 1.0, None, 2).final.mass(1)

print("fixed-time error of m(1, xi(1)) against the conditioned law, 200 replicas:")
points = []
for n in (50, 200, 800):
    errs = [
        abs(fv_run(model, mu, 1.0, [1.0], RngStream(1, (n, r)), n=n).measures[-1].mass(1) - reference)
        for r in range(200)
    ]
    err = float(np.mean(errs))
    points.append((n, err))
    print(f"  N={n:4d}: mean |error| = {err:.4f}   (3/sqrt N = {3/math.sqrt(n):.3f})")
fit = rate_fit(points)
print(f"fitted decay exponent: {fit.slope:.3f}  (theory: -0.5)")
print()

nu = solve_qsd_power(model).nu
stat = fv_stationary(model, n=800, burn_in=20.0, horizon=220.0, rng=RngStream(2), init=nu)
print(f"stationary time-average with N=800: TV to oracle = {tv_distance(stat, nu):.4f}")
