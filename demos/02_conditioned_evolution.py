"""The conditioned evolution and its long-time limit.

The law of the chain conditioned on survival is the normalized linear flow
mu e^{tQ} / |mu e^{tQ}|, computed step by step by uniformization.  Starting
the two-state chain from state 2, the conditioned law drifts to the QSD; the
script prints the trajectory and the distance to the eigenvector limit.
"""

import numpy as np

from qsdsim import Distribution, evolve_conditioned, resolve_model, solve_qsd_power, tv_distance

print(__doc__)

model = resolve_model("two-state")
nu = solve_qsd_power(model).nu
path = evolve_conditioned(model, Distribution.delta(2), horizon=8.0, step=0.01, truncation=2)

print(" t      mass at 1   mass at 2   TV to QSD")
for t in np.linspace(0.0, 8.0, 17):
    d = path.distribution_at(float(t))
    print(f"{t:4.1f}   {d.mass(1):9.6f}   {d.mass(2):9.6f}   {tv_distance(d, nu):.2e}")

print()
print(f"Poisson weights kept per step:       {path.meta['terms']}")
print(f"dropped Poisson tail, over all steps: {path.meta['tail_bound']:.2e}")
print()
print("the terminal law equals the QSD to solver accuracy, which is the")
print("dynamical face of the fixed-point identity from demo 01")
