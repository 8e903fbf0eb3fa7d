"""Selection of the minimal QSD by stationary Fleming-Viot.

The subcritical binary-split population chain has infinitely many QSDs, yet
stationary Fleming-Viot converges to the minimal one (the geometric law with
ratio b/d, the QSD that minimizes the expected absorption time).  The script
takes that law from the closed form the model declares, runs a long
stationary FV average, and compares profiles.

Expect a ~20 s run for the default sizes.
"""

from qsdsim import (
    Distribution,
    RngStream,
    fv_stationary,
    minimal_qsd_reference,
    resolve_model,
    tv_distance,
)

print(__doc__)

gw = resolve_model("gw:1,2")
ref = minimal_qsd_reference(gw)
print(f"reference: the declared minimal QSD, geometric(1/2), cut at n={ref.truncation}")
print(f"  solver {ref.meta['solver']!r}, theta = {ref.theta:.12f} (d - b = 1)")
print()

stat = fv_stationary(gw, n=1000, burn_in=50.0, horizon=550.0, rng=RngStream(7), init=Distribution.delta(1))
print(f"stationary FV with N=1000: TV to the minimal QSD = {tv_distance(stat, ref.nu):.4f}")
print()
print(" n   minimal QSD   FV estimate")
for n in range(1, 9):
    print(f"{n:2d}   {ref.nu.mass(n):10.6f}   {stat.mass(n):10.6f}")
