"""The history-renewal chain: a QSD estimator with one walker.

In discrete time, a walker that re-enters according to the empirical law of
its own past (instead of a fixed return law) drags that history toward the
QSD of the substochastic matrix.  The script runs the walker on the
uniformized two-state chain and on a five-state truncated walk, printing the
distance to the discrete oracle at growing checkpoints.
"""

from qsdsim import (
    BirthDeathSpec,
    RngStream,
    afp_run,
    build_birth_death,
    resolve_model,
    solve_qsd_discrete,
    uniformize,
)

print(__doc__)

for label, model in (
    ("two-state (rate 2)", resolve_model("two-state")),
    ("bd:1,2 truncated at 5", build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=5)),
):
    d = uniformize(model, rate=2.0 if label.startswith("two") else None)
    oracle = solve_qsd_discrete(d).nu
    res = afp_run(d, start=d.model.states[0], steps=10**6, rng=RngStream(5), reference=oracle)
    print(f"{label}:")
    for cp, tv in zip(res.checkpoints, res.checkpoint_tv):
        print(f"  after {cp:>9,} steps: TV to oracle = {tv:.5f}")
    print(f"  final estimate: {dict((x, round(m, 5)) for x, m in res.estimate.items())}")
    print()
