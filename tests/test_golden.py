"""Golden digests of seeded outputs.

Small seeded runs of every stochastic ``qsd`` method, and of the
deterministic ``oracle``, ``phi`` and ``conditioned`` solvers, pinned by the
SHA-256 of the data files they write (``summary.json`` holds wall time and is
left out).  Reruns of one commit are compared elsewhere; these digests catch a
change of any draw or output byte between commits.  A change that alters
seeded output on purpose must update the digests and say why.

Files that carry oracle numbers also pin the oracle's route: both
``oracle`` runs on builtin chains, stationary FV's ``fv_summary.json`` (its
TV to the oracle) and both ``afp.csv`` files (their ``tv_to_oracle`` cells)
come from the path solver, while the multi-jump ``oracle`` digests come from
power iteration.  Files that carry conditioned-law numbers (both
``conditioned.csv`` files, fixed-time FV's ``fv_summary.json``, ``scan.csv``
and ``scan_fit.json``) pin the uniformization step.  The multi-jump ``fv``
runs pin the FV event kernel's draw order where a jump has several targets
and revivals are frequent.
"""

import hashlib
import subprocess
import sys

import pytest

from qsdsim import (
    BranchingPopulation,
    Distribution,
    ExperimentConfig,
    HistoryState,
    MarkStream,
    ParticleConfig,
    RngStream,
    build_shifted,
    evolve_conditioned,
    fv_run_graphical,
    resolve_model,
    run_config,
    simulate_mu_return,
    simulate_tagged_limit,
    simulate_until_absorption,
    uniformize,
)

from conftest import (
    afp_advance, branch_event, fv_event, multi_jump_model_file, one_blas_thread_env,
)

GOLDEN = {
    "fv-fixed": (
        ExperimentConfig(
            method="fv", model="two-state", seed=3, replicas=4,
            params={"particles": "20", "horizon": "1.0", "init": "delta:2"},
        ),
        {
            "fv.csv": "dabe6abefd95ee45c2ad717dce3fb7e66452f3bf773a210b302492f226a8997e",
            "fv_summary.json": "63f4e7cd8b3e94758ccf3ba2a62ff55e349abe59acbeece349a27e4afe034839",
        },
    ),
    "fv-stationary": (
        ExperimentConfig(
            method="fv", model="gw:1,2", seed=4, replicas=2,
            params={"particles": "30", "burnin": "1.0", "horizon": "6.0", "trunc": "40"},
        ),
        {
            "fv.csv": "209e32b72f4c14a5a70a7e10d276072de8aeb726d987d77a94136d6196d743c0",
            "fv_summary.json": "25923c61a8887e036c38727910862d510cd57840626ff3251633389df0c6f78a",
        },
    ),
    "scan": (
        ExperimentConfig(
            method="scan", model="two-state", seed=5, replicas=12,
            params={"particles": "10,20,40", "horizon": "1.0", "init": "delta:2", "state": "1"},
        ),
        {
            "scan.csv": "3e071f2e83218329a7301cc4fc69ac2d1c814eb0e123d68ef51e1629cfd63556",
            "scan.gp": "584ca0e223356d5ae69ea77e9c4f545b1b95641f4723ba43968bf677c14b3f6c",
            "scan_fit.json": "1221c6ec51615207dd7cffbb21906e50c19f20a8cfb5c0651dba5ae11b53d56f",
        },
    ),
    "couple": (
        ExperimentConfig(
            method="couple", model="bd:1,2,8", seed=6, replicas=6,
            params={"particles": "5", "horizon": "2.0", "init": "delta:1"},
        ),
        {"couple.csv": "96038def1fad47045cf219256d52f0be7505a667417d07abb20100d4565ce3b8"},
    ),
    "afp": (
        ExperimentConfig(
            method="afp", model="bd:1,2,30", seed=7, params={"steps": "20000", "start": "1"}
        ),
        {"afp.csv": "197e49ae1154df35cbd4744319767a758e318c3f0dcdbea10af214fd4044ec76"},
    ),
    "branch": (
        # reaches the cap once, so the shared generator's multinomial draw is pinned too
        ExperimentConfig(
            method="branch", model="two-state", seed=8, replicas=4,
            params={"alpha": "2", "horizon": "8.0", "cap": "3000"},
        ),
        {"branch.json": "b619f14d633cdf649beba13c72e08d42288d1d00bf922a31c34153f79bafa73b"},
    ),
    "oracle-bd40": (
        ExperimentConfig(method="oracle", model="bd:0.6,1.7,40", seed=0),
        {"oracle.json": "36b7222b0a9f5637e8c9c35b9c94f20824db9d30d5bf6d5662bb17bfd171f8b4"},
    ),
    "oracle-bd-K200": (
        ExperimentConfig(method="oracle", model="bd:1,2", seed=0, params={"trunc": "200"}),
        {"oracle.json": "fe3d9426042edf29b99ab87a2d201fbb6b9e4ad7e46014471611875ef971ff75"},
    ),
    "phi-bd200": (
        # n = 200: the dense LAPACK branch of the return map, run on one BLAS thread
        ExperimentConfig(
            method="phi", model="bd:1,2,200", seed=0, params={"init": "delta:1", "iters": "10"}
        ),
        {
            "phi.csv": "dd5a9485c38f0cf9b30b2b8b7af477a523bfd5a68bbf705de7e0ff3ac1662725",
            "phi_dist.csv": "95b7255c2d4ca130c5cefe15152129df4699237172f65ac916eef207b98837c8",
        },
    ),
    "phi-two-state": (
        ExperimentConfig(method="phi", model="two-state", seed=0, params={"init": "delta:1"}),
        {
            "phi.csv": "12103628c08edee2240f900dd6ef9566d17a27388d9573356dbd17ea8ada8755",
            "phi_dist.csv": "f13218757e31ca46f4747b84164c2521fbc061f01e8f8130729a5e8aea82c13c",
        },
    ),
    "conditioned-two-state": (
        ExperimentConfig(
            method="conditioned", model="two-state", seed=0,
            params={"init": "delta:2", "horizon": "1.0"},
        ),
        {"conditioned.csv": "57cff704c2dc66f64e1b531ebd3b25d23cdf8f62f31722d538ebc37ccdcefca1"},
    ),
}


# A multithreaded LAPACK solve rounds differently from a single-threaded one,
# so these runs go to a fresh process held to one BLAS thread.
ONE_BLAS_THREAD = {"phi-bd200"}


def _run_on_one_blas_thread(cfg, out) -> list[str]:
    argv = [cfg.method, "--model", cfg.model, "--seed", str(cfg.seed), "--out-dir", str(out)]
    for key, val in cfg.params.items():
        argv += [f"--{key}", val]
    done = subprocess.run(
        [sys.executable, "-m", "qsdsim.cli", *argv],
        env=one_blas_thread_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_run_matches_golden_digest(name, tmp_path):
    cfg, digests = GOLDEN[name]
    if name in ONE_BLAS_THREAD:
        files = _run_on_one_blas_thread(cfg, tmp_path)
    else:
        files = run_config(cfg, tmp_path).files
    written = {p.name for p in tmp_path.iterdir()} - {"summary.json"}
    assert written == set(digests)
    assert len(files) == len(digests)
    for fname, digest in digests.items():
        assert _sha256(tmp_path / fname) == digest, fname


# Seeded runs on the model file whose absorbing states have several jumps,
# keyed by name: (method, replicas, params, digests).
MULTI_JUMP_GOLDEN = {
    "oracle": (
        "oracle", 1, {},
        {"oracle.json": "f0974158a8fef0aacea4b8f650e195ddefa99ac8c86700fbe4dd953dcc92ba66"},
    ),
    "oracle-K9": (
        # the window 1..9 drops two jumps, which leave the restricted diagonal
        "oracle", 1, {"trunc": "9"},
        {"oracle.json": "717af7a90549eff4a68a6fd708055c891f953dc7c413c02ce496d6d90ac82094"},
    ),
    "fv-fixed": (
        # several jump targets per state and frequent revivals (40 of 292 events)
        "fv", 3, {"particles": "40", "horizon": "2.0", "init": "delta:1"},
        {
            "fv.csv": "2a4fee24d9ce926255e9c78659211f671a4617ef857d54def2179b0a61dfed98",
            "fv_summary.json": "a77194fa3c955f94e27a5713f3729dc66d69665699c66a02f1343e89b0d629a0",
        },
    ),
    "fv-stationary": (
        "fv", 2, {"particles": "40", "burnin": "1.0", "horizon": "6.0"},
        {
            "fv.csv": "a8ea3482cf96ed48c24b12e3d53e0ac2471521ca21ba517cd884dc02ebb7fcae",
            "fv_summary.json": "dec03c7e32d7e2d9fb5ad7151291f320e8626ffff0ca3469f56f425e470c37b0",
        },
    ),
    "phi": (
        "phi", 1, {"init": "delta:1", "iters": "20"},
        {
            "phi.csv": "f86944efdfdb4912d1a89284a8a7e681a400c7e5329fb9f997e3735e6916e0c5",
            "phi_dist.csv": "3d23d51762476838cc95ca7a5cb14855c0f9acf2e83b3795059ca80d2ddd4971",
        },
    ),
    "conditioned": (
        "conditioned", 1, {"init": "delta:1", "horizon": "1.0"},
        {"conditioned.csv": "49bb70d8ad12ee01579217f7eaf693290bcd17457fffc74d959ef9969aef5f72"},
    ),
    "afp": (
        "afp", 1, {"steps": "20000", "start": "1"},
        {"afp.csv": "665ba690566fb058d833246fcfda9717a936f5f359c9c7ff887aee7a0c9206a7"},
    ),
    "branch": (
        "branch", 3, {"horizon": "3.0", "cap": "2000"},
        {"branch.json": "5258a6db49a01ccc3977d00b481d635f3fb4ae13fe1863a7d4890e41c0dff432"},
    ),
}


@pytest.mark.parametrize("name", sorted(MULTI_JUMP_GOLDEN))
def test_multi_jump_run_matches_golden_digest(name, tmp_path):
    method, replicas, params, digests = MULTI_JUMP_GOLDEN[name]
    model = f"file:{multi_jump_model_file(tmp_path)}"
    cfg = ExperimentConfig(method=method, model=model, seed=9, replicas=replicas, params=params)
    run_config(cfg, tmp_path / "out")
    written = {p.name for p in (tmp_path / "out").iterdir()} - {"summary.json"}
    assert written == set(digests)
    for fname, digest in digests.items():
        assert _sha256(tmp_path / "out" / fname) == digest, fname


API_DIGEST = "381d68ec0b9a6be5333e0fea1bbecf1122d612f5a7e59e60daf7bf80c2e484cc"


def _api_draws() -> list:
    """Seeded results of the public single-run APIs and of single kernel events."""
    t2 = resolve_model("two-state")
    bd = resolve_model("bd:1,2,8")
    root = RngStream(17)
    out = []
    for r in range(3):
        s = simulate_until_absorption(bd, Distribution.delta(3), root.child(1, r))
        out.append((s.tau, s.exit_state))
    occ = simulate_mu_return(bd, Distribution.delta(1), 20.0, root.child(2))
    out.append((sorted(occ.occupation.items()), occ.events, occ.returns))
    path = evolve_conditioned(t2, Distribution.delta(2), 2.0, 1e-3, 2)
    traj = simulate_tagged_limit(t2, path, 2, root.child(3))
    out.append((traj.times, traj.states))
    cfg = ParticleConfig(bd, [1, 2, 3, 4])
    for k in range(5):
        out.append(fv_event(cfg, bd, root.child(4, k)))
    d = uniformize(bd)
    h = HistoryState.start_at(1)
    for k in range(5):
        afp_advance(h, d, root.child(5, k))
    out.append(h.history)
    sm = build_shifted(t2, 2.0)
    pop = BranchingPopulation(sm.states, [4, 4], 12)
    for k in range(5):
        branch_event(pop, sm, root.child(6, k))
    out.append((pop.t, pop.counts))
    ms = MarkStream(2.0, 1.0, root.child(7))
    out.append([ms.pop_internal() for _ in range(70)] + [ms.pop_voter() for _ in range(70)])
    tr = fv_run_graphical(bd, 6, Distribution.delta(1), 2.0, [1.0, 2.0], root.child(8))
    out.append(([sorted(m.items()) for m in tr.measures], tr.events, tr.revivals))
    return out


def test_api_draws_match_golden_digest():
    assert hashlib.sha256(repr(_api_draws()).encode()).hexdigest() == API_DIGEST
