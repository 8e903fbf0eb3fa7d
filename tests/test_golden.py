"""Golden digests of seeded outputs.

Small seeded runs of every stochastic ``qsd`` method, and of the
deterministic ``oracle``, ``phi`` and ``conditioned`` solvers, pinned by the
SHA-256 of the data files they write (``summary.json`` holds wall time and is
left out).  Reruns of one commit are compared elsewhere; these digests catch a
change of any draw or output byte between commits.  A change that alters
seeded output on purpose must update the digests and say why.

Files that carry oracle numbers also pin the oracle's route: stationary
FV's ``fv_summary.json`` (its TV to the oracle) and ``afp.csv`` (its
``tv_to_oracle`` cells).  On the builtin chains they and both ``oracle``
runs come from the path solver; on the multi-jump file they and both
``oracle`` runs come from inverse iteration with the return map's dense
inverse.  Files that carry conditioned-law numbers (both
``conditioned.csv`` files, fixed-time FV's ``fv_summary.json``, ``scan.csv``
and ``scan_fit.json``) pin the uniformization step.  The multi-jump ``fv``
runs pin the FV event kernel's draw order where a jump has several targets
and revivals are frequent, and its ``couple`` run pins the graphical
engine's mark order where the initial law has two atoms and most replicas
diverge.  The ``phi`` digests pin the return map's routes:
the builtin chains take the positive Thomas sweep, which calls no BLAS, so
they run in this process whatever the BLAS thread count, the multi-jump
file takes the dense inverse, and the 250-state walk with skips takes the
sparse LU, as its ``oracle`` run does.  The two-state ``conditioned`` run
pins the dense step matrix, the 200-state one the dense series route with
grid times inside a step, and the 500-state one the CSR uniformization step.  The single-run APIs are pinned one
digest per result, so that a change names the API whose draws moved.
"""

import hashlib
import subprocess
import sys

import pytest

import qsdsim
from qsdsim import (
    BranchingPopulation,
    Distribution,
    ExperimentConfig,
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
    afp_advance, blas_thread_env, branch_event, fv_event, large_model_file, multi_jump_model_file,
)

GOLDEN = {
    "fv-fixed": (
        ExperimentConfig(
            method="fv", model="two-state", seed=3, replicas=4,
            params={"particles": "20", "horizon": "1.0", "init": "delta:2"},
        ),
        {
            "fv.csv": "dabe6abefd95ee45c2ad717dce3fb7e66452f3bf773a210b302492f226a8997e",
            "fv_summary.json": "a79750839b1c8d2fbe49f9ffba1af1d0e05a041d3b37296c21badf0ba2832864",
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
            "scan.csv": "8330de112e55d7e9dee0e30b37be555d3d9027ba12a1308b7f4e38f6dbcbd6c6",
            "scan.gp": "584ca0e223356d5ae69ea77e9c4f545b1b95641f4723ba43968bf677c14b3f6c",
            "scan_fit.json": "190b8a1240158940235db5db38a516269a3f0782d38caf3ef0d92349c5989b2a",
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
        {"afp.csv": "def2bc8416927fe75c5f1ff0ecd076d5908aa5dc770a9296632544b1dc335e0d"},
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
        # n = 200: a two-way path, so the return map's Thomas sweep with no BLAS call
        ExperimentConfig(
            method="phi", model="bd:1,2,200", seed=0, params={"init": "delta:1", "iters": "10"}
        ),
        {
            "phi.csv": "2dba2a3fd77eecba6aad9b0b298ecee5c999ed3dc044643fb9f61ecb036951fc",
            "phi_dist.csv": "a285b9e679eb0ebdd66e54e41561f8ae6044a51c6fc5c8bb734c66a95da64467",
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
        {"conditioned.csv": "95b6f64bdc49597e3831440d2562268a012f2a07cc943279b078430d58e3a96a"},
    ),
    "conditioned-bd200": (
        # 200 states and 60 steps of 1/30: the series route, with 40 of the 51
        # grid times (every 0.04) inside a step
        ExperimentConfig(
            method="conditioned", model="bd:1,2,200", seed=0,
            params={"init": "delta:1", "horizon": "2"},
        ),
        {"conditioned.csv": "b9fed49c3ccad1c8a31487ef6dc9201fe40e56257e76308688af12d825a74438"},
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_run_matches_golden_digest(name, tmp_path):
    cfg, digests = GOLDEN[name]
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
        {"oracle.json": "474ede5928bdfc00c0faedf85a90c55dbf97ec5f81aa02df67364a7d79822830"},
    ),
    "oracle-K9": (
        # the window 1..9 drops two jumps, which leave the restricted diagonal
        "oracle", 1, {"trunc": "9"},
        {"oracle.json": "68c654c4d05c709357c17751e44ab8fcf41b84d089c0c6beda2fbb0b784030e9"},
    ),
    "fv-fixed": (
        # several jump targets per state and frequent revivals (40 of 292 events)
        "fv", 3, {"particles": "40", "horizon": "2.0", "init": "delta:1"},
        {
            "fv.csv": "2a4fee24d9ce926255e9c78659211f671a4617ef857d54def2179b0a61dfed98",
            "fv_summary.json": "45159284b53cefb03ca05faf4cad6d61b72fe71d3fcf85965f517685b87014b8",
        },
    ),
    "fv-stationary": (
        "fv", 2, {"particles": "40", "burnin": "1.0", "horizon": "6.0"},
        {
            "fv.csv": "a8ea3482cf96ed48c24b12e3d53e0ac2471521ca21ba517cd884dc02ebb7fcae",
            "fv_summary.json": "fb48d27f16314488f3f185ada530fa83617ea6e984d6a9412236dc35ab4bb58c",
        },
    ),
    "phi": (
        "phi", 1, {"init": "delta:1", "iters": "20"},
        {
            "phi.csv": "59d5ea64e1874192f3f7514f84e687b47e58c7675ca9c54bc199ba539522f0f4",
            "phi_dist.csv": "e922f68b6641247ba3639f07102d9cd0be68d037f61c121ed808a7b74cae09c9",
        },
    ),
    "conditioned": (
        "conditioned", 1, {"init": "delta:1", "horizon": "1.0"},
        {"conditioned.csv": "9ce29e5e97fbbf5b490e6c5e1af41695980afef50cd11c1665c470219653606b"},
    ),
    "afp": (
        "afp", 1, {"steps": "20000", "start": "1"},
        {"afp.csv": "406c22a7e9159c12b27eb81d2f1e8116ab57a16c357dfc02bba7102cc2ad46a3"},
    ),
    "couple": (
        # two atoms, so the particles are drawn; 4 of the 6 replicas diverge
        "couple", 6, {"particles": "4", "horizon": "3.0", "init": "2:0.3,9:0.7"},
        {"couple.csv": "46d547e075fa50c261b08eeef30e74e169ac43ab6900a7af5e94b1e94971ba13"},
    ),
    "branch": (
        "branch", 3, {"horizon": "3.0", "cap": "2000"},
        {"branch.json": "5258a6db49a01ccc3977d00b481d635f3fb4ae13fe1863a7d4890e41c0dff432"},
    ),
}


def test_path_phi_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the return map on a two-way path makes no BLAS call, so the thread count cannot round it
    argv = ["phi", "--model", "bd:1,2,200", "--init", "delta:1", "--iters", "50"]
    written = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "qsdsim.cli", *argv, "--out-dir", str(out)],
            env=blas_thread_env(threads), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        written.append({name: (out / name).read_bytes() for name in ("phi.csv", "phi_dist.csv")})
    assert written[0] == written[1]


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


# Seeded runs on the sparse routes, keyed by name: (method, model, params,
# digests), where "{skip}" stands for the 250-state walk with skips.  That file
# is not a two-way path and has more than PHI_LAPACK_LIMIT states, so its
# ``oracle`` and ``phi`` runs factor one sparse LU; the 500-state window is
# above DENSE_WINDOW_LIMIT, so its ``conditioned`` run steps with CSR matvecs.
SPARSE_GOLDEN = {
    "oracle-skip250": ("oracle", "file:{skip}", {}, {"oracle.json": "13426e160bb682ac536a7c29fd63881585bfe7c18a44d39ca18ec57e3cec4eec"}),
    "phi-skip250": (
        "phi", "file:{skip}", {"init": "delta:1", "iters": "20"},
        {
            "phi.csv": "0a9c9af1859c0f3df399b067ff1b6a70d0bc064d9cfb4bb53fa1e6661f59bc64",
            "phi_dist.csv": "9708206fab5c76e09a616a9ce43256673ca4664cbd43968431196f19530d0fff",
        },
    ),
    "conditioned-bd500": (
        "conditioned", "bd:1,2,500", {"init": "delta:1", "horizon": "1.0"},
        {"conditioned.csv": "aba2d1c9befe9ad1c6c839aecefaf155a6110101e0257679be8a5abba5712f70"},
    ),
}


@pytest.mark.parametrize("name", sorted(SPARSE_GOLDEN))
def test_sparse_route_run_matches_golden_digest(name, tmp_path):
    method, model, params, digests = SPARSE_GOLDEN[name]
    model = model.format(skip=large_model_file(tmp_path))
    cfg = ExperimentConfig(method=method, model=model, seed=0, params=params)
    run_config(cfg, tmp_path / "out")
    written = {p.name for p in (tmp_path / "out").iterdir()} - {"summary.json"}
    assert written == set(digests)
    for fname, digest in digests.items():
        assert _sha256(tmp_path / "out" / fname) == digest, fname


# One digest per entry of _api_draws(), so that a change shows which API moved.
API_DIGESTS = {
    "absorption-0": "81027a2a3e1d60cfc0e37c2e9cc4aaf7bdfb8e6adb1cf71a8295dc83c627cca7",
    "absorption-1": "e6282e9cf881edbbde5e96cd0382191a68776b204f2b1b9bf89a92884cf19d01",
    "absorption-2": "ef15f58671ce76192338097ee456bb4d5ef741e4662667e732d1c5f8fa28f2d3",
    "mu-return": "aee999d895ac41efacf84196b51c89b5fd3547c217617c5a84c793c416b045a5",
    "tagged-limit": "9ca0f45d2341f996708d4adfc3bfa8526b1dc01d607ccccf88af02f9f1d10efe",
    "fv-event-0": "b44261747ba72a627cb57cf54911f683914016fef1c20ec33c09a6b1ad5cb47e",
    "fv-event-1": "c39e17f009771d36a40d930e40bf65f055c1723bf1cdf328d8699b6cb37a84d5",
    "fv-event-2": "6c31ccbdf086f9b300b305be474dd369a9b4d49fa84a0c13d4137c1215d52ec6",
    "fv-event-3": "971a3f1d4bd2158d73bc4fcde053bcedb01c24f8220b41566c44f7f318ee8817",
    "fv-event-4": "23a669990a9dd3e5256ef6331ea3ee0eeb6ec0464af9d1ccc2f97b3195ea04f3",
    "afp": "c31bc8e0507764d3182b86294982dfba50b71ecfc3e8cd86e5c7a16d672b0293",
    "branching": "c8326a8bca5f2187b30f6eef36f32ad27420276769c2dff400d1e98ab2f3ba98",
    "graphical": "63aeeb406aec6b92222db0d2584a78b3a6fffd3d90a000c4dd132399cae5f441",
}


def _api_draws() -> dict:
    """Seeded results of the public single-run APIs and of single kernel events, by name."""
    t2 = resolve_model("two-state")
    bd = resolve_model("bd:1,2,8")
    root = RngStream(17)
    out = {}
    for r in range(3):
        s = simulate_until_absorption(bd, Distribution.delta(3), root.child(1, r))
        out[f"absorption-{r}"] = (s.tau, s.exit_state)
    occ = simulate_mu_return(bd, Distribution.delta(1), 20.0, root.child(2))
    out["mu-return"] = (sorted(occ.occupation.items()), occ.events, occ.returns)
    path = evolve_conditioned(t2, Distribution.delta(2), 2.0, 1e-3, 2)
    traj = simulate_tagged_limit(t2, path, 2, root.child(3))
    out["tagged-limit"] = (traj.times, traj.states)
    cfg = ParticleConfig(bd, [1, 2, 3, 4])
    for k in range(5):
        out[f"fv-event-{k}"] = fv_event(cfg, root.child(4, k))
    d = uniformize(bd)
    history = [1]
    for k in range(5):
        afp_advance(history, d, root.child(5, k))
    out["afp"] = history
    sm = build_shifted(t2, 2.0)
    pop = BranchingPopulation(sm.states, [4, 4], 12)
    for k in range(5):
        branch_event(pop, sm, root.child(6, k))
    out["branching"] = (pop.t, pop.counts)
    tr = fv_run_graphical(bd, 6, Distribution.delta(1), 2.0, [1.0, 2.0], root.child(8))
    out["graphical"] = ([sorted(m.items()) for m in tr.measures], tr.events, tr.revivals)
    return out


def test_public_names_resolve_once():
    assert len(set(qsdsim.__all__)) == len(qsdsim.__all__)
    assert all(hasattr(qsdsim, name) for name in qsdsim.__all__)


@pytest.fixture(scope="module")
def api_draws():
    return _api_draws()


@pytest.mark.parametrize("name", sorted(API_DIGESTS))
def test_api_draw_matches_golden_digest(name, api_draws):
    assert set(api_draws) == set(API_DIGESTS)
    assert hashlib.sha256(repr(api_draws[name]).encode()).hexdigest() == API_DIGESTS[name]
