"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is fixed here, not tuned at runtime.  Statistical criteria
use fixed seeds, so reruns are deterministic; criterion 12 re-executes the
stochastic methods and compares output bytes.
"""

import functools
import math

import numpy as np
import pytest

from qsdsim import (
    Distribution,
    ExperimentConfig,
    RngStream,
    afp_run,
    build_birth_death,
    BirthDeathSpec,
    correlation_probe,
    coupled_tagged_run,
    evolve_conditioned,
    fv_run,
    fv_run_graphical,
    fv_stationary,
    ks_estimate,
    minimal_qsd_reference,
    phi_iterate,
    phi_map,
    qsd_residual,
    read_model_file,
    rate_fit,
    resolve_model,
    run_config,
    simulate_tagged_limit,
    solve_qsd_discrete,
    solve_qsd_power,
    theta_of,
    tv_distance,
    uniformize,
)

from qsdsim import conditioned

from conftest import (
    column_bound,
    expm_window_law,
    multi_jump_model_file,
    one_sample_chi2_pvalue,
    poisson_tail,
    two_sample_chi2_pvalue,
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return run

    return wrap


@criterion(1, "oracle QSD satisfies the fixed-point identity (sup residual <= 1e-9)")
def test_c01_fixed_point_identity(t2):
    for model in (t2, resolve_model("bd:1,2,100")):
        sol = solve_qsd_power(model)
        assert qsd_residual(model, sol.nu).sup_norm <= 1e-9


@criterion(2, "three-way identity theta = -lambda = sum nu(x) q(x,0) within 1e-9")
def test_c02_theta_identity(t1, t2):
    finite_instances = [
        t1,
        t2,
        resolve_model("bd:1,2,100"),
        build_birth_death(BirthDeathSpec(0.6, 1.7), truncation=40),
    ]
    for model in finite_instances:
        sol = solve_qsd_power(model)
        assert sol.theta == pytest.approx(-sol.lam, abs=1e-12)
        assert theta_of(model, sol.nu) == pytest.approx(-sol.lam, abs=1e-9)
    # discrete side: the uniformized eigenvalue maps back to the same theta
    d = uniformize(t2, rate=2.0)
    ds = solve_qsd_discrete(d)
    assert 2.0 * (1.0 - ds.lam) == pytest.approx(theta_of(t2, ds.nu), abs=1e-9)


@criterion(
    3, "conditioned flow matches the matrix-exponential law at 1e-12; the reported Poisson tail bound holds"
)
def test_c03_conditioned_flow(t2, tmp_path, monkeypatch):
    cases = [
        (t2, 2, 5.0),
        (resolve_model("bd:1,2,200"), 1, 2.0),
        (build_birth_death(BirthDeathSpec(0.6, 1.7), truncation=40), 1, 3.0),
        (read_model_file(multi_jump_model_file(tmp_path)), 1, 1.0),
    ]
    for model, x, horizon in cases:
        K = max(model.states)
        rate = model.max_total_rate(model.state_window(K))
        step = min(1e-3, 0.1 / rate)
        path = evolve_conditioned(model, Distribution.delta(x), horizon, step, K, grid_dt=horizon)
        exact, _ = expm_window_law(model, Distribution.delta(x), horizon, K)
        assert np.abs(path.masses[-1] - exact).max() <= 1e-12
        steps = round(horizon / path.meta["step"])
        dropped = steps * poisson_tail(rate * path.meta["step"], path.meta["terms"])
        assert dropped <= path.meta["tail_bound"] <= 1e-12

    # with a coarse tail tolerance the truncation error shows, and stays
    # within 2 tail_bound / (survival in the window)
    monkeypatch.setattr(conditioned, "TAIL_TOL", 1e-6)
    coarse = evolve_conditioned(t2, Distribution.delta(2), 5.0, 1e-3, 2)
    exact, survival = expm_window_law(t2, Distribution.delta(2), 5.0, 2)
    err = np.abs(coarse.masses[-1] - exact).sum()
    assert 1e-12 < err <= 2.0 * coarse.meta["tail_bound"] / survival


@criterion(4, "FV fixed-time error under the a-priori bound; rate slope in [-0.65, -0.35]")
def test_c04_fv_fixed_time(t2):
    mu = Distribution.delta(2)
    ref = evolve_conditioned(t2, mu, 1.0, 1e-3, 2).final.mass(1)
    replicas = 200

    def mean_abs_error(n, lane):
        errs = [
            abs(
                fv_run(t2, mu, 1.0, [1.0], RngStream(104, (lane, r)), n=n)
                .measures[-1]
                .mass(1)
                - ref
            )
            for r in range(replicas)
        ]
        return float(np.mean(errs))

    # column bound of the two-state model is 1, so the bound is e^5 * 3/sqrt(N)
    bound = math.exp(5.0 * column_bound(t2) * 1.0) * 3.0 / math.sqrt(400)
    err_400 = mean_abs_error(400, 0)
    assert err_400 <= bound
    points = [(n, mean_abs_error(n, k + 1)) for k, n in enumerate((50, 200, 800))]
    slope = rate_fit(points).slope
    assert -0.65 <= slope <= -0.35


@criterion(5, "particle decorrelation under 2 e^{2 C0 t}/N plus 3 MC standard errors")
def test_c05_decorrelation(t2):
    probe = correlation_probe(
        t2, 100, 1.0, 1, 2, 400, RngStream(105), init=Distribution.delta(2)
    )
    assert probe.bound == pytest.approx(2.0 * math.exp(2.0) / 100.0, rel=1e-12)
    assert probe.estimate <= probe.bound + 3.0 * probe.stderr


@criterion(6, "stationary FV on the branching chain selects the minimal QSD (TV <= 0.05)")
def test_c06_selection_principle():
    gw = resolve_model("gw:1,2")
    reference = minimal_qsd_reference(gw).nu
    stationary = fv_stationary(gw, 1000, 50.0, 550.0, RngStream(106), init=Distribution.delta(1))
    assert tv_distance(stationary, reference) <= 0.05


@criterion(7, "return map: QSD is a fixed point at 1e-10; iteration reaches it at 1e-8")
def test_c07_phi(t2, t2_oracle):
    assert tv_distance(phi_map(t2, t2_oracle.nu), t2_oracle.nu) <= 1e-10
    res = phi_iterate(t2, Distribution.delta(1), tol=1e-10)
    assert res.converged
    assert tv_distance(res.dist, t2_oracle.nu) <= 1e-8


@criterion(8, "tagged-particle coupling: divergence bound, 3-SE ordering in N, stationary marginal")
def test_c08_coupling(t2, t2_oracle):
    mu = Distribution.delta(2)
    horizon = 2.0
    grid = np.linspace(0.0, horizon, 21)
    path = evolve_conditioned(t2, mu, horizon, 1e-3, 2)
    t_mass1 = np.array([path.vector_at(float(s))[0] for s in grid])
    replicas = 3000
    c0 = t2.c0

    stats = {}
    for n in (20, 80, 320):
        hits = 0
        integrals = np.empty(replicas)
        for r in range(replicas):
            run = coupled_tagged_run(
                t2, n, mu, horizon, RngStream(108, (n, r)), path=path, grid=grid
            )
            hits += run.coupling.diverged
            disc = np.array(
                [2.0 * abs(m.mass(1) - t_mass1[k]) for k, m in enumerate(run.trace.measures)]
            )
            integrals[r] = np.trapezoid(disc, grid)
        p = hits / replicas
        se_p = math.sqrt(p * (1 - p) / replicas)
        rhs = c0 * float(integrals.mean())
        se_rhs = c0 * float(integrals.std(ddof=1) / math.sqrt(replicas))
        stats[n] = (p, se_p, rhs, se_rhs)
        # the divergence inequality, both sides estimated from the same runs
        assert p <= rhs + 3.0 * (se_p + se_rhs)

    for small, large in ((20, 80), (80, 320)):
        p_s, se_s, _, _ = stats[small]
        p_l, se_l, _, _ = stats[large]
        assert p_s - p_l >= 3.0 * math.hypot(se_s, se_l)

    # stationary marginal: under mu = nu the limit process keeps law nu
    nu = t2_oracle.nu
    spath = evolve_conditioned(t2, nu, horizon, 1e-3, 2)
    sample = []
    for r in range(10_000):
        y0 = nu.sample(RngStream(109, (r, 0)).generator())
        sample.append(simulate_tagged_limit(t2, spath, y0, RngStream(109, (r, 1))).state_at(horizon))
    assert one_sample_chi2_pvalue(sample, nu.as_dict()) > 0.01


@criterion(9, "history renewal reaches the discrete oracle (TV <= 0.02; medians refine)")
def test_c09_afp(t2):
    d = uniformize(t2, rate=2.0)
    ref = solve_qsd_discrete(d).nu
    res = afp_run(d, 1, 10**6, RngStream(110), reference=ref)
    assert res.checkpoint_tv[-1] <= 0.02

    base = 150_000
    tvs = []
    for r in range(20):
        out = afp_run(
            d,
            1,
            4 * base,
            RngStream(111, (r,)),
            checkpoints=[base, 2 * base, 4 * base],
            reference=ref,
        )
        tvs.append(out.checkpoint_tv)
    med = np.median(np.array(tvs), axis=0)
    assert med[0] >= med[1] >= med[2]


@criterion(10, "branching profile matches the oracle (TV <= 0.05) and grows at alpha + lambda")
def test_c10_branching(t2, t2_oracle):
    est = ks_estimate(t2, 2.0, 15.0, 10**5, 50, RngStream(112))
    assert tv_distance(est.nu_hat, t2_oracle.nu) <= 0.05
    lam_alpha = 2.0 + t2_oracle.lam
    assert est.growth_rate_fit == pytest.approx(lam_alpha, abs=0.1)


@criterion(11, "graphical and Gillespie kernels agree in law (chi-square at 0.01)")
def test_c11_kernel_equivalence(t2):
    n = 20
    mu = Distribution.delta(2)
    a = [
        round(
            fv_run_graphical(t2, n, mu, 1.0, [1.0], RngStream(113, (0, r))).measures[-1].mass(1)
            * n
        )
        for r in range(2000)
    ]
    b = [
        round(fv_run(t2, mu, 1.0, [1.0], RngStream(113, (1, r)), n=n).measures[-1].mass(1) * n)
        for r in range(2000)
    ]
    assert two_sample_chi2_pvalue(a, b) > 0.01


@criterion(12, "stochastic runs rerun with the same seed are byte-identical")
def test_c12_reproducibility(tmp_path):
    configs = [
        ExperimentConfig(
            method="fv",
            model="two-state",
            seed=31,
            replicas=5,
            params={"particles": "80", "horizon": "1.0", "init": "delta:2"},
        ),
        ExperimentConfig(
            method="fv",
            model="gw:1,2",
            seed=32,
            replicas=1,
            params={
                "particles": "100",
                "horizon": "30.0",
                "burnin": "5.0",
                "trunc": "100",
                "init": "delta:1",
            },
        ),
        ExperimentConfig(
            method="afp",
            model="two-state",
            seed=33,
            params={"steps": "100000", "start": "1"},
        ),
        ExperimentConfig(
            method="branch",
            model="two-state",
            seed=34,
            replicas=10,
            params={"alpha": "2.0", "horizon": "8.0", "cap": "20000"},
        ),
        ExperimentConfig(
            method="couple",
            model="two-state",
            seed=35,
            replicas=50,
            params={"particles": "20", "horizon": "1.0", "init": "delta:2"},
        ),
        ExperimentConfig(
            method="scan",
            model="two-state",
            seed=36,
            replicas=30,
            params={"particles": "25,100", "horizon": "1.0", "init": "delta:2", "state": "1"},
        ),
    ]
    for k, cfg in enumerate(configs):
        a = tmp_path / f"{k}a"
        b = tmp_path / f"{k}b"
        ra = run_config(cfg, a)
        rb = run_config(cfg, b)
        for fa, fb in zip(ra.files, rb.files):
            assert (a / _name(fa)).read_bytes() == (b / _name(fb)).read_bytes(), cfg.method


def _name(path):
    import os

    return os.path.basename(path)
