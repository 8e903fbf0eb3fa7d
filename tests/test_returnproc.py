import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qsdsim import (
    Distribution,
    GaltonWatsonSpec,
    RngStream,
    build_finite,
    build_galton_watson,
    coupled_tagged_run,
    evolve_conditioned,
    fv_run,
    fv_run_graphical,
    phi_iterate,
    phi_map,
    resolve_model,
    simulate_mu_return,
    simulate_tagged_limit,
    solve_qsd_power,
    tv_distance,
)
from qsdsim.errors import NotIrreducible, PathTooShort

from conftest import (
    ReturnRates,
    TimeDepReturnRates,
    multi_jump_model_file,
    one_sample_chi2_pvalue,
    two_sample_chi2_pvalue,
)


class TestReturnRates:
    def test_rates_formula(self, t2, t2_oracle):
        rr = ReturnRates(t2, t2_oracle.nu)
        nu1 = t2_oracle.nu.mass(1)
        assert rr.rate(1, 2) == pytest.approx(1.0 + 1.0 * (1 - nu1))
        assert rr.rate(2, 1) == pytest.approx(1.0)  # no absorption at 2

    def test_qsd_is_invariant(self, t2, t2_oracle):
        # nu q^nu = 0: the stationarity residual of the return generator
        gen = ReturnRates(t2, t2_oracle.nu).matrix((1, 2))
        nu = t2_oracle.nu.as_vector((1, 2))
        assert np.abs(nu @ gen).max() <= 1e-10

    def test_time_dependent_rates_freeze_at_qsd(self, t2, t2_oracle):
        # along a path started from the QSD the rates are time-independent
        # and agree with the plain return rates of that QSD
        path = evolve_conditioned(t2, t2_oracle.nu, 2.0, 1e-3, 2)
        tdr = TimeDepReturnRates(t2, path)
        rr = ReturnRates(t2, t2_oracle.nu)
        for t in (0.0, 0.7, 2.0):
            for x, y in ((1, 2), (2, 1)):
                assert tdr.rate(t, x, y) == pytest.approx(rr.rate(x, y), abs=1e-9)


class TestMuReturn:
    def test_point_occupation(self, t1):
        occ = simulate_mu_return(t1, Distribution.delta(1), 200.0, RngStream(20))
        assert occ.occupation == Distribution.delta(1)
        assert occ.returns > 0

    def test_delta1_balances_to_uniform(self, t2):
        # returning at 1 cancels the absorption there, leaving symmetric
        # switching between the two states
        occ = simulate_mu_return(t2, Distribution.delta(1), 1e4, RngStream(21))
        assert abs(occ.occupation.mass(1) - 0.5) <= 0.01
        assert abs(occ.occupation.mass(2) - 0.5) <= 0.01

    def test_qsd_occupation_is_stationary(self, t2, t2_oracle):
        occ = simulate_mu_return(t2, t2_oracle.nu, 1e4, RngStream(22))
        assert tv_distance(occ.occupation, t2_oracle.nu) <= 0.01


class TestPhiMap:
    def test_point(self, t1):
        assert phi_map(t1, Distribution.delta(1)) == Distribution.delta(1)

    def test_delta1_exact(self, t2):
        out = phi_map(t2, Distribution.delta(1))
        assert out.mass(1) == pytest.approx(0.5, abs=1e-12)
        assert out.mass(2) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_fixed_point(self, t2, t2_oracle):
        assert tv_distance(phi_map(t2, t2_oracle.nu), t2_oracle.nu) <= 1e-10

    def test_not_irreducible(self):
        # state 2 neither absorbs nor returns; with mu = delta_1 the return
        # chain cannot reach 2 from 1... build a genuinely split chain
        model = build_finite({(1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0})
        with pytest.raises(NotIrreducible):
            phi_map(model, Distribution.delta(1))

    def test_path_without_absorption_is_rejected(self):
        # a two-way path is strongly connected, but nothing ever absorbs
        model = build_finite({(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0})
        assert model.live_block().two_way_path is not None
        with pytest.raises(NotIrreducible):
            phi_map(model, Distribution.delta(1))

    def test_matches_long_simulation(self, t2):
        mu = Distribution.uniform([1, 2])
        exact = phi_map(t2, mu)
        occ = simulate_mu_return(t2, mu, 2e4, RngStream(23)).occupation
        assert tv_distance(exact, occ) <= 0.02


def reference_phi_map(model, mu):
    """Phi(mu) from the stationarity system of the mu-return chain.

    Assembled from scratch per call, with the last equation replaced by the
    normalization through lil_matrix.
    """
    states = model.states
    n = len(states)
    index = {x: i for i, x in enumerate(states)}
    rows, cols, vals = [], [], []
    diag = [0.0] * n
    for x in states:
        i = index[x]
        a = model.absorb_rate(x)
        for y, r in model.transitions(x):
            rows.append(index[y])
            cols.append(i)
            vals.append(r)
            diag[i] -= r
        if a > 0:
            for y, m in mu.items():
                if y != x:
                    rows.append(index[y])
                    cols.append(i)
                    vals.append(a * m)
                    diag[i] -= a * m
    rows += range(n)
    cols += range(n)
    vals += diag
    mat = sp.lil_matrix(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))
    mat[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    if n <= 200:
        pi = np.linalg.solve(mat.toarray(), rhs)
    else:
        pi = spla.spsolve(sp.csr_matrix(mat), rhs)
    return Distribution.from_weights({x: max(pi[index[x]], 0.0) for x in states})


class TestPhiAssembly:
    @pytest.mark.parametrize(
        "spec",
        ["bd:1,2,200", "bd:1,2,250", "bd:0.6,1.7,40", "multi-jump"],
        ids=["dense-200", "sparse-250", "dense-40", "multi-jump"],
    )
    def test_iterates_match_per_call_lil_assembly(self, spec, tmp_path):
        # phi_map's solve of mu A^-1 against the stationarity system, call by
        # call on the first iterates from delta_1
        if spec == "multi-jump":
            spec = f"file:{multi_jump_model_file(tmp_path)}"
        model = resolve_model(spec)
        mu = Distribution.delta(1)
        for _ in range(3):
            got = phi_map(model, mu)
            assert tv_distance(got, reference_phi_map(model, mu)) <= 1e-13
            mu = got

    def test_return_law_is_unique_when_mu_misses_states(self):
        # 3 -> 2 -> 1 -> absorbed: returns onto 2 never reach 3, which is
        # transient, so the return chain still has one invariant law
        model = build_finite({(1, 0): 1.0, (2, 1): 1.0, (3, 2): 1.0})
        got = phi_map(model, Distribution.delta(2))
        assert got.support == (1, 2)
        assert got.mass(1) == pytest.approx(0.5, abs=1e-15)
        assert got.mass(3) == 0.0
        assert phi_map(model, Distribution.uniform([1, 3])).mass(3) == pytest.approx(1 / 4)

    def test_mu_outside_the_states_is_rejected(self, t2):
        with pytest.raises(ValueError, match="outside"):
            phi_map(t2, Distribution.delta(7))


class TestPhiIterate:
    def test_point_one_iteration(self, t1):
        res = phi_iterate(t1, Distribution.delta(1), tol=1e-10)
        assert res.converged
        assert res.iterations == 1

    def test_reaches_oracle_from_delta(self, t2, t2_oracle):
        res = phi_iterate(t2, Distribution.delta(1), tol=1e-10)
        assert res.converged
        assert res.iterations <= 60
        assert tv_distance(res.dist, t2_oracle.nu) <= 1e-8

    def test_same_limit_from_uniform(self, t2, t2_oracle):
        res = phi_iterate(t2, Distribution.uniform([1, 2]), tol=1e-10)
        assert tv_distance(res.dist, t2_oracle.nu) <= 1e-8

    def test_tv_log_monotone_after_transient(self, t2):
        res = phi_iterate(t2, Distribution.delta(1), tol=1e-14, max_iters=40)
        log = res.tv_log
        tail = log[4:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_converges_on_bd100_window(self):
        # 718 steps from delta_1, and only if the iterate keeps the tail
        # masses below 1e-15 that a Distribution would drop
        model = resolve_model("bd:1,2,100")
        res = phi_iterate(model, Distribution.delta(1), max_iters=1000)
        assert res.converged
        assert tv_distance(res.dist, solve_qsd_power(model).nu) <= 1e-7

    def test_budget_exhaustion_is_reported_not_raised(self, t2):
        res = phi_iterate(t2, Distribution.delta(1), max_iters=2, tol=1e-15)
        assert not res.converged
        assert len(res.tv_log) == 2


class TestTaggedLimit:
    def test_point_model(self, t1):
        path = evolve_conditioned(t1, Distribution.delta(1), 2.0, 0.05, 1)
        tr = simulate_tagged_limit(t1, path, 1, RngStream(24))
        assert tr.states == [1]

    def test_stationary_marginal_under_qsd(self, t2, t2_oracle):
        # with mu = nu the return law is constant and nu-invariant: the
        # marginal at any t stays nu
        path = evolve_conditioned(t2, t2_oracle.nu, 2.0, 1e-3, 2)
        sample = []
        for r in range(10_000):
            y0 = t2_oracle.nu.sample(RngStream(25, (r, 0)).child(1).generator())
            tr = simulate_tagged_limit(t2, path, y0, RngStream(25, (r, 1)))
            sample.append(tr.state_at(2.0))
        pval = one_sample_chi2_pvalue(sample, t2_oracle.nu.as_dict())
        assert pval > 0.01

    def test_marginal_matches_conditioned_evolution(self, t2):
        # the forward equation of the limit process is the conditioned
        # evolution itself: marginal at t = 1 from delta_2 must match it
        path = evolve_conditioned(t2, Distribution.delta(2), 1.5, 1e-3, 2)
        sample = [
            simulate_tagged_limit(t2, path, 2, RngStream(26, (r,))).state_at(1.0)
            for r in range(10_000)
        ]
        expect = path.distribution_at(1.0)
        pval = one_sample_chi2_pvalue(sample, expect.as_dict())
        assert pval > 0.01

    def test_path_too_short(self, t2):
        path = evolve_conditioned(t2, Distribution.delta(2), 1.0, 1e-3, 2)
        with pytest.raises(PathTooShort):
            simulate_tagged_limit(t2, path, 2, RngStream(0), horizon=2.0)


class TestCoupledRun:
    def test_point_model_never_diverges(self, t1):
        for r in range(20):
            run = coupled_tagged_run(t1, 5, Distribution.delta(1), 2.0, RngStream(27, (r,)))
            assert not run.coupling.diverged
            assert run.coupling.psi(2.0) == 0

    def test_psi_monotone(self, t2):
        diverged_seen = 0
        for r in range(300):
            run = coupled_tagged_run(t2, 10, Distribution.delta(2), 2.0, RngStream(28, (r,)))
            ind = run.coupling
            if ind.diverged:
                diverged_seen += 1
                ts = np.linspace(0, 2.0, 9)
                vals = [ind.psi(float(t)) for t in ts]
                assert all(b >= a for a, b in zip(vals, vals[1:]))
                assert ind.psi(ind.divergence_time - 1e-9) == 0
                assert ind.psi(ind.divergence_time) == 1
        assert diverged_seen > 0  # small N diverges often enough to exercise

    def test_trajectories_agree_until_divergence(self, t2):
        for r in range(100):
            run = coupled_tagged_run(t2, 8, Distribution.delta(2), 2.0, RngStream(29, (r,)))
            t_end = run.coupling.divergence_time if run.coupling.diverged else 2.0
            for t in np.linspace(0, t_end - 1e-9, 7):
                assert run.tagged.state_at(float(t)) == run.limit.state_at(float(t))

    def test_rejects_unbounded_rates(self):
        gw = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        with pytest.raises(ValueError, match="qbar"):
            coupled_tagged_run(gw, 10, Distribution.delta(1), 1.0, RngStream(0), truncation=50)

    def test_deterministic(self, t2):
        a = coupled_tagged_run(t2, 20, Distribution.delta(2), 2.0, RngStream(30), grid=[1.0, 2.0])
        b = coupled_tagged_run(t2, 20, Distribution.delta(2), 2.0, RngStream(30), grid=[1.0, 2.0])
        assert a.coupling == b.coupling
        assert all(x == y for x, y in zip(a.trace.measures, b.trace.measures))


class TestKernelEquivalence:
    def test_graphical_matches_gillespie_in_law(self, t2):
        # same model, same N, same horizon: the two event constructions must
        # generate the same law of m(1, xi(1))
        n = 20
        mu = Distribution.delta(2)

        def graphical(r):
            tr = fv_run_graphical(t2, n, mu, 1.0, [1.0], RngStream(31, (0, r)))
            return round(tr.measures[-1].mass(1) * n)

        def gillespie(r):
            tr = fv_run(t2, mu, 1.0, [1.0], RngStream(31, (1, r)), n=n)
            return round(tr.measures[-1].mass(1) * n)

        a = [graphical(r) for r in range(2000)]
        b = [gillespie(r) for r in range(2000)]
        pval = two_sample_chi2_pvalue(a, b)
        assert pval > 0.01
