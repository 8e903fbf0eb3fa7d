import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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
    read_model_file,
    resolve_model,
    simulate_mu_return,
    simulate_tagged_limit,
    simulate_until_absorption,
    solve_qsd_power,
    tv_distance,
)
from qsdsim import returnproc
from qsdsim.chain import AbsorbedChainModel
from qsdsim.errors import EventCapExceeded, NegativeRate, NotIrreducible, PathTooShort
from qsdsim.oracle import _path_solver

from conftest import (
    ReturnRates,
    TimeDepReturnRates,
    large_model_file,
    multi_jump_model_file,
    one_sample_chi2_pvalue,
    reference_internal_partition,
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

    def test_total_rate_that_overflows_raises(self):
        # the waits at state 1 underflow to 0, and the first visit to state 2,
        # whose total rate is not a float, raises instead of spinning
        model = resolve_model("gw:1e307,1e308")
        with pytest.raises(NegativeRate, match="state 2 overflows"):
            simulate_mu_return(model, Distribution.delta(1), 1.0, RngStream(20))


class TestPhiMap:
    def test_point(self, t1):
        assert phi_map(t1, Distribution.delta(1)) == Distribution.delta(1)

    def test_delta1_exact(self, t2):
        out = phi_map(t2, Distribution.delta(1))
        assert out.mass(1) == pytest.approx(0.5, abs=1e-12)
        assert out.mass(2) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_fixed_point(self, t2, t2_oracle):
        assert tv_distance(phi_map(t2, t2_oracle.nu), t2_oracle.nu) <= 1e-10

    @pytest.mark.parametrize("run", [phi_map, phi_iterate])
    def test_infinite_model_needs_a_window(self, run):
        with pytest.raises(ValueError, match="an infinite model needs an explicit window"):
            run(resolve_model("bd:1,2"), Distribution.delta(1))

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
        ["bd:1,2,200", "bd:1,2,250", "bd:0.6,1.7,40", "multi-jump", "large-file"],
        ids=["dense-200", "sparse-250", "dense-40", "multi-jump", "sparse-file-250"],
    )
    def test_iterates_match_per_call_lil_assembly(self, spec, tmp_path):
        # phi_map's solve of mu A^-1 against the stationarity system, call by
        # call on the first iterates from delta_1.  The three builtin windows
        # are two-way paths and take the Thomas sweep at any size (their ids
        # are historical); the multi-jump file takes the dense inverse and the
        # 250-state file the sparse LU.
        if spec == "multi-jump":
            spec = f"file:{multi_jump_model_file(tmp_path)}"
        elif spec == "large-file":
            spec = f"file:{large_model_file(tmp_path)}"
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


def dense_path_solve(total, up, down, v) -> np.ndarray:
    """w = v A^-1 by ``np.linalg.solve`` of the dense A^T of a two-way path, per call."""
    n = len(total)
    a_t = np.diag(np.asarray(total, dtype=float))
    a_t[np.arange(n - 1), np.arange(1, n)] = -np.asarray(down)
    a_t[np.arange(1, n), np.arange(n - 1)] = -np.asarray(up)
    return np.linalg.solve(a_t, v)


def assert_path_solve_matches_dense(total, up, down, v, rel):
    got = _path_solver(np.asarray(total), np.asarray(up), np.asarray(down))(np.asarray(v))
    ref = dense_path_solve(total, up, down, v)
    assert np.all(got > 0.0)
    assert np.all(np.abs(got - ref) <= rel * ref)


path_rates = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def two_way_paths(draw):
    """(total, up, down): every state absorbs, so A is safely nonsingular."""
    n = draw(st.integers(min_value=1, max_value=40))
    up = draw(st.lists(path_rates, min_size=n - 1, max_size=n - 1))
    down = draw(st.lists(path_rates, min_size=n - 1, max_size=n - 1))
    absorb = draw(st.lists(path_rates, min_size=n, max_size=n))
    total = [a + (up[i] if i < n - 1 else 0.0) + (down[i - 1] if i else 0.0)
             for i, a in enumerate(absorb)]
    return total, up, down


class TestPathSolve:
    @pytest.mark.parametrize("spec, K", [
        ("bd:1,2,200", None), ("gw:1,2", 100), ("bd:0.6,1.7,40", None), ("two-state", None),
    ])
    def test_matches_dense_solve(self, spec, K):
        model = resolve_model(spec)
        model = model.restricted(K) if K else model
        b = model.live_block()
        up, down = b.two_way_path
        n = len(b.states)
        rng = np.random.default_rng(31)
        for v in (np.eye(n)[0], np.eye(n)[-1], np.full(n, 1.0 / n), rng.random(n) + 1e-3):
            assert_path_solve_matches_dense(b.total, up, down, v, 1e-13)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(two_way_paths(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_paths_match_dense_solve(self, path, seed):
        total, up, down = path
        v = np.random.default_rng(seed).random(len(total)) + 1e-3
        assert_path_solve_matches_dense(total, up, down, v, 1e-13)

    def test_singular_path_raises(self):
        # no state absorbs: the last pivot is 1 - 1/1 = 0
        with pytest.raises(NotIrreducible):
            _path_solver(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0]))

    def test_path_windows_call_no_dense_linear_algebra(self, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise AssertionError("a two-way path called numpy's dense linear algebra")

        monkeypatch.setattr(np.linalg, "solve", boom)
        monkeypatch.setattr(np.linalg, "inv", boom)
        for model in (resolve_model("bd:1,2,200"), resolve_model("gw:1,2").restricted(100),
                      resolve_model("bd:1,2,250"), resolve_model("two-state")):
            phi_iterate(model, Distribution.delta(1), max_iters=3)
        # the patch does reach the dense route of a window that is not a path
        model = resolve_model(f"file:{multi_jump_model_file(tmp_path)}")
        with pytest.raises(AssertionError, match="dense linear algebra"):
            phi_map(model, Distribution.delta(1))


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

    def test_converges_on_bd200_window(self):
        # one factorization for all 2282 steps from delta_1
        model = resolve_model("bd:1,2,200")
        res = phi_iterate(model, Distribution.delta(1), max_iters=5000)
        assert res.converged
        assert res.iterations == 2282
        assert tv_distance(res.dist, solve_qsd_power(model).nu) <= 1e-7

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_needs_at_least_one_iteration(self, t2, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            phi_iterate(t2, Distribution.delta(1), max_iters=max_iters)

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


def absorption_run(model, start, cap):
    return simulate_until_absorption(model, Distribution.delta(start), RngStream(40), event_cap=cap)


def mu_return_run(model, start, cap):
    return simulate_mu_return(model, Distribution.delta(start), 10.0, RngStream(41), event_cap=cap)


def tagged_run(model, start, cap):
    path = evolve_conditioned(model, Distribution.delta(start), 5.0, None, max(model.states))
    return simulate_tagged_limit(model, path, start, RngStream(42), event_cap=cap)


FORCED = {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (4, 0): 1.0}  # four forced jumps to absorption
CYCLE = {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}  # never absorbs, and every event moves


class TestZMuEvents:
    """The one Gillespie loop behind the three single-particle simulators."""

    @pytest.mark.parametrize("run", [absorption_run, mu_return_run, tagged_run])
    def test_stuck_state_raises(self, run):
        model = build_finite({(1, 2): 1.0, (1, 0): 1.0})  # state 2 has no way out
        with pytest.raises(EventCapExceeded, match="state 2 has total rate 0"):
            run(model, 2, 10**6)

    @pytest.mark.parametrize("run, rates, count", [
        (absorption_run, FORCED, lambda r: 4),
        (mu_return_run, FORCED, lambda r: r.events),
        (tagged_run, CYCLE, lambda r: len(r.times) - 1),
    ], ids=["absorption", "mu-return", "tagged"])
    def test_event_cap_boundary(self, run, rates, count):
        # a cap of exactly the run's event count changes nothing; one less raises
        model = build_finite(rates)
        full = run(model, 1, 10**6)
        n = count(full)
        assert n >= 4
        assert run(model, 1, n) == full
        with pytest.raises(EventCapExceeded, match=f"more than {n - 1} events"):
            run(model, 1, n - 1)

    @pytest.mark.parametrize("run, rates", [(mu_return_run, FORCED), (tagged_run, CYCLE)],
                             ids=["mu-return", "tagged"])
    def test_negative_cap_raises_at_the_first_event(self, run, rates):
        with pytest.raises(EventCapExceeded, match="more than -1 events"):
            run(build_finite(rates), 1, -1)


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


# Unsorted transition lists and one absorbing state, so an internal mark's
# interval starts past a(1) at state 1 only; state 2 lists target 3 twice.
UNSORTED = {1: [(3, 0.4), (2, 0.3)], 2: [(3, 0.2), (1, 0.7), (3, 0.35)], 3: [(2, 0.6), (1, 0.15)]}
UNSORTED_ABSORB = {1: 0.5, 2: 0.0, 3: 0.0}


def unsorted_model():
    return AbsorbedChainModel(UNSORTED.__getitem__, UNSORTED_ABSORB.__getitem__, states=(1, 2, 3))


class TestInternalMarks:
    @pytest.mark.parametrize("name", ["two-state", "bd:1,2,30", "gw:1,2|60", "multi-jump"])
    def test_target_matches_sorted_partition(self, name, tmp_path):
        # builders list transitions by target, so the jump table maps every u
        # of a grid, each interval's edges and midpoint included, as the old
        # sorted partition did.  a(x) + u qbar against rate sums and u against
        # sums of rate/qbar may round apart on an edge itself: there either
        # neighbouring target is allowed
        if name == "multi-jump":
            model = read_model_file(multi_jump_model_file(tmp_path))
        elif name == "gw:1,2|60":
            model = resolve_model("gw:1,2").restricted(60)
        else:
            model = resolve_model(name)
        reference = reference_internal_partition(model, model.qbar)
        for x in model.states:
            jumps = sorted(model.transitions(x))
            edges = np.cumsum([0.0] + [r / model.qbar for _, r in jumps])
            sides = [y for y, _ in jumps] + [x]  # the target right of each edge
            us = np.concatenate([np.linspace(0.0, 1.0, 201), edges, (edges[1:] + edges[:-1]) / 2])
            for u in us[us < 1.0].tolist():
                got, want = returnproc._internal_target(model, x, u), reference(x, u)
                if got != want:
                    k = int(np.abs(edges - u).argmin())
                    assert k >= 1 and abs(edges[k] - u) < 1e-15
                    assert {got, want} == {sides[k - 1], sides[k]}

    def test_unsorted_lists_keep_each_targets_width(self):
        model = unsorted_model()
        reference = reference_internal_partition(model, model.qbar)
        m = 100_000
        us = ((np.arange(m) + 0.5) / m).tolist()
        for x in model.states:
            got = np.bincount([returnproc._internal_target(model, x, u) for u in us], minlength=4)
            ref = np.bincount([reference(x, u) for u in us], minlength=4)
            # each interval's two edges cost at most one grid point apiece
            assert np.abs(got - ref).max() <= 4
            for y in (1, 2, 3):
                # the holding interval is what the jumps leave of [0, 1)
                rate = sum(r for z, r in UNSORTED[x] if z == y) if y != x else (
                    model.qbar - sum(r for _, r in UNSORTED[x]))
                assert abs(got[y] / m - rate / model.qbar) <= 4 / m

    def test_coupled_processes_take_one_target_per_internal_mark(self, monkeypatch):
        model = unsorted_model()
        calls = []
        draw = returnproc._internal_target

        def recording(model, x, u):
            calls.append((x, u, draw(model, x, u)))
            return calls[-1][2]

        monkeypatch.setattr(returnproc, "_internal_target", recording)
        mu = Distribution.delta(1)
        path = evolve_conditioned(model, mu, 3.0, None, 3)
        shared = 0
        for r in range(20):
            calls.clear()
            run = coupled_tagged_run(model, 4, mu, 3.0, RngStream(61, (r,)), path=path)
            # the limit process reads particle 1's internal mark right after it
            for (x, u, target), (y, v, y_target) in zip(calls, calls[1:]):
                if u == v and x == y:
                    assert target == y_target
                    shared += 1
            t_end = run.coupling.divergence_time if run.coupling.diverged else 3.0
            tagged, limit = (
                [(t, z) for t, z in zip(traj.times, traj.states) if t < t_end]
                for traj in (run.tagged, run.limit)
            )
            assert tagged == limit
        assert shared > 50
