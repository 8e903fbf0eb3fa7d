import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import oracle

from qsdsim import (
    BirthDeathSpec,
    Distribution,
    GaltonWatsonSpec,
    build_birth_death,
    build_finite,
    build_galton_watson,
    minimal_qsd_reference,
    qsd_residual,
    read_model_file,
    resolve_model,
    solve_qsd_discrete,
    solve_qsd_power,
    theta_of,
    tv_distance,
    uniformize,
)
from qsdsim.errors import NoConvergence, NoMinimalQsd, NotIrreducible

from conftest import (
    T2_LAMBDA, T2_NU1, large_model_file, multi_jump_model_file, reference_sweep, same_bits,
)

# A window that is not a two-way path (3 -> 1 skips a neighbour, 2 -> 3 is
# one-way), so the oracle runs inverse iteration on it.
CYCLE = {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0, (3, 2): 0.5, (1, 0): 1.0}


class TestSolvePower:
    def test_t1_closed_form(self, t1):
        sol = solve_qsd_power(t1)
        assert sol.nu == Distribution.delta(1)
        assert sol.lam == pytest.approx(-1.0, abs=1e-12)
        assert sol.theta == pytest.approx(1.0, abs=1e-12)

    def test_t2_closed_form(self, t2):
        sol = solve_qsd_power(t2)
        assert sol.lam == pytest.approx(T2_LAMBDA, abs=1e-9)
        assert sol.nu.mass(1) == pytest.approx(T2_NU1, abs=1e-9)
        assert sol.nu.mass(2) == pytest.approx(1.0 - T2_NU1, abs=1e-9)
        assert sol.residual <= 1e-9

    def test_three_way_theta_identity(self, t2):
        for model in (
            resolve_model("point"),
            t2,
            build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=60),
            build_birth_death(BirthDeathSpec(0.7, 1.9), truncation=40),
        ):
            sol = solve_qsd_power(model)
            assert sol.theta == pytest.approx(-sol.lam, abs=1e-12)
            assert theta_of(model, sol.nu) == pytest.approx(sol.theta, abs=1e-9)

    def test_residual_invariant(self, t2):
        for model in (t2, build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=100)):
            sol = solve_qsd_power(model)
            assert qsd_residual(model.restricted(sol.truncation), sol.nu).sup_norm <= 1e-9

    def test_not_irreducible(self):
        # two components that never communicate
        model = build_finite({(1, 0): 1.0, (2, 0): 1.0})
        with pytest.raises(NotIrreducible):
            solve_qsd_power(model)

    def test_path_window_that_never_absorbs_is_rejected(self):
        # a two-way path with no killing rate: the generator conserves mass
        model = build_finite({(1, 2): 1.0, (2, 1): 1.0})
        assert model.live_block().two_way_path is not None
        with pytest.raises(NotIrreducible, match="absorbs"):
            solve_qsd_power(model)

    def test_no_convergence_reports_gap(self):
        with pytest.raises(NoConvergence) as err:
            solve_qsd_power(build_finite(CYCLE), max_iters=3)
        assert err.value.last_gap is not None

    def test_gap_log_is_eventually_decreasing(self):
        sol = solve_qsd_power(build_finite(CYCLE))
        assert sol.meta["solver"] == "inverse"
        gaps = sol.meta["gap_log"]
        tail = gaps[2:]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("name", ["cycle", "multi-jump"])
    def test_inverse_route_matches_power_iteration(self, name, tmp_path):
        # power iteration stops on a 1e-12 step gap, so its own error is near 1e-11
        if name == "cycle":
            model = build_finite(CYCLE)
        else:
            model = read_model_file(multi_jump_model_file(tmp_path))
        assert model.live_block().two_way_path is None
        sol = solve_qsd_power(model)
        assert sol.meta["solver"] == "inverse"
        nu, lam = power_solution(model)
        assert tv_distance(sol.nu, nu) <= 1e-10
        assert abs(sol.lam - lam) <= 1e-11
        assert sol.residual <= 1e-13

    def test_window_that_never_absorbs_is_rejected(self):
        # CYCLE without its killing rate: A = -Q_live is singular
        rates = {k: r for k, r in CYCLE.items() if k[1] != 0}
        with pytest.raises(NotIrreducible, match="cannot reach absorption"):
            solve_qsd_power(build_finite(rates))

    def test_thousand_state_walk_with_skips_converges(self, tmp_path):
        model = read_model_file(large_model_file(tmp_path, 1000))
        sol = solve_qsd_power(model)
        assert sol.meta["solver"] == "inverse"
        assert sol.residual <= 1e-12
        assert sol.theta == pytest.approx(-sol.lam)


def reference_left_power(mat_t, start, tol, max_iters):
    """The plain power-iteration loop: one ``mat_t @ v`` and one TV gap per step."""
    v = start / start.sum()
    rho = 0.0
    gaps = []
    for it in range(1, max_iters + 1):
        w = mat_t @ v
        total = float(w.sum())
        w /= total
        gap = 0.5 * float(np.abs(w - v).sum())
        drift = abs(total - rho)
        gaps.append(gap)
        v, rho = w, total
        if gap < tol and drift < tol and it >= 2:
            return v, rho, it, gaps
    raise NoConvergence("reference loop did not converge", last_gap=gaps[-1])


def power_matrix(model, truncation=None):
    """The transposed CSR matrix I + Q/rate of the reference power iteration, and its rate."""
    finite = model.restricted(truncation if truncation is not None else max(model.states))
    b = finite.live_block()
    rate = 1.05 * finite.max_total_rate(finite.states)
    n = len(b.states)
    span = np.arange(n)
    rows = np.concatenate([span, b.dst])
    cols = np.concatenate([span, b.src])
    vals = np.concatenate([1.0 - b.total / rate, b.rate / rate])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), rate


def reference_inverse_iteration(solve, start, tol, max_iters):
    """The plain inverse-iteration loop, with every TV gap kept."""
    v = start / start.sum()
    root = 0.0
    gaps = []
    for it in range(1, max_iters + 1):
        w = np.maximum(solve(v), 0.0)
        s = float(w.sum())
        w = w / s
        gap = 0.5 * float(np.abs(w - v).sum())
        drift = abs(1.0 / s - root)
        gaps.append(gap)
        v, root = w, 1.0 / s
        if gap < tol and drift < tol and it >= 2:
            return v, s, it, gaps
    raise NoConvergence("reference loop did not converge", last_gap=gaps[-1])


def inverse_inputs(model):
    """The (solve, start, tol, max_iters) of the oracle's inverse route at the default settings."""
    b = model.live_block()
    return oracle.return_map_solver(b), np.ones(len(b.states)), 1e-12, 200_000


class TestPowerKernel:
    """The non-path route's kernel: power iteration on A^-T, that is inverse iteration."""

    def test_no_convergence_gap_matches_reference(self, tmp_path):
        # five steps are far too few, so both loops give up with the same last gap
        model = read_model_file(multi_jump_model_file(tmp_path))
        solve, start, tol, _ = inverse_inputs(model)
        with pytest.raises(NoConvergence) as err:
            oracle._inverse_iteration(solve, start, tol, 5)
        with pytest.raises(NoConvergence) as ref:
            reference_inverse_iteration(solve, start, tol, 5)
        assert err.value.last_gap == ref.value.last_gap

    def test_gap_log_is_bounded(self, tmp_path):
        # the 250-state walk with skips takes thousands of steps; the log keeps
        # exactly the first and the last GAP_HEAD gaps of the plain loop
        model = read_model_file(large_model_file(tmp_path))
        sol = solve_qsd_power(model)
        assert sol.meta["solver"] == "inverse"
        head = oracle.GAP_HEAD
        assert sol.iterations > 2 * head
        assert len(sol.meta["gap_log"]) == 2 * head
        v, _, iters, gaps = reference_inverse_iteration(*inverse_inputs(model))
        assert iters == sol.iterations
        assert sol.meta["gap_log"] == gaps[:head] + gaps[-head:]
        assert gaps[-1] < 1e-12
        assert sol.nu == Distribution.from_weights(dict(zip(model.states, v)))


def power_solution(model, truncation=None):
    """(nu, lambda) of power iteration on I + Q/rate over a window, whatever route the oracle picks."""
    mat_t, rate = power_matrix(model, truncation)
    v, rho, _, _ = reference_left_power(mat_t, np.ones(mat_t.shape[0]), 1e-12, 200_000)
    states = model.restricted(truncation if truncation is not None else max(model.states)).states
    return Distribution.from_weights(dict(zip(states, v))), rate * (rho - 1.0)


BD12_THETA_STAR = (math.sqrt(2.0) - 1.0) ** 2
BD12_RATIO = math.sqrt(0.5)
BD12_WINDOWS = (100, 200, 400, 800, 1600, 3200, 6400)


@pytest.fixture(scope="module")
def bd12_windows():
    """{K: (solution, seconds)} of the oracle on bd:1,2 windows, each timed from scratch."""
    model = resolve_model("bd:1,2")
    out = {}
    for K in BD12_WINDOWS:
        t0 = time.perf_counter()
        sol = solve_qsd_power(model, truncation=K)
        out[K] = (sol, time.perf_counter() - t0)
    return out


class TestPathRoute:
    def test_two_state_eigenvalue_to_machine_precision(self, t2):
        sol = solve_qsd_power(t2)
        assert sol.meta["solver"] == "path"
        assert abs(sol.lam - (-3.0 + math.sqrt(5.0)) / 2.0) <= 1e-14
        assert abs(sol.nu.mass(1) - T2_NU1) <= 1e-14

    @pytest.mark.parametrize(
        "name, K",
        [("bd:1,2", 100), ("bd:1,2", 200), ("bd:1,2", 400), ("bd:0.6,1.7,40", None),
         ("gw:1,2", 100), ("two-state", None)],
    )
    def test_matches_power_iteration(self, name, K):
        model = resolve_model(name)
        sol = solve_qsd_power(model, truncation=K)
        assert sol.meta["solver"] == "path"
        nu, lam = power_solution(model, K)
        assert abs(sol.lam - lam) <= 1e-8
        assert tv_distance(sol.nu, nu) <= 5e-8
        assert sol.residual <= 1e-13

    def test_random_path_matches_dense_symmetric_eigenvalue(self):
        # uneven rates and scattered absorption; S is small enough for numpy's eigvalsh
        rng = np.random.default_rng(11)
        n = 30
        rates = {}
        for x in range(1, n):
            rates[(x, x + 1)], rates[(x + 1, x)] = rng.uniform(0.1, 3.0, size=2)
        for x in (1, 7, 20):
            rates[(x, 0)] = rng.uniform(0.05, 1.0)
        model = build_finite(rates)
        b = model.live_block()
        up, down = b.two_way_path
        sym = np.diag(-b.total) + np.diag(np.sqrt(up * down), 1) + np.diag(np.sqrt(up * down), -1)
        sol = solve_qsd_power(model)
        assert sol.meta["solver"] == "path"
        assert sol.lam == pytest.approx(np.linalg.eigvalsh(sym)[-1], abs=1e-13)
        nu, lam = power_solution(model)
        assert abs(sol.lam - lam) <= 1e-8
        assert tv_distance(sol.nu, nu) <= 5e-8
        assert sol.residual <= 1e-13

    @pytest.mark.parametrize("K", [1600, 6400])
    def test_long_windows_solve_in_under_a_second(self, bd12_windows, K):
        sol, seconds = bd12_windows[K]
        assert seconds < 1.0
        assert sol.residual <= 1e-13

    def test_van_doorn_limit(self, bd12_windows):
        # K^2 (theta_K - theta*) -> pi^2 sqrt(pq), the lowest Dirichlet mode of the walk
        sol, _ = bd12_windows[6400]
        scaled = 6400**2 * (sol.theta - BD12_THETA_STAR)
        assert scaled == pytest.approx(math.pi**2 * math.sqrt(2.0), rel=0.01)

    def test_window_tv_to_exact_qsd_falls_as_inverse_square(self, bd12_windows):
        # the minimal QSD that bd:1,2 declares: nu*(x) = (1 - r)^2 x r^(x - 1), r = sqrt(1/2)
        exact = minimal_qsd_reference(resolve_model("bd:1,2")).nu
        for K in BD12_WINDOWS:
            sol, _ = bd12_windows[K]
            assert 30.0 <= K**2 * tv_distance(sol.nu, exact) <= 45.0, K

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=1, max_value=60).flatmap(lambda n: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1e3), min_size=n - 1, max_size=n - 1),
        st.lists(st.floats(0.0, 1e3), min_size=n - 1, max_size=n - 1),
        st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n),
    )))
    def test_sweep_keeps_the_bits_of_the_indexed_sweep(self, system):
        # positive pivots, nonnegative off-diagonals and right-hand side; the
        # solver is reused, as the path route solves twice with one factorization
        piv, lower, upper, y = system
        solve, reference = oracle._sweep(piv, lower, upper), reference_sweep(piv, lower, upper)
        for rhs in (y, [v * 0.5 + 1.0 for v in y]):
            assert same_bits(np.array(solve(list(rhs))), np.array(reference(list(rhs))))



class TestSolveDiscrete:
    def test_uniformized_t2(self, t2):
        sol = solve_qsd_discrete(uniformize(t2, rate=2.0))
        assert sol.lam == pytest.approx(1.0 + T2_LAMBDA / 2.0, abs=1e-10)
        assert sol.nu.mass(1) == pytest.approx(T2_NU1, abs=1e-9)
        assert sol.residual <= 1e-10

    def test_single_state(self):
        # P = [[0.5]], kill 0.5
        d = uniformize(build_finite({(1, 0): 0.5}), rate=1.0)
        sol = solve_qsd_discrete(d)
        assert sol.nu == Distribution.delta(1)
        assert sol.lam == pytest.approx(0.5, abs=1e-12)

    def test_periodic_two_cycle_fails_over(self):
        # the cycle never kills, so I - P is singular: P = [[0, 1], [1, 0]]
        d = uniformize(build_finite({(1, 2): 1.0, (2, 1): 1.0}), rate=1.0)
        with pytest.raises(NotIrreducible, match="absorbs"):
            solve_qsd_discrete(d)

    def test_periodic_chain_with_killing(self):
        # 1 -> 2 -> 3 -> 1 survives the loop with probability a: nu P = rho nu
        # gives rho = a^(1/3) and nu proportional to (rho^2, rho, 1)
        a = 0.5
        d = uniformize(
            build_finite({(1, 2): 1.0, (2, 3): 1.0, (3, 1): a, (3, 0): 1.0 - a}), rate=1.0
        )
        sol = solve_qsd_discrete(d)
        rho = a ** (1.0 / 3.0)
        exact = np.array([rho**2, rho, 1.0]) / (rho**2 + rho + 1.0)
        # within the solver's stopping tolerance, 1e-12
        assert sol.lam == pytest.approx(rho, abs=1e-12)
        assert np.abs(sol.nu.as_vector((1, 2, 3)) - exact).max() <= 1e-12
        assert sol.residual <= 1e-13

    def test_disconnected_window_rejected(self):
        # 1 <-> 2 and 3 alone: neither side reaches the other;
        # P = [[0.25, 0.25, 0], [0.5, 0.25, 0], [0, 0, 0.5]]
        d = uniformize(
            build_finite({(1, 2): 0.25, (1, 0): 0.5, (2, 1): 0.5, (2, 0): 0.25, (3, 0): 0.5}),
            rate=1.0,
        )
        with pytest.raises(NotIrreducible):
            solve_qsd_discrete(d)

    def test_one_way_window_rejected(self):
        # 1 -> 2 but never back: reachable forward, not backward; P = [[0.25, 0.25], [0, 0.5]]
        d = uniformize(build_finite({(1, 2): 0.25, (1, 0): 0.5, (2, 0): 0.5}), rate=1.0)
        with pytest.raises(NotIrreducible):
            solve_qsd_discrete(d)

    @pytest.mark.parametrize("name", ["two-state", "bd:1,2,30", "multi-jump", "large"])
    @pytest.mark.parametrize("scale", [None, 1.5])
    def test_mapped_from_the_continuous_solve(self, name, scale, tmp_path):
        # P = I + Q/r keeps the left Perron vector: the discrete solution is the
        # generator's on the same window, eigenvalue, theta and residual mapped
        if name == "multi-jump":
            m = read_model_file(multi_jump_model_file(tmp_path))
        elif name == "large":  # not a two-way path: the inverse route
            m = read_model_file(large_model_file(tmp_path, 250))
        else:
            m = resolve_model(name)
        d = uniformize(m, rate=None if scale is None else scale * m.max_total_rate(m.states))
        r = d.rate
        cont, disc = solve_qsd_power(m), solve_qsd_discrete(d)
        assert disc.nu == cont.nu and disc.iterations == cont.iterations
        assert disc.meta["solver"] == cont.meta["solver"]
        assert disc.lam == 1.0 + cont.lam / r
        assert abs(disc.theta - theta_of(m, disc.nu) / r) <= 1e-9
        assert disc.residual == qsd_residual(m, disc.nu).sup_norm / r
        assert disc.residual <= 1e-10

    def test_theta_from_kill_column(self, t2):
        # the kill probability per step, times the rate, is the continuous theta
        d = uniformize(t2, rate=2.0)
        sol = solve_qsd_discrete(d)
        assert 2.0 * sol.theta == pytest.approx(-T2_LAMBDA, abs=1e-9)


def bd12_minimal_defects(nu):
    """What tells nu apart from the minimal QSD of bd:1,2 beyond the fixed-point residual.

    Every nu_theta with 0 < theta <= theta* is a QSD of the walk, so its
    residual is small as well; theta_of and the tail ratio nu(x+1)/nu(x) =
    r (x+1)/x single out nu*.
    """
    defects = []
    if abs(theta_of(resolve_model("bd:1,2"), nu) - BD12_THETA_STAR) > 1e-12:
        defects.append("theta")
    if abs(nu.mass(41) / nu.mass(40) - BD12_RATIO * 41 / 40) > 1e-12:
        defects.append("tail")
    return defects


def bd12_nu_theta(theta):
    """The QSD of bd:1,2 at 0 < theta < theta*: nu(x) ~ r2^x - r1^x, r1 < r2 the roots of
    2 r^2 - (3 - theta) r + 1 = 0."""
    disc = math.sqrt((3.0 - theta) ** 2 - 8.0)
    r1, r2 = (3.0 - theta - disc) / 4.0, (3.0 - theta + disc) / 4.0
    return Distribution.from_weights({x: r2**x - r1**x for x in range(1, 300)})


class TestMinimalReference:
    def test_galton_watson_is_geometric(self):
        m = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        sol = minimal_qsd_reference(m)
        # the minimal QSD of the binary-split chain: geometric(b/d)
        exact = Distribution.from_weights({n: 0.5**n for n in range(1, 200)})
        assert tv_distance(sol.nu, exact) <= 1e-14
        assert sol.theta == pytest.approx(1.0, abs=1e-12)  # d - b
        assert sol.residual <= 1e-12
        assert (sol.iterations, sol.meta["solver"]) == (0, "exact")

    def test_finite_model_returns_directly(self, t2, t2_oracle):
        sol = minimal_qsd_reference(t2)
        assert tv_distance(sol.nu, t2_oracle.nu) <= 1e-12

    def test_drifted_walk_is_van_doorn(self):
        m = build_birth_death(BirthDeathSpec(1.0, 2.0))
        sol = minimal_qsd_reference(m)
        assert sol.theta == pytest.approx(BD12_THETA_STAR, abs=1e-12)
        assert sol.lam == -sol.theta
        assert sol.residual <= 1e-12
        assert bd12_minimal_defects(sol.nu) == []
        # cut where the mass left, r^K (1 + K (1 - r)), falls below MASS_EPS = 1e-15
        K, r = sol.truncation, BD12_RATIO
        assert r**K * (1 + K * (1 - r)) < 1e-15 <= r ** (K - 1) * (1 + (K - 1) * (1 - r))
        assert (sol.iterations, sol.meta["solver"]) == (0, "exact")

    def test_other_qsds_pass_the_residual_but_not_the_minimal_checks(self):
        nu = bd12_nu_theta(0.15)
        assert qsd_residual(resolve_model("bd:1,2"), nu).sup_norm <= 1e-12
        assert bd12_minimal_defects(nu) == ["theta", "tail"]

    @pytest.mark.parametrize("name, match", [
        ("bd:2,1", "bd:2.0,1.0: no minimal QSD"),
        ("bd:1,1", "bd:1.0,1.0: no minimal QSD"),
        ("bd:0.9999,1", "bd:0.9999,1.0: .* past 100000 states"),
    ], ids=["drifts-away", "null-recurrent", "too-wide-to-list"])
    def test_undeclared_infinite_model_raises(self, name, match):
        with pytest.raises(NoMinimalQsd, match=match):
            minimal_qsd_reference(resolve_model(name))
