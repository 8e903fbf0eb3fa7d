import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

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
from qsdsim.errors import NoConvergence, NoStabilization, NotIrreducible
from qsdsim.models import DiscreteChainModel

from conftest import T2_LAMBDA, T2_NU1, multi_jump_model_file

# A window that is not a two-way path (3 -> 1 skips a neighbour, 2 -> 3 is
# one-way), so the oracle runs power iteration on it.
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

    def test_no_convergence_reports_gap(self):
        with pytest.raises(NoConvergence) as err:
            solve_qsd_power(build_finite(CYCLE), max_iters=3)
        assert err.value.last_gap is not None

    def test_gap_log_is_eventually_decreasing(self):
        sol = solve_qsd_power(build_finite(CYCLE))
        assert sol.meta["solver"] == "power"
        gaps = sol.meta["gap_log"]
        tail = gaps[2:]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


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


def _power_inputs(monkeypatch, solve):
    """The (matrix, start, tol, max_iters) that a solver hands to _left_power."""
    seen = []
    real = oracle._left_power

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_left_power", spy)
    solve()
    monkeypatch.undo()
    return seen[0]


def power_matrix(model, truncation=None):
    """The transposed CSR matrix I + Q/rate that the power route iterates, and its rate."""
    finite = model.restricted(truncation if truncation is not None else max(model.states))
    b = finite.live_block()
    rate = 1.05 * finite.max_total_rate(finite.states)
    n = len(b.states)
    span = np.arange(n)
    rows = np.concatenate([span, b.dst])
    cols = np.concatenate([span, b.src])
    vals = np.concatenate([1.0 - b.total / rate, b.rate / rate])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), rate


def power_inputs(model, truncation=None):
    """The (matrix, start, tol, max_iters) of the power route at the default settings."""
    mat_t, _ = power_matrix(model, truncation)
    return mat_t, np.ones(mat_t.shape[0]), 1e-12, 200_000


class TestPowerKernel:
    def test_raw_matvec_matches_matmul_bitwise(self):
        mat = sp.random(300, 300, density=0.02, format="csr", random_state=3)
        v = np.random.default_rng(4).random(300)
        w = np.full(300, np.nan)
        w.fill(0.0)
        csr_matvec(300, 300, mat.indptr, mat.indices, mat.data, v, w)
        assert w.tobytes() == (mat @ v).tobytes()

    @pytest.mark.parametrize(
        "inputs",
        [
            lambda mp: power_inputs(build_birth_death(BirthDeathSpec(1.0, 2.0)), truncation=200),
            lambda mp: power_inputs(build_galton_watson(GaltonWatsonSpec(1.0, 2.0)), truncation=100),
            lambda mp: _power_inputs(
                mp, lambda: solve_qsd_discrete(uniformize(resolve_model("bd:1,2,100")))
            ),
        ],
        ids=["bd12-K200", "gw12-K100", "discrete-bd12-100"],
    )
    def test_left_power_matches_reference_loop(self, inputs, monkeypatch):
        mat_t, start, tol, max_iters = inputs(monkeypatch)
        v, rho, iters, gaps = oracle._left_power(mat_t, start, tol, max_iters)
        v_ref, rho_ref, iters_ref, gaps_ref = reference_left_power(mat_t, start, tol, max_iters)
        assert v.tobytes() == v_ref.tobytes()
        assert rho == rho_ref
        assert iters == iters_ref
        head = oracle.GAP_HEAD
        assert gaps[:head] == gaps_ref[:head]
        assert gaps[-1] == gaps_ref[-1]

    def test_no_convergence_gap_matches_reference(self):
        # drift is far above tol after 100 steps, so the last gap is computed after the loop
        model = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=50)
        mat_t, start, tol, _ = power_inputs(model)
        with pytest.raises(NoConvergence) as err:
            oracle._left_power(mat_t, start, tol, 100)
        with pytest.raises(NoConvergence) as ref:
            reference_left_power(mat_t, start, tol, 100)
        assert err.value.last_gap == ref.value.last_gap

    def test_gap_log_is_bounded(self):
        model = build_birth_death(BirthDeathSpec(1.0, 2.0))
        _, _, iters, gaps = oracle._left_power(*power_inputs(model, truncation=200))
        assert iters > 2 * oracle.GAP_HEAD
        assert len(gaps) <= 2 * oracle.GAP_HEAD
        assert gaps[-1] < 1e-12


def power_solution(model, truncation=None):
    """(nu, lambda) of the power route on a window, whatever route the oracle picks."""
    mat_t, rate = power_matrix(model, truncation)
    v, rho, _, _ = oracle._left_power(mat_t, np.ones(mat_t.shape[0]), 1e-12, 200_000)
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
        # exact minimal QSD of bd:1,2: nu*(x) = (1 - r)^2 x r^(x - 1), r = sqrt(1/2)
        r = BD12_RATIO
        exact = Distribution.from_weights({x: (1 - r) ** 2 * x * r ** (x - 1) for x in range(1, 400)})
        for K in BD12_WINDOWS:
            sol, _ = bd12_windows[K]
            assert 30.0 <= K**2 * tv_distance(sol.nu, exact) <= 45.0, K

    def test_multi_jump_file_takes_power_route_bit_for_bit(self, tmp_path):
        model = read_model_file(multi_jump_model_file(tmp_path))
        assert model.live_block().two_way_path is None
        sol = solve_qsd_power(model)
        assert sol.meta["solver"] == "power"
        nu, lam = power_solution(model)
        assert sol.nu == nu
        assert sol.lam == lam


class TestSolveDiscrete:
    def test_uniformized_t2(self, t2):
        sol = solve_qsd_discrete(uniformize(t2, rate=2.0))
        assert sol.lam == pytest.approx(1.0 + T2_LAMBDA / 2.0, abs=1e-10)
        assert sol.nu.mass(1) == pytest.approx(T2_NU1, abs=1e-9)
        assert sol.residual <= 1e-10

    def test_single_state(self):
        d = DiscreteChainModel((1,), np.array([[0.5]]), np.array([0.5]))
        sol = solve_qsd_discrete(d)
        assert sol.nu == Distribution.delta(1)
        assert sol.lam == pytest.approx(0.5, abs=1e-12)

    def test_periodic_two_cycle_fails_over(self):
        d = DiscreteChainModel(
            (1, 2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 0.0])
        )
        with pytest.raises(NoConvergence):
            solve_qsd_discrete(d, max_iters=500)

    def test_disconnected_window_rejected(self):
        # 1 <-> 2 and 3 alone: neither side reaches the other
        sub = np.array([[0.25, 0.25, 0.0], [0.5, 0.25, 0.0], [0.0, 0.0, 0.5]])
        d = DiscreteChainModel((1, 2, 3), sub, 1.0 - sub.sum(axis=1))
        with pytest.raises(NotIrreducible):
            solve_qsd_discrete(d)

    def test_one_way_window_rejected(self):
        # 1 -> 2 but never back: reachable forward, not backward
        sub = np.array([[0.25, 0.25], [0.0, 0.5]])
        d = DiscreteChainModel((1, 2), sub, 1.0 - sub.sum(axis=1))
        with pytest.raises(NotIrreducible):
            solve_qsd_discrete(d)

    def test_theta_from_kill_column(self, t2):
        # theta recovered as nu . kill * rate on the uniformized skeleton
        d = uniformize(t2, rate=2.0)
        sol = solve_qsd_discrete(d)
        assert 2.0 * sol.theta == pytest.approx(-T2_LAMBDA, abs=1e-9)


class TestMinimalReference:
    def test_galton_watson_stabilizes_to_geometric(self):
        m = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        sol = minimal_qsd_reference(m, schedule=(100, 200, 400))
        # exact minimal QSD of the binary-split chain: geometric(b/d)
        exact = Distribution.from_weights({n: 0.5**n for n in range(1, 200)})
        assert tv_distance(sol.nu, exact) <= 1e-9
        assert sol.theta == pytest.approx(1.0, abs=1e-8)  # d - b
        assert "minimal_qsd_convention" in sol.meta

    def test_finite_model_returns_directly(self, t2, t2_oracle):
        sol = minimal_qsd_reference(t2)
        assert tv_distance(sol.nu, t2_oracle.nu) <= 1e-12

    def test_drifted_walk_needs_loose_tolerance(self):
        m = build_birth_death(BirthDeathSpec(1.0, 2.0))
        sol = minimal_qsd_reference(m, schedule=(100, 200), tol=5e-3)
        assert sol.truncation == 200
        assert sol.theta == pytest.approx((math.sqrt(2) - 1) ** 2, abs=5e-3)

    def test_schedule_exhaustion(self):
        m = build_birth_death(BirthDeathSpec(1.0, 2.0))
        with pytest.raises(NoStabilization):
            minimal_qsd_reference(m, schedule=(50, 100), tol=1e-12)
