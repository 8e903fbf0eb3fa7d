import math

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
    resolve_model,
    solve_qsd_discrete,
    solve_qsd_power,
    theta_of,
    tv_distance,
    uniformize,
)
from qsdsim.errors import NoConvergence, NoStabilization, NotIrreducible
from qsdsim.models import DiscreteChainModel

from conftest import T2_LAMBDA, T2_NU1


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

    def test_no_convergence_reports_gap(self, t2):
        with pytest.raises(NoConvergence) as err:
            solve_qsd_power(t2, max_iters=3)
        assert err.value.last_gap is not None

    def test_gap_log_is_eventually_decreasing(self, t2):
        sol = solve_qsd_power(t2)
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


class TestPowerKernel:
    def test_raw_matvec_matches_matmul_bitwise(self):
        mat = sp.random(300, 300, density=0.02, format="csr", random_state=3)
        v = np.random.default_rng(4).random(300)
        w = np.full(300, np.nan)
        w.fill(0.0)
        csr_matvec(300, 300, mat.indptr, mat.indices, mat.data, v, w)
        assert w.tobytes() == (mat @ v).tobytes()

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_qsd_power(build_birth_death(BirthDeathSpec(1.0, 2.0)), truncation=200),
            lambda: solve_qsd_power(build_galton_watson(GaltonWatsonSpec(1.0, 2.0)), truncation=100),
            lambda: solve_qsd_discrete(uniformize(resolve_model("bd:1,2,100"))),
        ],
        ids=["bd12-K200", "gw12-K100", "discrete-bd12-100"],
    )
    def test_left_power_matches_reference_loop(self, solve, monkeypatch):
        mat_t, start, tol, max_iters = _power_inputs(monkeypatch, solve)
        v, rho, iters, gaps = oracle._left_power(mat_t, start, tol, max_iters)
        v_ref, rho_ref, iters_ref, gaps_ref = reference_left_power(mat_t, start, tol, max_iters)
        assert v.tobytes() == v_ref.tobytes()
        assert rho == rho_ref
        assert iters == iters_ref
        head = oracle.GAP_HEAD
        assert gaps[:head] == gaps_ref[:head]
        assert gaps[-1] == gaps_ref[-1]

    def test_no_convergence_gap_matches_reference(self, monkeypatch):
        # drift is far above tol after 100 steps, so the last gap is computed after the loop
        model = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=50)
        mat_t, start, tol, _ = _power_inputs(monkeypatch, lambda: solve_qsd_power(model))
        with pytest.raises(NoConvergence) as err:
            oracle._left_power(mat_t, start, tol, 100)
        with pytest.raises(NoConvergence) as ref:
            reference_left_power(mat_t, start, tol, 100)
        assert err.value.last_gap == ref.value.last_gap

    def test_gap_log_is_bounded(self):
        sol = solve_qsd_power(build_birth_death(BirthDeathSpec(1.0, 2.0)), truncation=200)
        gaps = sol.meta["gap_log"]
        assert sol.iterations > 2 * oracle.GAP_HEAD
        assert len(gaps) <= 2 * oracle.GAP_HEAD
        assert gaps[-1] < 1e-12


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
