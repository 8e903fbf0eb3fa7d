import math

import numpy as np
import pytest

from qsdsim import (
    BirthDeathSpec,
    Distribution,
    build_birth_death,
    evolve_conditioned,
    qsd_residual,
    read_model_file,
    resolve_model,
    theta_of,
    tv_distance,
)
from qsdsim import conditioned
from qsdsim.chain import aligned_zeros
from qsdsim.conditioned import DENSE_WINDOW_LIMIT, _window_operator
from qsdsim.errors import TruncationLeak

from conftest import (
    conditional_law_t2, expm_window_law, multi_jump_model_file, poisson_tail, reference_conditioned,
    reference_series, reference_step_matrix, same_bits,
)


def _default_run(model, init, horizon, **kw):
    """The flow on the model's whole (finite) window at the default step."""
    K = max(model.states)
    return evolve_conditioned(model, Distribution.delta(init), horizon, None, K, **kw)


class TestEvolveConditioned:
    def test_point_mass_is_stationary(self, t1):
        path = evolve_conditioned(t1, Distribution.delta(1), 5.0, 0.05, 1)
        for t in (0.0, 1.0, 5.0):
            assert path.distribution_at(t) == Distribution.delta(1)

    def test_long_time_limit_is_qsd(self, t2, t2_oracle):
        path = evolve_conditioned(t2, Distribution.delta(2), 8.0, 0.01, 2)
        assert tv_distance(path.final, t2_oracle.nu) <= 1e-6

    def test_matches_matrix_exponential(self, t2):
        path = evolve_conditioned(t2, Distribution.delta(2), 1.0, 1e-3, 2)
        exact = conditional_law_t2(1.0)
        got = path.final.as_vector((1, 2))
        assert np.abs(got - exact).max() <= 1e-12

    @pytest.mark.parametrize("name, init, horizon", [
        ("two-state", 2, 5.0), ("bd:1,2,200", 1, 2.0), ("bd:0.6,1.7,40", 1, 3.0),
        ("multi-jump", 1, 1.0),
    ])
    def test_matches_scipy_expm(self, name, init, horizon, tmp_path):
        if name == "multi-jump":
            model = read_model_file(multi_jump_model_file(tmp_path))
        else:
            model = resolve_model(name)
        K = max(model.states)
        path = _default_run(model, init, horizon)
        exact, _ = expm_window_law(model, Distribution.delta(init), horizon, K)
        assert np.abs(path.masses[-1] - exact).max() <= 1e-12
        # between snapshots too: at the default step h = 0.1/Lambda a linear
        # interpolation would be off by about (Lambda h)^2 / 8
        h = path.meta["step"]
        for t in (0.37 * h, 0.4137 * horizon, horizon - 0.61 * h):
            assert not np.isclose(path.times, t).any()
            exact, _ = expm_window_law(model, Distribution.delta(init), t, K)
            assert np.abs(path.vector_at(t) - exact).max() <= 1e-12

    def test_read_far_from_a_snapshot(self, t2):
        # kept at 0 and 400 only: one Poisson series over Lambda t = 755 would
        # start at exp(-755) = 0; sub-steps of the path's own step do not
        path = evolve_conditioned(t2, Distribution.delta(2), 400.0, None, 2, grid_dt=400.0)
        assert path.times.tolist() == [0.0, 400.0]
        v = path.vector_at(377.7)
        exact, _ = expm_window_law(t2, Distribution.delta(2), 377.7, 2)
        assert np.isfinite(v).all()
        assert np.abs(v - exact).max() <= 1e-12

    def test_step_matrix_matches_series_route(self, monkeypatch):
        # 30 states and 60 steps: the dense step matrix; a CSR window runs the series each step
        model = resolve_model("bd:1,2,30")
        matrix = evolve_conditioned(model, Distribution.delta(1), 2.0, None, 30, grid_dt=0.13)
        monkeypatch.setattr(conditioned, "DENSE_WINDOW_LIMIT", 0)
        series = evolve_conditioned(model, Distribution.delta(1), 2.0, None, 30, grid_dt=0.13)
        assert round(2.0 / matrix.meta["step"]) == 60
        assert np.array_equal(matrix.times, series.times)
        assert np.abs(matrix.masses - series.masses).max() <= 1e-14

    def test_semigroup_property(self, t2):
        full = evolve_conditioned(t2, Distribution.delta(2), 2.0, 1e-3, 2)
        half = evolve_conditioned(t2, Distribution.delta(2), 1.0, 1e-3, 2)
        rest = evolve_conditioned(t2, half.final, 1.0, 1e-3, 2)
        assert tv_distance(full.final, rest.final) <= 1e-7

    def test_tail_bound_holds(self, t2, monkeypatch):
        path = evolve_conditioned(t2, Distribution.delta(2), 2.0, 1e-3, 2)
        steps = round(path.horizon / path.meta["step"])
        x = t2.max_total_rate((1, 2)) * path.meta["step"]
        assert steps * poisson_tail(x, path.meta["terms"]) <= path.meta["tail_bound"] <= 1e-12
        # a coarse tail tolerance makes the truncation error visible: the
        # normalized law is then off by at most 2 tail_bound / survival
        monkeypatch.setattr(conditioned, "TAIL_TOL", 1e-6)
        coarse = evolve_conditioned(t2, Distribution.delta(2), 2.0, 1e-3, 2)
        assert coarse.meta["terms"] < path.meta["terms"]
        exact, survival = expm_window_law(t2, Distribution.delta(2), 2.0, 2)
        err = np.abs(coarse.masses[-1] - exact).sum()
        assert 1e-12 < err <= 2.0 * coarse.meta["tail_bound"] / survival

    def test_csr_window_matches_dense(self, monkeypatch):
        model = resolve_model("bd:1,2,500")
        assert len(model.states) > DENSE_WINDOW_LIMIT
        sparse = _default_run(model, 1, 0.5, grid_dt=0.1)
        monkeypatch.setattr(conditioned, "DENSE_WINDOW_LIMIT", 500)
        dense = _default_run(model, 1, 0.5, grid_dt=0.1)
        assert np.array_equal(sparse.times, dense.times)
        assert np.abs(sparse.masses - dense.masses).max() <= 1e-12

    def test_step_limit_enforced(self, t2):
        with pytest.raises(ValueError, match="step"):
            evolve_conditioned(t2, Distribution.delta(2), 1.0, 0.2, 2)

    def test_truncation_leak_detected(self):
        # strong upward drift piles mass against the cut: must be flagged
        model = build_birth_death(BirthDeathSpec(3.0, 1.0))
        with pytest.raises(TruncationLeak):
            evolve_conditioned(model, Distribution.delta(10), 8.0, 0.02, 12)

    def test_interpolation_stays_normalized(self, t2):
        path = evolve_conditioned(t2, Distribution.delta(2), 1.0, 0.01, 2)
        for t in np.linspace(0, 1, 37):
            v = path.vector_at(float(t))
            assert abs(v.sum() - 1.0) <= 1e-9

    def test_window_operator_rows_balance(self, t2):
        # columns of the transposed generator sum to -(absorption rate)
        qt, near = _window_operator(t2, (1, 2))
        assert np.allclose(qt.sum(axis=0), [-t2.absorb_rate(x) for x in (1, 2)])
        assert near.size == 0  # finite model, nothing dropped

    @pytest.mark.parametrize("name, K, near_states", [
        ("bd:1,2", 5, [4, 5]),
        ("multi-jump", 9, [1, 4, 5, 6, 8, 9]),  # 5 -> 11 and 9 -> 10 leave; 1, 4, 6, 8 feed them
    ])
    def test_window_operator_near_boundary(self, name, K, near_states, tmp_path):
        if name == "multi-jump":
            model = read_model_file(multi_jump_model_file(tmp_path))
        else:
            model = resolve_model(name)
        states = model.state_window(K)
        qt, near = _window_operator(model, states)
        assert [states[i] for i in near] == near_states
        # a dropped jump stays in the diagonal: those columns leak past absorption
        leak = -np.asarray(qt).sum(axis=0) - [model.absorb_rate(x) for x in states]
        assert [x for x, v in zip(states, leak) if v > 1e-12] == [
            x for x in states if any(y not in states for y, _ in model.transitions(x))
        ]


class TestSharedGridReads:
    """Grid times inside a step, read from the step's powers, keep every bit of a
    series of their own run from the step's start."""

    # (model, horizon, dense window limit): 60 steps on 30 states build the step
    # matrix, 21 steps (or 12 on the 12 multi-jump states) run the dense series,
    # and a limit of 0 runs CSR
    ROUTES = {
        "step-matrix": ("bd:1,2,30", 2.0, DENSE_WINDOW_LIMIT),
        "dense-series": ("bd:1,2,30", 0.7, DENSE_WINDOW_LIMIT),
        "csr": ("bd:1,2,30", 2.0, 0),
        "multi-jump-series": ("multi-jump", 0.5, DENSE_WINDOW_LIMIT),
    }

    @pytest.mark.parametrize("grid", [None, 0.01, 0.05, 0.1, 0.0123, 5.0],
                             ids=["step", "finer", "coarser", "on-steps", "off", "horizon"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_reads_match_one_series_per_read(self, route, grid, monkeypatch, tmp_path):
        name, horizon, limit = self.ROUTES[route]
        monkeypatch.setattr(conditioned, "DENSE_WINDOW_LIMIT", limit)
        if name == "multi-jump":
            model = read_model_file(multi_jump_model_file(tmp_path))
        else:
            model = resolve_model(name)
        K = max(model.states)
        path = _default_run(model, 1, horizon, grid_dt=grid)
        times, masses = reference_conditioned(model, Distribution.delta(1), horizon, K, grid)
        assert np.array_equal(path.times, times)
        assert same_bits(path.masses, masses)
        h = path.meta["step"]
        assert (limit > 0 and K < round(horizon / h)) == (route == "step-matrix")
        inside = np.abs(times / h - np.round(times / h)) > 1e-6
        if grid in (0.01, 0.05, 0.0123):
            assert inside.any()
        elif name != "multi-jump":  # its step is not 1/30, so 0.1 is off its steps
            assert not inside.any()

    def test_read_weights_longer_than_the_step(self):
        # a longer read list runs the powers past the step's own terms
        model = resolve_model("bd:1,2,30")
        states = model.state_window(30)
        qt, _ = _window_operator(model, states)
        rate = model.max_total_rate(states)
        short, _ = conditioned._poisson_weights(0.01)
        long, _ = conditioned._poisson_weights(0.3)
        assert len(long) > len(short)
        v = np.random.default_rng(5).random(len(states))
        a, b, c = conditioned._series(qt, rate, [short, long, short], v)
        assert same_bits(a, reference_series(qt, rate, short, v))
        assert same_bits(b, reference_series(qt, rate, long, v))
        assert same_bits(c, a)
        assert same_bits(conditioned._series(qt, rate, [long, short], v)[1], a)


@pytest.mark.parametrize("x", [0.0, 0.1, 1.9, 2.0, 2.5, 5.0, 30.0])
def test_poisson_weights_cover_the_law(x):
    # the ratio bound on the tail holds only once the terms fall (K + 2 > x)
    w, tail = conditioned._poisson_weights(x)
    assert 0.0 <= tail <= conditioned.TAIL_TOL
    assert math.fsum(w) + tail >= 1.0 - 1e-15
    assert len(w) + 1 > x


class TestAlignedOperator:
    @pytest.mark.parametrize("name", ["two-state", "bd:1,2,200", "bd:1,2,400"])
    def test_dense_operators_start_on_a_cache_line(self, name):
        model = resolve_model(name)
        b = model.live_block(model.state_window(max(model.states)))
        n = len(b.states)
        qt = b.generator_t(True)
        plain = np.zeros((n, n))
        span = np.arange(n)
        np.add.at(plain, (np.concatenate([b.dst, span]), np.concatenate([b.src, span])),
                  np.concatenate([b.rate, -b.total]))
        assert qt.ctypes.data % 64 == 0 and qt.flags.c_contiguous
        assert same_bits(qt, plain)
        rate = model.max_total_rate(b.states)
        w, _ = conditioned._poisson_weights(0.1)
        mat = conditioned._step_matrix(qt, rate, w)
        assert mat.ctypes.data % 64 == 0 and mat.flags.c_contiguous
        assert same_bits(mat, reference_step_matrix(plain, rate, w))

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (3, 5), (7, 7)])
    def test_aligned_zeros(self, shape):
        for _ in range(8):  # several allocations, so several malloc offsets
            a = aligned_zeros(shape)
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert a.ctypes.data % 64 == 0 and not a.any()


class TestResidualAndTheta:
    def test_t1_residual_zero(self, t1):
        r = qsd_residual(t1, Distribution.delta(1))
        assert r.sup_norm == 0.0

    def test_oracle_is_fixed_point(self, t2, t2_oracle):
        assert qsd_residual(t2, t2_oracle.nu).sup_norm <= 1e-10

    def test_uniform_residual_hand_value(self, t2):
        r = qsd_residual(t2, Distribution.uniform([1, 2]))
        assert r.values[1] == pytest.approx(-0.25, abs=1e-12)
        assert r.values[2] == pytest.approx(0.25, abs=1e-12)
        assert r.sup_norm > 0.1

    def test_theta_values(self, t1, t2, t2_oracle):
        assert theta_of(t1, Distribution.delta(1)) == 1.0
        assert theta_of(t2, Distribution.uniform([1, 2])) == 0.5
        assert theta_of(t2, t2_oracle.nu) == pytest.approx(0.3819660112501051, abs=1e-9)

    def test_residual_covers_one_step_neighborhood(self):
        # mass only at state 1, but state 2 is reachable: the residual must
        # report the inflow defect there
        import qsdsim

        t2 = qsdsim.resolve_model("two-state")
        r = qsd_residual(t2, Distribution.delta(1))
        assert set(r.values) == {1, 2}
        assert r.values[2] == pytest.approx(1.0, abs=1e-12)
