import math

import numpy as np
import pytest

from qsdsim import (
    Distribution,
    GaltonWatsonSpec,
    ParticleConfig,
    RngStream,
    build_finite,
    build_galton_watson,
    correlation_probe,
    fv_run,
    fv_stationary,
    tv_distance,
)
from qsdsim.errors import DeadConfig
from qsdsim.fv import FV_EVENT_CAP, _fv_events
from qsdsim.rng import TAG_EVENTS, UniformBlock

from conftest import check_consistency, fv_event, two_sample_chi2_pvalue


class TestParticleConfig:
    def test_occupancy_and_rates(self, t2):
        cfg = ParticleConfig(t2, [1, 1, 2])
        assert cfg.occupancy == {1: 2, 2: 1}
        assert cfg.aggregate_rate == pytest.approx(2 * 2.0 + 1 * 1.0)
        assert cfg.empirical() == Distribution.from_weights({1: 2, 2: 1})

    def test_needs_two_particles(self, t2):
        with pytest.raises(ValueError):
            ParticleConfig(t2, [1])

    def test_no_absorbing_start(self, t2):
        with pytest.raises(ValueError):
            ParticleConfig(t2, [0, 1])

    def test_move_bookkeeping(self, t2):
        cfg = ParticleConfig(t2, [1, 1, 2, 2, 2])
        cfg.move(0, 2)
        cfg.move(4, 1)
        cfg.move(1, 1)  # null move
        assert cfg.occupancy == {1: 2, 2: 3}
        assert sorted(cfg.positions) == [1, 1, 2, 2, 2]
        check_consistency(cfg)


class TestFvStep:
    def test_point_model_stays_delta(self, t1):
        cfg = ParticleConfig(t1, [1] * 10)
        for _ in range(50):
            dt = fv_event(cfg, t1, RngStream(1, (_,)))[0]
            assert dt > 0
        assert cfg.empirical() == Distribution.delta(1)

    def test_two_particle_revival_target(self, t2):
        # both particles at 1: a revival must land back at 1
        cfg = ParticleConfig(t2, [1, 1])
        assert cfg.aggregate_rate == pytest.approx(4.0)
        for k in range(30):
            _, _, _, target, revived = fv_event(cfg, t2, RngStream(2, (k,)))
            if revived:
                assert target == 1
                break
            cfg = ParticleConfig(t2, [1, 1])

    def test_first_event_law(self, t2):
        # from (1, 2): P(particle at 1 absorbs and lands at 2) = 2/3 * 1/2
        hits = 0
        n = 20_000
        for k in range(n):
            cfg = ParticleConfig(t2, [1, 2])
            _, _, source, target, revived = fv_event(cfg, t2, RngStream(3, (k,)))
            if revived and source == 1 and target == 2:
                hits += 1
        p = hits / n
        assert p == pytest.approx(1.0 / 3.0, abs=3 * math.sqrt(p * (1 - p) / n))

    def test_dead_config(self):
        model = build_finite({(1, 2): 1.0})  # state 2 is inert
        cfg = ParticleConfig(model, [2, 2])
        with pytest.raises(DeadConfig):
            fv_event(cfg, model, RngStream(0))


class TestFvRun:
    def test_point_trace(self, t1):
        tr = fv_run(t1, Distribution.delta(1), 5.0, [1.0, 3.0, 5.0], RngStream(4), n=10)
        assert all(m == Distribution.delta(1) for m in tr.measures)
        assert tr.events >= tr.revivals

    def test_deterministic_replay(self, t2):
        a = fv_run(t2, Distribution.delta(2), 1.0, np.linspace(0.1, 1, 10), RngStream(5), n=64)
        b = fv_run(t2, Distribution.delta(2), 1.0, np.linspace(0.1, 1, 10), RngStream(5), n=64)
        assert a.events == b.events
        assert all(x == y for x, y in zip(a.measures, b.measures))

    def test_consistency_checks_along_run(self):
        # the gw run, through the event kernel up to t=4 on fv_run's block,
        # with the indexes checked every 500 events: it is fv_run's run
        gw = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        rng = RngStream(6)
        tr = fv_run(gw, Distribution.delta(3), 4.0, [4.0], rng, n=100)
        cfg = ParticleConfig.from_distribution(gw, Distribution.delta(3), 100, rng)
        blocks = UniformBlock(rng.child(TAG_EVENTS))
        events = revivals = 0
        for _, _, _, _, revived in _fv_events(cfg, gw, blocks, 4.0, FV_EVENT_CAP):
            events += 1
            revivals += revived
            if events % 500 == 0:
                check_consistency(cfg)
        assert events > 1000
        assert (events, revivals) == (tr.events, tr.revivals)
        assert cfg.positions == tr.final.positions
        check_consistency(cfg)
        assert sum(cfg.occupancy.values()) == 100
        assert 0 not in cfg.occupancy

    def test_exchangeability(self, t2):
        # relabeling the initial particles leaves the empirical trace law
        # unchanged: compare m(1, xi(1)) across 2000 replicas per labeling
        n = 10
        init_a = [1] * 5 + [2] * 5
        init_b = [2] * 5 + [1] * 5

        def sample(init, seed_lane):
            out = []
            for r in range(2000):
                tr = fv_run(t2, ParticleConfig(t2, init), 1.0, [1.0], RngStream(7, (seed_lane, r)))
                out.append(round(tr.measures[-1].mass(1) * n))
            return out

        pval = two_sample_chi2_pvalue(sample(init_a, 0), sample(init_b, 1))
        assert pval > 0.01

    def test_generator_drift_matches_empirical_measure_equation(self, t2):
        # replica-averaged short-window drift of m(y) against
        # sum_x q(x, y) m(x) + (N/(N-1)) sum_x q(x, 0) m(x) m(y)
        n = 20
        h = 1e-3
        init = [1] * 7 + [2] * 13
        cfg0 = ParticleConfig(t2, init)
        m0 = {x: c / n for x, c in cfg0.occupancy.items()}
        expected = {}
        for y in (1, 2):
            lin = sum(_q(t2, x, y) * m0.get(x, 0.0) for x in (1, 2))
            quad = (n / (n - 1)) * sum(
                t2.absorb_rate(x) * m0.get(x, 0.0) for x in (1, 2)
            ) * m0.get(y, 0.0)
            expected[y] = lin + quad
        reps = 20_000
        drift = {1: [], 2: []}
        for r in range(reps):
            tr = fv_run(t2, ParticleConfig(t2, init), h, [h], RngStream(8, (r,)))
            m1 = tr.measures[-1]
            for y in (1, 2):
                drift[y].append((m1.mass(y) - m0.get(y, 0.0)) / h)
        for y in (1, 2):
            mean = float(np.mean(drift[y]))
            se = float(np.std(drift[y], ddof=1) / math.sqrt(reps))
            assert abs(mean - expected[y]) <= 3 * se


def _q(model, x, y):
    if x == y:
        return -model.total_rate(x)
    return dict(model.transitions(x)).get(y, 0.0)


class TestFvStationary:
    def test_point_model(self, t1):
        st = fv_stationary(t1, 10, 1.0, 5.0, RngStream(9))
        assert st == Distribution.delta(1)

    def test_t2_matches_oracle(self, t2, t2_oracle):
        st = fv_stationary(t2, 800, 20.0, 220.0, RngStream(10), init=t2_oracle.nu)
        assert tv_distance(st, t2_oracle.nu) <= 0.03

    def test_requires_horizon_after_burnin(self, t2):
        with pytest.raises(ValueError):
            fv_stationary(t2, 10, 5.0, 5.0, RngStream(0))


class TestCorrelationProbe:
    def test_point_model_zero_covariance(self, t1):
        pr = correlation_probe(t1, 50, 1.0, 1, 1, 200, RngStream(11))
        assert pr.estimate == 0.0

    def test_t2_bound(self, t2):
        pr = correlation_probe(
            t2, 100, 1.0, 1, 2, 400, RngStream(12), init=Distribution.delta(2)
        )
        assert pr.bound == pytest.approx(2.0 * math.exp(2.0) / 100.0)
        assert pr.estimate <= pr.bound + 3 * pr.stderr

    def test_bound_halves_with_n(self, t2):
        lo = correlation_probe(t2, 100, 1.0, 1, 2, 300, RngStream(13), init=Distribution.delta(2))
        hi = correlation_probe(t2, 200, 1.0, 1, 2, 300, RngStream(14), init=Distribution.delta(2))
        assert hi.bound == pytest.approx(lo.bound / 2)
        assert hi.estimate <= lo.estimate + 3 * (lo.stderr + hi.stderr)

    def test_replica_floor(self, t2):
        with pytest.raises(ValueError):
            correlation_probe(t2, 10, 1.0, 1, 2, 10, RngStream(0))
