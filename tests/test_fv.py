import math
from itertools import zip_longest

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
    read_model_file,
    resolve_model,
    tv_distance,
)
from qsdsim.errors import DeadConfig, NegativeRate
from qsdsim.fv import FV_EVENT_CAP, _RateIndex, _fv_events
from qsdsim.returnproc import coupled_tagged_run, fv_run_graphical
from qsdsim.rng import TAG_EVENTS, TAG_INIT

from conftest import (
    ReferenceFv, _ReferenceRateIndex, check_consistency, fv_event, move, multi_jump_model_file,
    two_sample_chi2_pvalue,
)


class TestParticleConfig:
    def test_occupancy_and_rates(self, t2):
        cfg = ParticleConfig(t2, [1, 1, 2])
        assert cfg.occupancy == {1: 2, 2: 1}
        assert cfg.index.total == pytest.approx(2 * 2.0 + 1 * 1.0)
        assert cfg.empirical() == Distribution.from_weights({1: 2, 2: 1})

    def test_occupancy_is_a_read_only_view_of_the_lists(self, t2):
        cfg = ParticleConfig(t2, [1, 1, 2])
        move(cfg, 2, 1)
        assert cfg.occupancy == {1: 3, 2: 0}  # a state the particles left reads 0
        with pytest.raises(TypeError):
            cfg.occupancy[2] = 1
        assert cfg.members[2] == []

    def test_needs_two_particles(self, t2):
        with pytest.raises(ValueError):
            ParticleConfig(t2, [1])

    def test_no_absorbing_start(self, t2):
        with pytest.raises(ValueError):
            ParticleConfig(t2, [0, 1])

    def test_move_bookkeeping(self, t2):
        cfg = ParticleConfig(t2, [1, 1, 2, 2, 2])
        move(cfg, 0, 2)
        move(cfg, 4, 1)
        move(cfg, 1, 1)  # null move
        assert cfg.occupancy == {1: 2, 2: 3}
        assert sorted(cfg.positions) == [1, 1, 2, 2, 2]
        check_consistency(cfg)


class TestParticleConfigBuild:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 9, 33, 64, 65, 100])
    def test_bulk_tree_is_the_leaf_by_leaf_tree(self, size):
        # building bottom-up gives the floats, slots and size that setting
        # the leaves one at a time on a one-leaf tree gives
        gen = np.random.default_rng(size)
        states = [int(x) for x in gen.permutation(np.arange(1, 3 * size + 1))[:size]]
        weights = {x: float(w) for x, w in zip(states, gen.exponential(size=size) * 1e3 / 7)}
        ref = _ReferenceRateIndex(cap=1)
        for x, w in weights.items():
            ref.set_weight(x, w)
        index = _RateIndex(weights)
        assert (index.cap, index.tree) == (ref.cap, ref.tree)
        assert (index.slot_of, index.state_of) == (ref.slot_of, ref.state_of)

    @pytest.mark.parametrize("positions", [
        [2, 2], [3] * 50, [1, 2], [2, 1, 1, 2, 2, 1], [5, 3, 5, 1, 3, 3, 8, 1, 2, 5],
        list(range(40, 0, -1)),
    ])
    def test_per_state_build_matches_the_per_particle_build(self, positions):
        model = resolve_model("bd:1,2,50")
        ref = ReferenceFv(model, positions, RngStream(0))
        cfg = ParticleConfig(model, positions)
        assert list(cfg.occupancy.items()) == list(ref.occupancy.items())
        assert list(cfg.members.items()) == list(ref.members.items())
        assert cfg.where == ref.where
        leaves = ref.index.tree[ref.index.cap : ref.index.cap + len(ref.index.slot_of)]
        assert cfg.index.tree[cfg.index.cap : cfg.index.cap + len(cfg.index.slot_of)] == leaves
        assert cfg.index.slot_of == ref.index.slot_of
        assert cfg.index.total == ref.index.tree[1]

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 1000])
    def test_empirical_is_the_normalized_counts(self, n):
        gen = np.random.default_rng(n)
        positions = gen.integers(1, 12, size=n).tolist()
        cfg = ParticleConfig(resolve_model("bd:1,2,12"), positions)
        cfg.members[12] = []  # a state the particles left
        got = cfg.empirical()
        want = Distribution.from_weights(cfg.occupancy)
        assert got.support == want.support
        assert list(got.items()) == list(want.items())
        assert got == want

    def test_two_atom_law_places_the_sampled_positions(self, t2):
        law = Distribution({1: 0.3, 2: 0.7})
        rng = RngStream(21, (4,))
        cfg = ParticleConfig.from_distribution(t2, law, 40, rng)
        drawn = law.sample_many(rng.child(TAG_INIT).generator(), 40).tolist()
        assert cfg.positions == drawn
        assert set(drawn) == {1, 2}

    def test_point_mass_places_every_particle_there(self, t2):
        cfg = ParticleConfig.from_distribution(t2, Distribution.delta(2), 30, RngStream(5))
        sampled = Distribution.delta(2).sample_many(RngStream(5, (TAG_INIT,)).generator(), 30)
        assert cfg.positions == sampled.tolist() == [2] * 30


class TestStreamsOpened:
    """A point mass opens no ``TAG_INIT`` stream; every replica still opens its events."""

    @pytest.fixture
    def opened(self, monkeypatch):
        paths = []
        generator = RngStream.generator

        def spy(stream):
            paths.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", spy)
        return paths

    def test_fv_run(self, t2, opened):
        fv_run(t2, Distribution.delta(2), 1.0, [0.5, 1.0], RngStream(3, (9,)), n=20)
        assert opened == [(9, TAG_EVENTS)]

    def test_fv_run_two_atoms_opens_init(self, t2, opened):
        fv_run(t2, Distribution({1: 0.5, 2: 0.5}), 1.0, [1.0], RngStream(3, (9,)), n=20)
        assert opened == [(9, TAG_INIT), (9, TAG_EVENTS)]

    def test_fv_stationary(self, t2, opened):
        fv_stationary(t2, 20, 1.0, 3.0, RngStream(3, (9,)))
        fv_stationary(t2, 20, 1.0, 3.0, RngStream(3, (9,)), init=Distribution.delta(2))
        assert opened == [(9, TAG_EVENTS)] * 2

    def test_graphical_engine(self, t2, opened):
        fv_run_graphical(t2, 10, Distribution.delta(2), 1.0, [1.0], RngStream(3, (9,)))
        coupled_tagged_run(t2, 10, Distribution.delta(2), 1.0, RngStream(3, (8,)))
        assert opened == [(9, TAG_EVENTS), (8, TAG_EVENTS)]

    def test_graphical_engine_two_atoms_opens_init(self, t2, opened):
        fv_run_graphical(t2, 10, Distribution({1: 0.5, 2: 0.5}), 1.0, [1.0], RngStream(3, (9,)))
        assert opened == [(9, TAG_INIT), (9, TAG_EVENTS)]

    def test_correlation_probe(self, t2, opened):
        correlation_probe(t2, 10, 0.5, 1, 2, 100, RngStream(3), init=Distribution.delta(2))
        assert opened == [(r, TAG_EVENTS, TAG_EVENTS) for r in range(100)]


class TestFvStep:
    def test_point_model_stays_delta(self, t1):
        cfg = ParticleConfig(t1, [1] * 10)
        for _ in range(50):
            dt = fv_event(cfg, RngStream(1, (_,)))[0]
            assert dt > 0
        assert cfg.empirical() == Distribution.delta(1)

    def test_two_particle_revival_target(self, t2):
        # both particles at 1: a revival must land back at 1
        cfg = ParticleConfig(t2, [1, 1])
        assert cfg.index.total == pytest.approx(4.0)
        for k in range(30):
            _, _, _, target, revived = fv_event(cfg, RngStream(2, (k,)))
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
            _, _, source, target, revived = fv_event(cfg, RngStream(3, (k,)))
            if revived and source == 1 and target == 2:
                hits += 1
        p = hits / n
        assert p == pytest.approx(1.0 / 3.0, abs=3 * math.sqrt(p * (1 - p) / n))

    def test_dead_config(self):
        model = build_finite({(1, 2): 1.0})  # state 2 is inert
        cfg = ParticleConfig(model, [2, 2])
        with pytest.raises(DeadConfig):
            fv_event(cfg, RngStream(0))

    def test_aggregate_rate_that_overflows(self):
        # each particle's rate 1.6e303 is finite, 10^6 of them are not
        model = resolve_model("gw:1e302,1.5e303")
        with pytest.raises(NegativeRate, match="aggregate rate of 1000000 particles overflows"):
            fv_run(model, Distribution.delta(1), 1.0, [1.0], RngStream(1), n=10**6)


class TestFvRun:
    def test_point_trace(self, t1):
        tr = fv_run(t1, Distribution.delta(1), 5.0, [1.0, 3.0, 5.0], RngStream(4), n=10)
        assert all(m == Distribution.delta(1) for m in tr.measures)
        assert tr.events >= tr.revivals

    @pytest.mark.parametrize("grid, horizon", [
        ([], 1.0), ([0.5, 0.5], 1.0), ([0.6, 0.5], 1.0), ([-0.1, 0.5], 1.0), ([0.5, 1.5], 1.0),
        ([math.nan], 1.0), ([0.5, math.nan], 1.0), ([math.nan, 0.5], 1.0), ([0.5], math.nan),
    ])
    def test_bad_grid_is_rejected_before_any_event(self, t2, grid, horizon):
        # a NaN end time would let the kernel run to its event cap; both
        # engines check the grid with the same helper
        with pytest.raises(ValueError, match="grid must be"):
            fv_run(t2, Distribution.delta(2), horizon, grid, RngStream(1), n=5, event_cap=10)
        with pytest.raises(ValueError, match="grid must be"):
            fv_run_graphical(t2, 5, Distribution.delta(2), horizon, grid, RngStream(1), event_cap=10)

    @pytest.mark.parametrize("name, positions", [("bd:5,1,2", [1, 2]), ("bd:5,1,4", [1, 2, 3])])
    def test_config_of_another_model_is_refused(self, t2, name, positions):
        # run under two-state, the first would start on bd's leaf weights and
        # the second would meet a state two-state lacks
        cfg = ParticleConfig(resolve_model(name), positions)
        for run in (lambda: fv_run(t2, cfg, 1.0, [1.0], RngStream(1)),
                    lambda: fv_stationary(t2, 3, 0.1, 1.0, RngStream(1), init=cfg)):
            with pytest.raises(ValueError, match=r"AbsorbedChainModel\(name='bd:5\.0,1\.0"):
                run()
        assert cfg.positions == positions

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
        events = revivals = 0
        for _, _, _, _, revived in _fv_events(cfg, rng, 4.0, FV_EVENT_CAP):
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


@pytest.mark.parametrize("name, positions, until, seed", [
    ("two-state", [1, 2], 150.0, 1),  # N=2: every revival repeats its rejection draw half the time
    ("bd:1,2,50", [1] * 20, 20.0, 2),
    ("gw:1,2", [80] * 10, 6.0, 3),  # visits 83 states, past the reference's 64 leaves
    ("multi-jump", list(range(1, 13)), 30.0, 4),
])
def test_kernel_matches_reference_stepper(name, positions, until, seed, tmp_path):
    # the one-loop kernel against the stepper it replaced, event by event:
    # the same events, the same tree total bit for bit, and valid indexes
    if name == "multi-jump":
        model = read_model_file(multi_jump_model_file(tmp_path))
    else:
        model = resolve_model(name)
    rng = RngStream(seed)
    ref = ReferenceFv(model, positions, rng)
    cfg = ParticleConfig(model, positions)
    events = revivals = 0
    for mine, theirs in zip_longest(_fv_events(cfg, rng, until, FV_EVENT_CAP),
                                    ref.events(until)):
        assert mine == theirs
        check_consistency(cfg)
        assert cfg.index.total == ref.index.tree[1]
        events += 1
        revivals += mine[4]
    assert cfg.positions == ref.positions
    assert cfg.occupancy == ref.occupancy
    assert ref.drawn > 64 + 128 + 256  # the run spans three refills
    assert events > 100 and revivals > 0
    if name == "gw:1,2":
        assert ref.index.cap > 64


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
