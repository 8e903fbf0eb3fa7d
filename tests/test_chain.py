import math
import time

import numpy as np
import pytest

from qsdsim import (
    Distribution,
    RngStream,
    build_finite,
    read_model_file,
    resolve_model,
    simulate_until_absorption,
    tv_distance,
    write_model_file,
)
from qsdsim.chain import strongly_connected
from qsdsim.errors import EventCapExceeded, ModelFormatError, NegativeRate
from qsdsim.rng import TAG_EVENTS

from conftest import T2_NU1, multi_jump_model_file


class TestDistribution:
    def test_delta(self):
        d = Distribution.delta(3)
        assert d.support == (3,)
        assert d.mass(3) == 1.0
        assert d.mass(1) == 0.0

    def test_uniform(self):
        d = Distribution.uniform([1, 2, 3, 4])
        assert d.mass(2) == 0.25

    def test_rejects_absorbing_state(self):
        with pytest.raises(ValueError):
            Distribution({0: 1.0})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Distribution({1: 1.5, 2: -0.5})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution({1: 0.6, 2: 0.6})

    def test_prunes_floating_noise(self):
        d = Distribution({1: 1.0, 2: 1e-16})
        assert d.support == (1,)

    def test_from_weights_rejects_a_sum_that_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            Distribution.from_weights({1: 1e308, 2: 1e308})
        assert Distribution.from_weights({1: 1e308, 2: 3e307}).mass(2) == 3e307 / 1.3e308

    def test_from_weights_normalizes(self):
        d = Distribution.from_weights({1: 2.0, 2: 6.0})
        assert d.mass(1) == 0.25
        assert abs(math.fsum(m for _, m in d.items()) - 1.0) <= 1e-12
        # round-off below MASS_EPS is dropped; a negative, NaN or infinite weight is an error
        assert Distribution.from_weights({1: -1e-16, 2: 1.0}) == Distribution.delta(2)
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="state 1"):
                Distribution.from_weights({1: bad, 2: 1.0})

    def test_constructors_preserve_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            states = rng.choice(np.arange(1, 40), size=rng.integers(1, 8), replace=False)
            weights = rng.random(len(states)) + 1e-3
            d = Distribution.from_weights({int(s): float(w) for s, w in zip(states, weights)})
            assert abs(math.fsum(m for _, m in d.items()) - 1.0) <= 1e-12
            assert all(m >= 0 for _, m in d.items())

    def test_sample_many_law(self):
        d = Distribution.from_weights({1: 1.0, 5: 3.0})
        draws = d.sample_many(np.random.default_rng(0), 40_000)
        assert abs((draws == 5).mean() - 0.75) < 0.01


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(Distribution.delta(1), Distribution.delta(1)) == 0.0

    def test_disjoint(self):
        assert tv_distance(Distribution.delta(1), Distribution.delta(2)) == 1.0

    def test_hand_value(self):
        a = Distribution({1: 0.5, 2: 0.5})
        b = Distribution({1: 0.382, 2: 0.618})
        assert tv_distance(a, b) == pytest.approx(0.118, abs=1e-15)

    def test_metric_properties(self):
        rng = np.random.default_rng(31)

        def random_dist():
            states = rng.choice(np.arange(1, 12), size=rng.integers(1, 6), replace=False)
            return Distribution.from_weights(
                {int(s): float(w) for s, w in zip(states, rng.random(len(states)) + 1e-6)}
            )

        for _ in range(200):
            a, b, c = random_dist(), random_dist(), random_dist()
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-14)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert tv_distance(a, a) == 0.0
            assert 0.0 <= tv_distance(a, b) <= 1.0
            if tv_distance(a, b) == 0.0:
                assert a == b


def _tv_reference(a: Distribution, b: Distribution) -> float:
    """Total variation through dict lookups: the definition, with no search."""
    da, db = a.as_dict(), b.as_dict()
    return 0.5 * math.fsum(abs(da.get(x, 0.0) - db.get(x, 0.0)) for x in set(da) | set(db))


class TestTvDistanceLargeSupport:
    def test_20k_states_match_reference_quickly(self):
        rng = np.random.default_rng(11)
        # overlapping but unequal supports, so both the shared and the one-sided terms count
        a = Distribution.from_weights({x: float(w) for x, w in zip(range(1, 20_001), rng.random(20_000))})
        b = Distribution.from_weights({x: float(w) for x, w in zip(range(5_001, 25_001), rng.random(20_000))})
        t0 = time.perf_counter()
        got = tv_distance(a, b)
        elapsed = time.perf_counter() - t0
        assert got == _tv_reference(a, b)
        assert elapsed < 1.0

    def test_mass_off_support(self):
        d = Distribution({2: 0.5, 7: 0.5})
        assert [d.mass(x) for x in (1, 2, 3, 7, 8)] == [0.0, 0.5, 0.0, 0.5, 0.0]


class TestStronglyConnected:
    @pytest.mark.parametrize("n, edges, expected", [
        (0, [], True),
        (1, [], True),
        (2, [], False),
        (3, [(0, 1), (1, 2), (2, 0)], True),
        (3, [(0, 1), (1, 2), (2, 1)], False),  # nothing leads back to 0
        (3, [(1, 0), (2, 1), (0, 2), (0, 0)], True),
        (4, [(0, 1), (1, 0), (2, 3), (3, 2)], False),
    ])
    def test_small_graphs(self, n, edges, expected):
        src = np.array([a for a, _ in edges], dtype=np.intp)
        dst = np.array([b for _, b in edges], dtype=np.intp)
        assert strongly_connected(n, src, dst) is expected


class TestLiveBlock:
    def test_entries_follow_state_then_transition_order(self, tmp_path):
        model = read_model_file(multi_jump_model_file(tmp_path))
        b = model.live_block()
        triples = [
            (b.states[i], b.states[j], r) for i, j, r in zip(b.src, b.dst, b.rate)
        ]
        assert triples == [(x, y, r) for x in model.states for y, r in model.transitions(x)]
        assert b.total.tolist() == [model.total_rate(x) for x in model.states]
        assert b.absorb.tolist() == [model.absorb_rate(x) for x in model.states]
        assert b.boundary == ()

    def test_window_of_the_full_model_keeps_dropped_jumps_in_total(self, tmp_path):
        model = read_model_file(multi_jump_model_file(tmp_path))
        window = model.state_window(9)
        full = model.live_block(window)
        restricted = model.restricted(9).live_block()
        assert full.boundary == (5, 9)
        assert restricted.boundary == ()
        assert full.src.tolist() == restricted.src.tolist()
        assert full.rate.tolist() == restricted.rate.tolist()
        i = full.index[9]
        assert full.total[i] == 0.03 + 2.1 + 0.12  # q(9, 0) + q(9, 8) + q(9, 10)
        assert restricted.total[i] == 0.03 + 2.1

    def test_finite_model_is_its_own_window(self, t2):
        bd = resolve_model("bd:1,2,50")
        for model, top in ((t2, 2), (bd, 50)):
            assert model.restricted(top) is model
            assert model.restricted(top + 7) is model
        assert bd.restricted(49) is not bd
        assert bd.restricted(49).states == tuple(range(1, 50))

    def test_cached_per_window_and_read_only(self):
        model = resolve_model("bd:1,2")
        b = model.live_block(model.state_window(5))
        assert model.live_block(range(1, 6)) is b
        assert model.live_block(model.state_window(6)) is not b
        assert b.boundary == (5,)
        with pytest.raises(ValueError):
            b.total[0] = 0.0
        with pytest.raises(ValueError, match="window"):
            model.live_block()

    def test_two_way_path_rates(self):
        b = resolve_model("gw:1,2").restricted(5).live_block()
        up, down = b.two_way_path
        assert up.tolist() == [1.0, 2.0, 3.0, 4.0]  # b n from n = 1..4
        assert down.tolist() == [4.0, 6.0, 8.0, 10.0]  # d n from n = 2..5
        assert b.two_way_path is b.two_way_path  # computed once per block
        assert strongly_connected(len(b.states), b.src, b.dst)  # what the path test stands for
        with pytest.raises(ValueError):
            up[0] = 0.0
        single = resolve_model("point").live_block()
        assert [a.size for a in single.two_way_path] == [0, 0]

    @pytest.mark.parametrize(
        "rates",
        [
            {(1, 2): 1.0, (2, 3): 1.0, (3, 2): 1.0, (1, 0): 1.0},  # 1 -> 2 one-way
            {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0, (1, 3): 0.5},  # skips 2
            {(1, 2): 1.0, (2, 1): 1.0, (3, 0): 1.0},  # 3 has no neighbour jump
        ],
        ids=["one-way", "skip", "split"],
    )
    def test_not_a_two_way_path(self, rates):
        assert build_finite(rates).live_block().two_way_path is None

    def test_zero_rate_jumps_do_not_break_a_path(self):
        rates = {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0, (1, 3): 0.0, (3, 0): 1.0}
        up, down = build_finite(rates).live_block().two_way_path
        assert up.tolist() == [1.0, 1.0] and down.tolist() == [1.0, 1.0]

    def test_multi_jump_file_is_not_a_path(self, tmp_path):
        model = read_model_file(multi_jump_model_file(tmp_path))
        assert model.live_block().two_way_path is None


class TestJumpTable:
    def test_total_that_overflows_names_the_state(self):
        # q(2, 1) = 2e308 is not a float: the table of state 2 cannot be built
        model = resolve_model("gw:1e307,1e308")
        assert model.jump_table(1)[2] == 1e307 + 1e308
        with pytest.raises(NegativeRate, match="state 2 overflows"):
            model.jump_table(2)


class TestSimulateUntilAbsorption:
    def test_t1_exit_state_and_mean(self, t1):
        taus = []
        for r in range(100_000):
            s = simulate_until_absorption(t1, Distribution.delta(1), RngStream(3, (r,)))
            assert s.exit_state == 1
            assert s.tau > 0
            taus.append(s.tau)
        assert np.mean(taus) == pytest.approx(1.0, abs=0.02)

    def test_t2_mean_from_state_2(self, t2):
        taus = [
            simulate_until_absorption(t2, Distribution.delta(2), RngStream(4, (r,))).tau
            for r in range(100_000)
        ]
        # first-step analysis: E1 = 2, E2 = 3
        assert np.mean(taus) == pytest.approx(3.0, abs=0.1)

    def test_t2_exponential_from_qsd(self, t2, t2_oracle):
        # started from the QSD the absorption time is exactly exponential
        theta = t2_oracle.theta
        assert theta == pytest.approx(T2_NU1, abs=1e-9)  # only state 1 absorbs
        taus = np.array(
            [
                simulate_until_absorption(t2, t2_oracle.nu, RngStream(5, (r,))).tau
                for r in range(100_000)
            ]
        )
        assert taus.mean() == pytest.approx(1.0 / theta, abs=0.05)
        assert np.mean(taus**2) == pytest.approx(2.0 / theta**2, abs=0.7)

    def test_wait_is_the_exponential_of_the_next_uniform(self):
        # the start takes the first uniform of the TAG_EVENTS child, the
        # wait -log1p(-u) / rate the second
        model = build_finite({(1, 0): 2.5})
        rng = RngStream(8)
        u = rng.child(TAG_EVENTS).generator().random(2)[1]
        s = simulate_until_absorption(model, Distribution.delta(1), rng)
        assert s.tau == -math.log1p(-u) / 2.5

    def test_bit_identical_replay(self, t2):
        a = simulate_until_absorption(t2, Distribution.delta(2), RngStream(9, (1, 2)))
        b = simulate_until_absorption(t2, Distribution.delta(2), RngStream(9, (1, 2)))
        assert a == b

    def test_stuck_state_raises(self):
        model = build_finite({(1, 2): 1.0})  # state 2 has no way out
        with pytest.raises(EventCapExceeded):
            simulate_until_absorption(model, Distribution.delta(2), RngStream(0))

    def test_event_cap(self, t2):
        model = build_finite({(1, 2): 1.0, (2, 1): 1.0})  # no absorption at all
        with pytest.raises(EventCapExceeded):
            simulate_until_absorption(model, Distribution.delta(1), RngStream(0), event_cap=100)


class TestModelFile:
    def test_round_trip(self, tmp_path, t2):
        path = tmp_path / "m.qsd"
        write_model_file(path, t2)
        back = read_model_file(path)
        assert back.states == t2.states
        assert back.transitions(1) == t2.transitions(1)
        assert back.absorb_rate(1) == t2.absorb_rate(1)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.qsd"
        p.write_text("1 0 1.0\n")
        with pytest.raises(ModelFormatError):
            read_model_file(p)

    def test_negative_rate_rejected(self, tmp_path):
        p = tmp_path / "bad.qsd"
        p.write_text("qsdmodel v1\n1 0 -1.0\n")
        with pytest.raises(ModelFormatError):
            read_model_file(p)

    @pytest.mark.parametrize("rows, line", [
        ("1 0 1\n1 2 nan\n2 1 1\n", "line 3: rate nan"),
        ("1 0 1\n1 2 inf\n2 1 1\n", "line 3: rate inf"),
        ("1 0 1\n1 2 1e308\n1 3 1e308\n2 1 1\n3 1 1\n", "line 4: the total rate out of state 1"),
    ])
    def test_rate_that_is_not_finite_names_its_line(self, tmp_path, rows, line):
        p = tmp_path / "bad.qsd"
        p.write_text("qsdmodel v1\n" + rows)
        with pytest.raises(ModelFormatError, match=line):
            read_model_file(p)

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "bad.qsd"
        p.write_text("qsdmodel v1\n1 2 1.0\n1 2 2.0\n2 0 1.0\n")
        with pytest.raises(ModelFormatError):
            read_model_file(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "ok.qsd"
        p.write_text("# comment\nqsdmodel v1\n\n1 0 1.0  # absorb\n")
        model = read_model_file(p)
        assert model.absorb_rate(1) == 1.0
