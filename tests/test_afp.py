import math
from collections import Counter

import numpy as np
import pytest

from qsdsim import (
    BirthDeathSpec,
    Distribution,
    RngStream,
    afp_run,
    build_birth_death,
    resolve_model,
    solve_qsd_discrete,
    tv_distance,
    uniformize,
)
from qsdsim.afp import _advance
from qsdsim.rng import TAG_EVENTS, UniformBlock

from conftest import afp_advance


@pytest.fixture(scope="module")
def t2_disc(t2_module=None):
    return uniformize(resolve_model("two-state"), rate=2.0)


class TestAfpStep:
    def test_point_model_grows_at_one(self, t1):
        d = uniformize(t1, rate=1.0)
        history = [1]
        for _ in range(1000):
            afp_advance(history, d, RngStream(40, (_,)))
        assert history == [1] * 1001

    def test_step_law_from_state_1(self, t2_disc):
        # from walker 1 with history delta_1: P(next = 1) = kill * 1 = 0.5
        hits = 0
        n = 20_000
        for r in range(n):
            history = afp_advance([1], t2_disc, RngStream(41, (r,)))
            hits += history[-1] == 1
        p = hits / n
        assert p == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))

    def test_step_law_from_state_2(self, t2_disc):
        # row (0.5, 0.5) with no kill mass: the history never enters
        hits = 0
        n = 20_000
        for r in range(n):
            history = afp_advance([2], t2_disc, RngStream(42, (r,)))
            hits += history[-1] == 1
        assert hits / n == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))

    def test_each_step_appends_one_live_state(self, t2_disc):
        history = [1]
        for k in range(500):
            afp_advance(history, t2_disc, RngStream(43, (k,)))
            assert len(history) == k + 2
        assert history[0] == 1 and set(history) <= set(t2_disc.states)


class TestAfpRun:
    def test_point_model_exact(self, t1):
        d = uniformize(t1, rate=1.0)
        res = afp_run(d, 1, 1000, RngStream(44))
        assert res.estimate == Distribution.delta(1)

    def test_t2_converges_to_discrete_oracle(self, t2_disc):
        ref = solve_qsd_discrete(t2_disc).nu
        res = afp_run(t2_disc, 1, 10**6, RngStream(45), reference=ref)
        assert res.checkpoint_tv[-1] <= 0.02

    def test_five_state_walk(self):
        model = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=5)
        d = uniformize(model)
        ref = solve_qsd_discrete(d).nu
        res = afp_run(d, 1, 10**6, RngStream(46), reference=ref)
        assert res.checkpoint_tv[-1] <= 0.02

    def test_deterministic(self, t2_disc):
        a = afp_run(t2_disc, 1, 50_000, RngStream(47))
        b = afp_run(t2_disc, 1, 50_000, RngStream(47))
        assert a.estimate == b.estimate

    def test_checkpoint_medians_refine(self, t2_disc):
        # median TV to the oracle over replicas must not increase along
        # checkpoints n, 2n, 4n; 80 replicas resolve each 2x step: over seed
        # sets 1-60 the order failed in at most 1 (20 replicas: 10 to 13)
        ref = solve_qsd_discrete(t2_disc).nu
        n = 50_000
        tvs = []
        for r in range(80):
            res = afp_run(
                t2_disc, 1, 4 * n, RngStream(48, (r,)), checkpoints=[n, 2 * n, 4 * n],
                reference=ref,
            )
            tvs.append(res.checkpoint_tv)
        med = np.median(np.array(tvs), axis=0)
        assert med[0] >= med[1] >= med[2]

    def test_checkpoint_at_every_step_matches_a_recount(self):
        # the run counts only what each checkpoint adds; a recount of the
        # whole history after each step on the same stream gives each TV
        d = uniformize(build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=5))
        ref = solve_qsd_discrete(d).nu
        steps = 400
        res = afp_run(d, 1, steps, RngStream(49), checkpoints=range(1, steps + 1), reference=ref)
        blocks = UniformBlock(RngStream(49).child(TAG_EVENTS))
        history = [1]
        tvs = []
        for _ in range(steps):
            _advance(history, d, blocks, 1)
            tvs.append(tv_distance(Distribution.from_weights(Counter(history)), ref))
        assert res.checkpoint_tv == tvs
        assert res.estimate == Distribution.from_weights(Counter(history))
        assert len(set(history)) == 5

    def test_checkpoint_validation(self, t2_disc):
        with pytest.raises(ValueError):
            afp_run(t2_disc, 1, 100, RngStream(0), checkpoints=[50, 80])

    @pytest.mark.parametrize("first", [0, -5])
    def test_checkpoints_start_at_one(self, t2_disc, first):
        # the run advances from checkpoint to checkpoint, so none may precede step 1
        with pytest.raises(ValueError):
            afp_run(t2_disc, 1, 100, RngStream(0), checkpoints=[first, 100])

    def test_start_must_be_in_window(self, t2_disc):
        with pytest.raises(ValueError):
            afp_run(t2_disc, 7, 100, RngStream(0))
