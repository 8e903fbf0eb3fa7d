import math

import numpy as np
import pytest

from qsdsim import (
    BirthDeathSpec,
    Distribution,
    HistoryState,
    RngStream,
    afp_run,
    build_birth_death,
    resolve_model,
    solve_qsd_discrete,
    uniformize,
)

from conftest import afp_advance


@pytest.fixture(scope="module")
def t2_disc(t2_module=None):
    return uniformize(resolve_model("two-state"), rate=2.0)


class TestAfpStep:
    def test_point_model_grows_at_one(self, t1):
        d = uniformize(t1, rate=1.0)
        h = HistoryState.start_at(1)
        for _ in range(1000):
            afp_advance(h, d, RngStream(40, (_,)))
        assert h.counts == {1: 1001}
        assert h.total == 1001
        assert h.step == 1000

    def test_step_law_from_state_1(self, t2_disc):
        # from walker 1 with history delta_1: P(next = 1) = kill * 1 = 0.5
        hits = 0
        n = 20_000
        for r in range(n):
            h = HistoryState.start_at(1)
            afp_advance(h, t2_disc, RngStream(41, (r,)))
            hits += h.walker == 1
        p = hits / n
        assert p == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))

    def test_step_law_from_state_2(self, t2_disc):
        # row (0.5, 0.5) with no kill mass: the history never enters
        hits = 0
        n = 20_000
        for r in range(n):
            h = HistoryState.start_at(2)
            h.walker = 2
            afp_advance(h, t2_disc, RngStream(42, (r,)))
            hits += h.walker == 1
        assert hits / n == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))

    def test_mass_bookkeeping_exact(self, t2_disc):
        h = HistoryState.start_at(1)
        for k in range(500):
            afp_advance(h, t2_disc, RngStream(43, (k,)))
            assert h.total == 1 + h.step
            assert sum(h.counts.values()) == h.total
            assert len(h.history) == h.total


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
        # checkpoints n, 2n, 4n
        ref = solve_qsd_discrete(t2_disc).nu
        n = 50_000
        tvs = []
        for r in range(20):
            res = afp_run(
                t2_disc, 1, 4 * n, RngStream(48, (r,)), checkpoints=[n, 2 * n, 4 * n],
                reference=ref,
            )
            tvs.append(res.checkpoint_tv)
        med = np.median(np.array(tvs), axis=0)
        assert med[0] >= med[1] >= med[2]

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
