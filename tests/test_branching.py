import math

import numpy as np
import pytest

from qsdsim import (
    BranchingPopulation,
    Distribution,
    RngStream,
    build_shifted,
    build_finite,
    ks_estimate,
    read_model_file,
    resolve_model,
    tv_distance,
)
from qsdsim import branching
from qsdsim.branching import _run_attempt, downsample_counts
from qsdsim.errors import AllExtinct, NegativeMean, NotIrreducible
from qsdsim.rng import TAG_EVENTS

from conftest import (
    T2_LAMBDA, Extinct, _OffspringBlocks, branch_event, multi_jump_model_file, reference_attempt,
    single_population,
)


class TestBuildShifted:
    def test_t2_explicit_alpha(self, t2):
        sm = build_shifted(t2, 2.0)
        assert sm.means.tolist() == [[1.0, 1.0], [1.0, 2.0]]
        assert sm.supercritical
        # eigenvalues shift by alpha: Perron(means) - 1 = alpha + lambda
        lam_alpha = float(np.linalg.eigvals(sm.means).real.max()) - 1.0
        assert lam_alpha == pytest.approx(2.0 + T2_LAMBDA, abs=1e-12)

    def test_t1_auto_bumps(self, t1):
        sm = build_shifted(t1)
        assert sm.auto_bumped
        assert sm.alpha == 2.0
        assert sm.means.tolist() == [[2.0]]
        assert sm.lam_alpha_exact == 1.0
        assert sm.supercritical

    def test_alpha_too_small(self, t2):
        with pytest.raises(NegativeMean):
            build_shifted(t2, 0.1)

    def test_uncertified_alpha_not_flagged(self, t2):
        # means are nonnegative at alpha = 1.2 but the certificate needs
        # alpha >= max rate
        sm = build_shifted(t2, 1.2)
        assert sm.means.diagonal().min() >= 0
        assert not sm.supercritical


    def test_disconnected_types_rejected(self):
        model = build_finite({(1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0, (3, 0): 0.5})
        with pytest.raises(NotIrreducible):
            build_shifted(model)


def reference_means(model, alpha: float) -> np.ndarray:
    """Shifted mean matrix filled entry by entry from the transition lists."""
    states = model.states
    index = {x: i for i, x in enumerate(states)}
    means = np.zeros((len(states), len(states)))
    for x in states:
        i = index[x]
        means[i, i] = alpha + 1.0 - model.total_rate(x)
        for y, r in model.transitions(x):
            means[i, index[y]] += r
    return means


@pytest.mark.parametrize("name, alpha", [
    ("point", "auto"), ("two-state", 2.0), ("two-state", "auto"), ("bd:1,2,30", "auto"),
    ("bd:0.6,1.7,40", 3.1), ("multi-jump", "auto"), ("multi-jump", 4.7),
])
def test_shifted_means_match_reference_loop(name, alpha, tmp_path):
    if name == "multi-jump":
        model = read_model_file(multi_jump_model_file(tmp_path))
    else:
        model = resolve_model(name)
    sm = build_shifted(model, alpha)
    assert sm.means.tobytes() == reference_means(model, sm.alpha).tobytes()


class TestBranchStep:
    def test_extinction_probability_from_one(self, t1):
        # single type with Poisson(2) offspring: dies this step iff 0 kids
        sm = build_shifted(t1)
        extinct = 0
        n = 20_000
        for r in range(n):
            pop = single_population(sm, 1, cap=1000)
            try:
                branch_event(pop, sm, RngStream(50, (r,)))
            except Extinct:
                extinct += 1
                assert pop.extinct
        p = extinct / n
        expect = math.exp(-2.0)
        assert p == pytest.approx(expect, abs=3 * math.sqrt(expect * (1 - expect) / n))

    def test_mean_offspring_matches_matrix(self, t2):
        # empirical offspring means over many reproduction events per type,
        # drawn through the reference stepper's offspring blocks
        sm = build_shifted(t2, 2.0)
        blocks = _OffspringBlocks(np.random.default_rng(51), sm.means)
        n = 100_000
        for i in range(2):
            kids = np.array([blocks.row(i) for _ in range(n)], dtype=float)
            emp = kids.mean(axis=0)
            se = kids.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(emp - sm.means[i]) <= 3 * se)

    def test_cap_downsampling(self, t2):
        sm = build_shifted(t2, 2.0)
        pop = single_population(sm, 2, cap=1000)
        k = 0
        while pop.cap_events == 0:
            try:
                branch_event(pop, sm, RngStream(52, (k,)))
            except Extinct:
                pop = single_population(sm, 2, cap=1000)
            k += 1
        assert sum(pop.counts) == 500  # multinomial down-sample to cap // 2

    def test_cap_preserves_proportions_in_expectation(self):
        # the down-sample applied on overflow keeps type fractions unbiased
        from qsdsim.branching import downsample_counts

        gen = np.random.default_rng(53)
        overflow = [3001, 7003]
        target = np.array(overflow, dtype=float) / sum(overflow)
        reps = 4000
        fracs = np.array(
            [downsample_counts(overflow, 500, gen) for _ in range(reps)], dtype=float
        )
        fracs /= fracs.sum(axis=1, keepdims=True)
        se = fracs.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(fracs.mean(axis=0) - target) <= 3 * se)

    def test_empty_population_raises(self, t2):
        sm = build_shifted(t2, 2.0)
        pop = BranchingPopulation(states=(1, 2), counts=[0, 0], cap=10)
        with pytest.raises(Extinct):
            branch_event(pop, sm, RngStream(0))


@pytest.mark.parametrize("name, alpha, horizon, seed, start, dies, gap", [
    ("two-state", 2.0, 16.0, 1, 1, False, False),  # more than one uniform block
    ("bd:1,2,10", "auto", 10.0, 1, 1, False, False),
    ("bd:1,2,10", "auto", 10.0, 1, 5, False, False),  # from a middle type
    ("bd:1,2,10", "auto", 10.0, 2, 1, False, True),
    ("multi-jump", "auto", 6.0, 1, 1, False, False),
    ("two-state", 2.0, 16.0, 24, 1, True, False),  # dies at its third event
])
def test_attempt_matches_reference_stepper(name, alpha, horizon, seed, start, dies, gap, tmp_path, monkeypatch):
    # same draws in the same order as the event-by-event reference, so the
    # attempt is equal, not close
    model = read_model_file(multi_jump_model_file(tmp_path)) if name == "multi-jump" else resolve_model(name)
    sm = build_shifted(model, alpha)
    stream = RngStream(seed).child(0, TAG_EVENTS)
    overflows = []

    def downsample(counts, keep, gen):
        overflows.append(list(counts))
        return downsample_counts(counts, keep, gen)

    monkeypatch.setattr(branching, "downsample_counts", downsample)
    got = _run_attempt(sm, start, horizon, 2000, stream)
    ref = reference_attempt(sm, start, horizon, 2000, stream)
    assert (ref is None) == dies
    if dies:
        assert got is None
    else:
        assert ref.cap_events > 0
        assert (got.counts, got.t, got.cap_events, got.growth_log) == (
            ref.counts, ref.t, ref.cap_events, ref.growth_log)
    if gap:
        # the cap overflows with an empty type between occupied ones, whose
        # prefix sum ties its left neighbour's
        assert any(0 in c[1:-1] and c[-1] for c in overflows)


class TestKsEstimate:
    def test_point_model(self, t1):
        est = ks_estimate(t1, "auto", 5.0, 1000, 20, RngStream(54))
        assert est.nu_hat == Distribution.delta(1)
        assert 0 < est.survival_fraction <= 1

    def test_t2_matches_oracle(self, t2, t2_oracle):
        est = ks_estimate(t2, 2.0, 8.0, 20_000, 20, RngStream(55))
        assert tv_distance(est.nu_hat, t2_oracle.nu) <= 0.05
        assert est.growth_rate_fit == pytest.approx(2.0 + T2_LAMBDA, abs=0.1)

    def test_theta_recovered_from_growth(self, t2, t2_oracle):
        est = ks_estimate(t2, 2.0, 8.0, 20_000, 20, RngStream(56))
        theta_hat = est.alpha - est.growth_rate_fit
        assert theta_hat == pytest.approx(t2_oracle.theta, abs=0.1)

    def test_refuses_uncertified_shift(self, t2):
        with pytest.raises(ValueError, match="supercritical"):
            ks_estimate(t2, 1.2, 5.0, 1000, 5, RngStream(0))

    def test_refuses_cap_below_two(self, t2):
        # down-sampling to cap // 2 = 0 would empty the population
        with pytest.raises(ValueError, match="cap"):
            ks_estimate(t2, 2.0, 5.0, 1, 5, RngStream(0))

    def test_all_extinct(self, t1):
        # seed chosen so the single attempt dies out immediately
        with pytest.raises(AllExtinct):
            ks_estimate(t1, "auto", 5.0, 1000, 1, RngStream(7))

    def test_deterministic(self, t2):
        a = ks_estimate(t2, 2.0, 6.0, 5000, 10, RngStream(58))
        b = ks_estimate(t2, 2.0, 6.0, 5000, 10, RngStream(58))
        assert a.nu_hat == b.nu_hat
        assert a.survival_fraction == b.survival_fraction
