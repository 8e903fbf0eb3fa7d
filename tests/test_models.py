import math
import tracemalloc

import numpy as np
import pytest

from qsdsim import (
    AbsorbedChainModel,
    BirthDeathSpec,
    DiscreteChainModel,
    GaltonWatsonSpec,
    build_birth_death,
    build_finite,
    build_galton_watson,
    resolve_model,
    solve_qsd_discrete,
    solve_qsd_power,
    tv_distance,
    read_model_file,
    uniformize,
)
from qsdsim.afp import _advance
from qsdsim.errors import NegativeRate, RateTooSmall, SelfLoop, SupercriticalSpec

from conftest import column_bound, multi_jump_model_file, reference_bounds


class TestBuildFinite:
    def test_t1_bounds(self):
        m = build_finite({(1, 0): 1.0})
        assert m.c0 == 1.0
        assert m.qbar == 0.0
        assert column_bound(m) == 1.0

    def test_t2_bounds(self):
        m = build_finite({(1, 2): 1.0, (2, 1): 1.0, (1, 0): 1.0})
        assert m.c0 == 1.0
        assert m.qbar == 1.0
        # inflow columns: state 1 gets 1, state 2 gets 1, absorbing gets 1
        assert column_bound(m) == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_finite({(1, 1): -2.0, (1, 0): 1.0})

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            build_finite({(1, 2): -1.0, (1, 0): 1.0})

    @pytest.mark.parametrize("rates, match", [
        ({(1, 2): math.nan, (2, 1): 1.0, (1, 0): 1.0}, "rate nan"),
        ({(1, 2): math.inf, (2, 1): 1.0, (1, 0): 1.0}, "rate inf"),
        ({(1, 2): 1e308, (1, 3): 1e308, (2, 1): 1.0, (3, 1): 1.0, (1, 0): 1.0}, "state 1 overflows"),
    ])
    def test_rate_that_is_not_finite_rejected(self, rates, match):
        with pytest.raises(NegativeRate, match=match):
            build_finite(rates)


class TestBirthDeath:
    def test_truncated_transitions(self):
        m = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=3)
        assert m.states == (1, 2, 3)
        assert dict(m.transitions(1)) == {2: 1.0}
        assert m.absorb_rate(1) == 2.0
        assert dict(m.transitions(2)) == {1: 2.0, 3: 1.0}
        assert dict(m.transitions(3)) == {2: 2.0}  # up-jump dropped at the cut

    def test_pure_death_chain(self):
        m = build_birth_death(BirthDeathSpec(0.0, 1.0))
        assert not m.is_finite
        assert dict(m.transitions(5)) == {4: 1.0}
        assert m.transitions(1) == ()
        assert m.absorb_rate(1) == 1.0

    def test_truncations_are_monotone_consistent(self):
        small = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=50)
        big = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=100)
        for x in range(1, 50):
            assert small.transitions(x) == big.transitions(x)
            assert small.absorb_rate(x) == big.absorb_rate(x)

    def test_truncation_stability_is_quadratic_not_spectral(self):
        # the drifted walk is not R-positive: successive truncations agree
        # only at O(1/K^2), so the stabilization is monotone but slow
        bd = resolve_model("bd:1,2")
        s100 = solve_qsd_power(bd, truncation=100)
        s200 = solve_qsd_power(bd, truncation=200)
        s400 = solve_qsd_power(bd, truncation=400)
        gap1 = tv_distance(s100.nu, s200.nu)
        gap2 = tv_distance(s200.nu, s400.nu)
        assert gap2 < gap1 < 0.01
        assert gap2 == pytest.approx(gap1 / 4, rel=0.5)
        theta_star = (math.sqrt(2.0) - 1.0) ** 2
        assert s400.theta == pytest.approx(theta_star, abs=2e-3)

    def test_negative_rates_rejected(self):
        with pytest.raises(NegativeRate):
            BirthDeathSpec(-1.0, 2.0)

    @pytest.mark.parametrize("p, q", [(1e308, 1e308), (math.nan, 1.0), (1.0, math.nan)])
    def test_rates_without_a_finite_sum_rejected(self, p, q):
        with pytest.raises(NegativeRate):
            BirthDeathSpec(p, q)

    def test_declared_minimal_qsd(self):
        # nu*(x) = (1 - r)^2 x r^(x-1), r = sqrt(p/q); its mass above x is r^x (1 + x (1 - r))
        r = math.sqrt(0.6 / 1.7)
        nu_star = resolve_model("bd:0.6,1.7").nu_star
        for x in (1, 2, 30):
            log_mass, log_above = nu_star(x)
            assert log_mass == pytest.approx(math.log((1 - r) ** 2 * x * r ** (x - 1)), abs=1e-12)
            assert log_above == pytest.approx(math.log(r**x * (1 + x * (1 - r))), abs=1e-12)
        assert resolve_model("bd:0,1").nu_star(1) == (0.0, -math.inf)
        for name in ("bd:1,1", "bd:2,1", "bd:1,2,50"):
            assert resolve_model(name).nu_star is None


class TestGaltonWatson:
    def test_declared_minimal_qsd(self):
        # nu*(n) = (1 - rho) rho^(n-1), rho = b/d; its mass above n is rho^n
        rho = 1.3 / 2.7
        nu_star = resolve_model("gw:1.3,2.7").nu_star
        for n in (1, 2, 30):
            log_mass, log_above = nu_star(n)
            assert log_mass == pytest.approx(math.log((1 - rho) * rho ** (n - 1)), abs=1e-12)
            assert log_above == pytest.approx(n * math.log(rho), abs=1e-12)

    def test_rates(self):
        m = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        assert m.absorb_rate(1) == 2.0
        assert dict(m.transitions(1)) == {2: 1.0}
        assert dict(m.transitions(5)) == {4: 10.0, 6: 5.0}
        assert m.c0 == 2.0
        assert m.qbar == math.inf

    def test_linear_scaling(self):
        m = build_galton_watson(GaltonWatsonSpec(1.3, 2.7))
        for n in (1, 3, 10):
            up_n = dict(m.transitions(n))[n + 1]
            up_2n = dict(m.transitions(2 * n))[2 * n + 1]
            assert up_2n == 2 * up_n

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalSpec):
            GaltonWatsonSpec(2.0, 1.0)

    def test_truncated_oracle_matches_geometric_profile(self):
        # the minimal QSD of the binary-split chain is exactly geometric;
        # fitting the ratio from the solution itself and comparing back
        # is the self-consistency check used for the nu* reference
        m = build_galton_watson(GaltonWatsonSpec(1.0, 2.0))
        sol = solve_qsd_power(m, truncation=400)
        ratio = sol.nu.mass(2) / sol.nu.mass(1)
        geo = {n: (1 - ratio) * ratio ** (n - 1) for n in range(1, 401)}
        from qsdsim import Distribution

        assert tv_distance(sol.nu, Distribution.from_weights(geo)) <= 1e-4


RENEWAL = "renewal"


def step_law(d, x) -> dict:
    """The law of one ``_advance`` step from x: the measure of u sent to each outcome.

    The breakpoints of u are the jump table's cumulative rates over the
    rate; one step from the midpoint of each interval between them names
    its outcome.  The history is ``[RENEWAL, x]``: the walker x is its last
    entry, and the renewal draw, at second uniform 0, picks the marker
    ``RENEWAL``; the hold leaves the walker at x.
    """
    _, cum, _ = d.model.jump_table(x)
    cuts = [0.0, *(c / d.rate for c in cum), 1.0]
    law: dict = {}
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            history = [RENEWAL, x]
            _advance(history, d, iter([(lo + hi) / 2, 0.0]), 1)
            law[history[-1]] = law.get(history[-1], 0.0) + (hi - lo)
    return law


class TestUniformize:
    def test_t2_explicit_rate(self, t2):
        # P = [[0, 0.5], [0.5, 0.5]] and kill (0.5, 0): state 1 never holds
        d = uniformize(t2, rate=2.0)
        assert d.model.states == (1, 2)
        assert step_law(d, 1) == {RENEWAL: 0.5, 2: 0.5}
        assert step_law(d, 2) == {1: 0.5, 2: 0.5}

    def test_t1(self, t1):
        d = uniformize(t1, rate=1.0)
        assert step_law(d, 1) == {RENEWAL: 1.0}

    def test_rate_too_small(self, t2):
        with pytest.raises(RateTooSmall):
            uniformize(t2, rate=1.0)

    @pytest.mark.parametrize("rate", [0.0, math.inf, math.nan])
    def test_rate_that_gives_no_uniformization(self, t2, rate):
        # P = I + Q/rate is no substochastic matrix at these rates
        with pytest.raises(RateTooSmall):
            uniformize(t2, rate=rate)

    def test_slack_is_relative_on_a_slow_chain(self):
        # largest total rate 2e-14: 1e-15 is twenty times too small, though
        # within 1e-12 of it; 2e-14 (1 - 1e-13) lies inside the relative slack
        slow = build_finite({(1, 2): 1e-14, (2, 1): 1e-14, (1, 0): 1e-14})
        with pytest.raises(RateTooSmall):
            uniformize(slow, rate=1e-15)
        assert uniformize(slow, rate=2e-14 * (1 - 1e-13)).rate == 2e-14 * (1 - 1e-13)

    def test_constructor_checks_its_rate_with_the_same_slack(self, t2):
        # a direct DiscreteChainModel applies uniformize's rule, relative 1e-12 slack included
        with pytest.raises(RateTooSmall):
            DiscreteChainModel(t2, 2.0 - 1e-9)
        assert DiscreteChainModel(t2, 2.0 - 1e-13).rate == 2.0 - 1e-13
        with pytest.raises(ValueError, match="an infinite model needs an explicit truncation"):
            DiscreteChainModel(resolve_model("bd:1,2"), 4.0)

    def test_rate_is_checked_on_the_restricted_window(self):
        # bd:1,2 restricted to {1} drops the birth jump: its largest total rate is 2, not 3
        model = resolve_model("bd:1,2")
        d = uniformize(model, 1)
        assert d.model.states == (1,) and d.rate == 1.05 * 2.0
        assert uniformize(model, 1, rate=2.0).rate == 2.0
        with pytest.raises(RateTooSmall):
            uniformize(model, 1, rate=2.0 - 1e-9)

    @pytest.mark.parametrize("spec", ["bd:1,2", "gw:1,2"])
    def test_infinite_model_needs_a_truncation(self, spec):
        with pytest.raises(ValueError, match="an infinite model needs an explicit truncation"):
            uniformize(resolve_model(spec))

    def test_preserves_qsd(self, t2):
        cont = solve_qsd_power(t2)
        disc = solve_qsd_discrete(uniformize(t2))
        assert tv_distance(cont.nu, disc.nu) <= 1e-10

    def test_preserves_qsd_on_birth_death(self):
        m = build_birth_death(BirthDeathSpec(1.0, 2.0), truncation=30)
        cont = solve_qsd_power(m)
        disc = solve_qsd_discrete(uniformize(m))
        assert tv_distance(cont.nu, disc.nu) <= 1e-10

    def test_eigenvalue_relation(self, t2):
        # P = I + Q/rate maps the eigenvalue lam to 1 + lam/rate
        cont = solve_qsd_power(t2)
        disc = solve_qsd_discrete(uniformize(t2, rate=2.0))
        assert disc.lam == pytest.approx(1.0 + cont.lam / 2.0, abs=1e-10)


def reference_uniformize(model, truncation=None, rate=None):
    """(sub, kill, rate) filled entry by entry from the transition lists."""
    finite = model if model.is_finite and truncation is None else model.restricted(
        truncation if truncation is not None else max(model.states)
    )
    states = finite.states
    if rate is None:
        maxrate = finite.max_total_rate(states)
        rate = 1.05 * maxrate if maxrate > 0 else 1.0
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    sub = np.zeros((n, n))
    kill = np.zeros(n)
    for x in states:
        i = index[x]
        sub[i, i] = 1.0 - finite.total_rate(x) / rate
        kill[i] = finite.absorb_rate(x) / rate
        for y, r in finite.transitions(x):
            sub[i, index[y]] += r / rate
    return sub, kill, rate


# Transitions out of order, with the target 3 of state 1 and the target 2 of
# state 3 each listed twice, so that the merge order is pinned.
HAND_BUILT = {
    1: [(3, 0.4), (2, 0.3), (3, 0.25)],
    2: [(3, 0.2), (1, 0.7)],
    3: [(2, 0.6), (1, 0.15), (2, 0.05)],
}
HAND_BUILT_ABSORB = {1: 0.1, 2: 0.0, 3: 0.3}


@pytest.mark.parametrize("name, truncation, rate", [
    ("point", None, None), ("two-state", None, 2.0), ("bd:1,2,30", None, None),
    ("bd:0.6,1.7,40", None, None), ("bd:1,2", 60, None), ("gw:1,2", 50, None),
    ("multi-jump", None, None), ("multi-jump", 9, None), ("multi-jump", None, 7.3),
    ("hand-built", None, None), ("hand-built", None, 3.0),
])
def test_uniformize_matches_reference_loop(name, truncation, rate, tmp_path):
    if name == "multi-jump":
        model = read_model_file(multi_jump_model_file(tmp_path))
    elif name == "hand-built":
        model = AbsorbedChainModel(
            HAND_BUILT.__getitem__, HAND_BUILT_ABSORB.__getitem__, states=(1, 2, 3)
        )
    else:
        model = resolve_model(name)
    d = uniformize(model, truncation=truncation, rate=rate)
    sub, kill, used = reference_uniformize(model, truncation, rate)
    assert d.name.endswith(f",{used:g})")
    # one step of the walker sends u to each state, the hold included, with
    # the mass of the reference row, and to the renewal draw with the kill mass
    states = d.model.states
    for i, x in enumerate(states):
        law = step_law(d, x)
        row = np.zeros(len(states))
        for y, m in law.items():
            if y != RENEWAL:
                row[states.index(y)] = m
        assert np.abs(row - sub[i]).max() <= 1e-12
        assert abs(law.get(RENEWAL, 0.0) - kill[i]) <= 1e-12


def test_uniformize_memory_is_linear_in_the_window():
    # no n x n matrix: the dense build peaked at about 412 MB for 3000 states
    tracemalloc.start()
    try:
        uniformize(resolve_model("bd:1,2,1000"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


class TestResolveModel:
    def test_builtins(self):
        assert resolve_model("point").states == (1,)
        assert resolve_model("two-state").states == (1, 2)
        assert resolve_model("bd:1,2,5").states == (1, 2, 3, 4, 5)
        assert resolve_model("gw:1,2").name == "gw:1.0,2.0"

    def test_file_scheme(self, tmp_path, t2):
        from qsdsim import write_model_file

        p = tmp_path / "m.qsd"
        write_model_file(p, t2)
        m = resolve_model(f"file:{p}")
        assert m.states == (1, 2)

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_model("nope")


class TestBounds:
    @pytest.mark.parametrize("name", ["point", "two-state", "bd:1,2,30", "bd:0.6,1.7,40",
                                      "gw:1,2|60", "multi-jump", "hand-built"])
    def test_derived_bounds_match_the_exact_formula(self, name, tmp_path):
        # hand-built declares nothing: its bounds read None before they were derived
        if name == "multi-jump":
            model = read_model_file(multi_jump_model_file(tmp_path))
        elif name == "hand-built":
            model = AbsorbedChainModel(
                HAND_BUILT.__getitem__, HAND_BUILT_ABSORB.__getitem__, states=(1, 2, 3)
            )
        elif name == "gw:1,2|60":
            model = resolve_model("gw:1,2").restricted(60)
        else:
            model = resolve_model(name)
        assert (model.c0, model.qbar) == reference_bounds(model)

    def test_declared_bounds_are_kept(self):
        assert (resolve_model("bd:1,2").c0, resolve_model("bd:1,2").qbar) == (2.0, 3.0)
        assert (resolve_model("gw:1,2").c0, resolve_model("gw:1,2").qbar) == (2.0, math.inf)
        # a declared value wins over the derived one; an undeclared infinite bound is None
        model = AbsorbedChainModel(HAND_BUILT.__getitem__, HAND_BUILT_ABSORB.__getitem__,
                                   states=(1, 2, 3), c0=5.0)
        assert (model.c0, model.qbar) == (5.0, reference_bounds(model)[1])
        assert AbsorbedChainModel(lambda x: [(x + 1, 1.0)], lambda x: 1.0).qbar is None

    def test_restricted_walks_no_state_until_read(self):
        seen = []

        def transitions(x):
            seen.append(x)
            return [(x + 1, 1.0)] + ([(x - 1, 2.0)] if x > 1 else [])

        window = AbsorbedChainModel(transitions, lambda x: 2.0 if x == 1 else 0.0).restricted(40)
        assert seen == []
        assert (window.c0, window.qbar) == (2.0, 3.0)
        assert sorted(seen) == list(range(1, 41))

    def test_bd_window_is_the_walks_restriction(self):
        walk = resolve_model("bd:0.6,1.7").restricted(40)
        window = resolve_model("bd:0.6,1.7,40")
        assert window.name == "bd:0.6,1.7,40"
        assert window.states == walk.states
        for x in window.states:
            assert window.jump_table(x) == walk.jump_table(x)

    def test_bd_window_above_the_bound_is_refused_before_listing(self):
        with pytest.raises(ValueError, match="K = 100000000000 is above the window bound"):
            resolve_model("bd:1,2,100000000000")
