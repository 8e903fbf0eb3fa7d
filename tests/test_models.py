import math

import numpy as np
import pytest

from qsdsim import (
    BirthDeathSpec,
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
from qsdsim.errors import NegativeRate, RateTooSmall, SelfLoop, SupercriticalSpec

from conftest import column_bound, multi_jump_model_file


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


class TestGaltonWatson:
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


class TestUniformize:
    def test_t2_explicit_rate(self, t2):
        d = uniformize(t2, rate=2.0)
        assert d.states == (1, 2)
        assert d.sub.tolist() == [[0.0, 0.5], [0.5, 0.5]]
        assert d.kill.tolist() == [0.5, 0.0]

    def test_t1(self, t1):
        d = uniformize(t1, rate=1.0)
        assert d.sub.tolist() == [[0.0]]
        assert d.kill.tolist() == [1.0]

    def test_rate_too_small(self, t2):
        with pytest.raises(RateTooSmall):
            uniformize(t2, rate=1.0)

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


@pytest.mark.parametrize("name, truncation, rate", [
    ("point", None, None), ("two-state", None, 2.0), ("bd:1,2,30", None, None),
    ("bd:0.6,1.7,40", None, None), ("bd:1,2", 60, None), ("gw:1,2", 50, None),
    ("multi-jump", None, None), ("multi-jump", 9, None), ("multi-jump", None, 7.3),
])
def test_uniformize_matches_reference_loop(name, truncation, rate, tmp_path):
    if name == "multi-jump":
        model = read_model_file(multi_jump_model_file(tmp_path))
    else:
        model = resolve_model(name)
    d = uniformize(model, truncation=truncation, rate=rate)
    sub, kill, used = reference_uniformize(model, truncation, rate)
    assert d.name.endswith(f",{used:g})")
    assert d.sub.tobytes() == sub.tobytes()
    assert d.kill.tobytes() == kill.tobytes()


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
