"""Property-based checks of the initial-law, config and model-file parsers and of Distribution.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import (
    Distribution,
    ExperimentConfig,
    build_finite,
    emit_config,
    parse_config,
    parse_distribution,
    read_model_file,
    write_model_file,
)
from qsdsim.chain import MASS_EPS
from qsdsim.harness import METHODS

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

states = st.integers(min_value=1, max_value=10**6)
# weights within six decades of each other keep every normalized mass far above MASS_EPS
weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def pairs_text(masses: dict[int, float]) -> str:
    return ",".join(f"{x}:{m!r}" for x, m in masses.items())


@FIXED
@given(states)
def test_parse_delta(x):
    assert parse_distribution(f"delta:{x}") == Distribution.delta(x)


@FIXED
@given(states, st.integers(min_value=0, max_value=60))
def test_parse_uniform(a, width):
    d = parse_distribution(f"uniform:{a}-{a + width}")
    assert d == Distribution.uniform(range(a, a + width + 1))
    assert d.support == tuple(range(a, a + width + 1))


@FIXED
@given(st.dictionaries(states, weights, min_size=1, max_size=40))
def test_parse_pairs_round_trip(ws):
    d = parse_distribution(pairs_text(ws))
    assert d == Distribution.from_weights(ws)
    # writing the law back out and reading it again changes no mass beyond roundoff
    again = parse_distribution(pairs_text(d.as_dict()))
    assert again.support == d.support
    assert all(math.isclose(again.mass(x), m, rel_tol=1e-14) for x, m in d.items())


models = st.one_of(
    st.sampled_from(["point", "two-state", "gw:1,2", "gw:0.5,1.25"]),
    st.builds(lambda p, q: f"bd:{p},{q}", st.integers(0, 9), st.integers(0, 9)),
    st.builds(lambda p, q, k: f"bd:{p},{q},{k}", st.integers(0, 9), st.integers(0, 9),
              st.integers(1, 500)),
)
LOWER = "abcdefghijklmnopqrstuvwxyz"
keys = st.builds(str.__add__, st.sampled_from(LOWER), st.text(LOWER + "0123456789_-", max_size=11))
values = st.text(LOWER + LOWER.upper() + "0123456789.:,_+-", max_size=16)
configs = st.builds(
    ExperimentConfig,
    method=st.sampled_from(METHODS),
    model=models,
    seed=st.integers(-(2**63), 2**63),
    replicas=st.integers(-5, 10**6),
    params=st.dictionaries(keys, values, max_size=6),
)


@FIXED
@given(configs)
def test_config_round_trip(cfg):
    assert parse_config(emit_config(cfg)) == cfg


@FIXED
@given(st.dictionaries(
    states,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=40,
).filter(lambda ws: any(w > MASS_EPS for w in ws.values())))
def test_from_weights_invariants(ws):
    d = Distribution.from_weights(ws)
    support = d.support
    assert list(support) == sorted(set(support))
    assert all(m > MASS_EPS for _, m in d.items())
    assert abs(math.fsum(m for _, m in d.items()) - 1.0) <= 1e-12
    assert all(d.mass(x) == m for x, m in d.items())
    assert all(d.mass(x) == 0.0 for x in ws if x not in set(support))


rate_maps = st.dictionaries(
    st.tuples(st.integers(1, 30), st.integers(0, 30)).filter(lambda xy: xy[0] != xy[1]),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=30,
)


@FIXED
@given(rate_maps)
def test_model_file_round_trip(rates):
    model = build_finite(rates)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.qsdmodel"
        write_model_file(path, model)
        back = read_model_file(path)
    assert back.states == model.states
    for x in model.states:
        assert back.transitions(x) == model.transitions(x)
        assert back.absorb_rate(x) == model.absorb_rate(x)
