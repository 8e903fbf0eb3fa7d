"""Property-based checks of the initial-law, config and model-file parsers, of Distribution
and of the run-parameter table.

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
from qsdsim.cli import main as cli_main
from qsdsim.errors import ConfigInvalid
from qsdsim.harness import METHODS, TOP_KEYS, method_params, read_params

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


# A tiny run of each method; the table-drawn test varies one key of it at a time.
TINY_TOP = {"model": "two-state", "seed": "1", "replicas": "2"}
TINY = {
    "oracle": {},
    "conditioned": {"init": "delta:2", "horizon": "0.5"},
    "fv": {"particles": "3", "horizon": "0.5", "init": "delta:2"},
    "phi": {"init": "delta:1", "iters": "5"},
    "afp": {"steps": "50", "start": "1"},
    "branch": {"alpha": "2", "horizon": "1", "cap": "50"},
    "couple": {"particles": "3", "horizon": "0.5"},
    "scan": {"particles": "3,5", "horizon": "0.5", "init": "delta:2"},
    "report": {"fv_particles": "2", "fv_burnin": "0.1", "fv_horizon": "0.5", "phi_iters": "3",
               "afp_steps": "50", "branch_horizon": "1", "branch_cap": "20",
               "branch_attempts": "2"},
}
ODD = ["inf", "-inf", "nan", "abc", "", "1,2", "auto", "1e999", "0x10"]
WORDS = {
    "model": ["point", "two-state", "bd:1,2,5", "bd:1,2", "gw:1,2", "gw:2,1", "nope:1", "bd:a,b",
              "bd:1,2,1e3", "file:no-such-model.qsd", "bd:nan,1,5", "gw:nan,1", "bd:inf,1,5"],
    "init": ["delta:1", "delta:2", "uniform:1-2", "1:0.5,2:0.5", "delta:7", "delta:0", "delta:",
             "1:nan,2:1", "1:-1,2:1", "1:0,2:0", "uniform:2-1", "1:0.5,1:0.5",
             "uniform:1-10000000000"],
    "alpha": ["auto", "2", "0", "-1", "1e300", "-1e300", "1e-300"],
}


def _numbers(p, small):
    """Numbers for p: in range near its low end when small, else anywhere in or out of range."""
    whole = p.cast is not float
    lo = p.low if p.low > -math.inf else -(2**70)
    if whole:
        if small:
            return st.integers(lo, min(lo + 4, p.high))
        hi = p.high if p.high < math.inf else 2**70
        return st.one_of(st.integers(lo, hi), st.sampled_from([lo - 1, hi, hi + 1]))
    if small:
        return st.floats(lo, lo + 2.0, exclude_min=p.above)
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([lo, -lo, lo - 1.0, 5e-324, -5e-324]))


def _texts(p):
    """(raw text, small) pairs for p; a small value accepted by the table is run."""
    if p.key in WORDS:
        return st.sampled_from(WORDS[p.key] + ODD).map(lambda t: (t, True))
    odd = st.sampled_from(ODD).map(lambda t: (t, True))
    if p.cast in (int, float):
        def text(small):
            return _numbers(p, small).map(repr)
    else:  # scan's comma list of particle counts
        def text(small):
            counts = st.lists(_numbers(p, small), min_size=1, max_size=3)
            return counts.map(lambda ns: ",".join(map(str, ns)))
    return st.one_of(text(True).map(lambda t: (t, True)), text(False).map(lambda t: (t, False)), odd)


table_draws = st.sampled_from([(m, p) for m in METHODS for p in method_params(m)]).flatmap(
    lambda mp: _texts(mp[1]).map(lambda t: (*mp, *t))
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table_draws)
def test_table_drawn_values_are_read_or_refused(draw):
    # each key, drawn in range, on and past its bounds, non-numeric, inf and nan:
    # reading raises only ConfigInvalid, and a small accepted value runs to exit 0 or 3
    method, p, text, small = draw
    top, section = dict(TINY_TOP), dict(TINY[method])
    (top if p.key in TOP_KEYS else section)[p.key] = text
    lines = ["qsdconfig v1", f"method = {method}", *(f"{k} = {v}" for k, v in top.items()),
             f"[{method}]", *(f"{k} = {v}" for k, v in section.items())]
    try:
        read_params(parse_config("\n".join(lines) + "\n"))
    except ConfigInvalid:
        return
    if small:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            assert cli_main(["--config", str(cfg), "--out-dir", str(Path(tmp) / "out")]) in (0, 3)
