import re

import numpy as np
import pytest

from qsdsim import RngStream
from qsdsim.rng import UniformBlock


@pytest.mark.parametrize("n", [1, 64, 65, 16447, 50000])
def test_owned_block_matches_one_long_draw(n):
    # 64 + 128 + ... + 8192 = 16320 draws, then fixed 16384 refills: each n
    # stops in a different refill
    stream = RngStream(5, (2, 7))
    block = UniformBlock(stream)
    got = [block.u() for _ in range(n)]
    assert got == stream.generator().random(n).tolist()


def test_owned_block_respects_a_small_size():
    stream = RngStream(6)
    block = UniformBlock(stream, size=8)
    got = [block.u() for _ in range(30)]
    assert got == stream.generator().random(30).tolist()


def test_block_exp_uses_the_next_uniform():
    stream = RngStream(8)
    block = UniformBlock(stream)
    u = stream.generator().random(1)[0]
    assert block.exp(2.0) == pytest.approx(-np.log1p(-u) / 2.0, rel=1e-15)


SEEDS = [0, 1, 2**32 + 5, 2**63 - 1, 10**25]
PATHS = [(), (0,), (3, 1), (7, 2, 1, 4)]


@pytest.mark.parametrize("path", PATHS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_generator_draws_as_philox_keyed_by_its_seed_sequence(seed, path):
    # the stream's draws are those of a Philox keyed with two uint64 words
    # of the (seed, path) seed sequence, whichever way it is built
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    keyed = np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))
    gen = RngStream(seed, path).generator()
    assert gen.random(300).tolist() == keyed.random(300).tolist()
    assert gen.integers(0, 2**63, 50).tolist() == keyed.integers(0, 2**63, 50).tolist()
    assert gen.poisson(3.5, 50).tolist() == keyed.poisson(3.5, 50).tolist()


@pytest.mark.parametrize("seed,path,named", [
    (-1, (), "seed must be non-negative, got -1"),
    (3, (0, -2), "path components must be non-negative, got (0, -2)"),
])
def test_negative_seed_or_path_component_is_named(seed, path, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        RngStream(seed, path)


def test_negative_child_index_is_named():
    with pytest.raises(ValueError, match=re.escape("got (4, -1)")):
        RngStream(1, (4,)).child(-1)
