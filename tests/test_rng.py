import re
from itertools import islice, repeat

import numpy as np
import pytest

from qsdsim import RngStream
from qsdsim.rng import UniformBlock, uniforms


# 64 + 128 + ... + 8192 = 16320 draws, then fixed 16384 chunks
CHUNK_EDGES = [64, 192, 448, 960, 1984, 4032, 8128, 16320, 32704, 49088]


@pytest.mark.parametrize("n", [1, 64, 65, 16447, 50000])
def test_owned_block_matches_one_long_draw(n):
    # each n stops in a different chunk
    stream = RngStream(5, (2, 7))
    got = list(islice(UniformBlock(stream), n))
    assert got == stream.generator().random(n).tolist()


@pytest.mark.parametrize("n", sorted({e + d for e in CHUNK_EDGES for d in (-1, 0, 1)} | {3 << 14}))
def test_iterator_matches_one_long_draw_on_and_across_chunk_edges(n):
    stream = RngStream(9, (1,))
    us = iter(UniformBlock(stream))
    got = list(islice(us, n))
    assert got == stream.generator().random(n).tolist()
    # the next value continues the same draw
    assert next(us) == stream.generator().random(n + 1)[-1]


def test_owned_block_respects_a_small_size():
    stream = RngStream(6)
    got = list(islice(UniformBlock(stream, size=8), 30))
    assert got == stream.generator().random(30).tolist()


def test_uniforms_draw_a_chunk_only_when_its_first_value_is_asked_for():
    # other draws on the generator land between chunks, where the loop
    # asked for the next value
    gen = RngStream(3).generator()
    us = uniforms(gen, repeat(4))
    got = [next(us) for _ in range(4)]
    got.append(gen.poisson(2.0))
    got += [next(us) for _ in range(4)]
    ref = RngStream(3).generator()
    want = ref.random(4).tolist() + [ref.poisson(2.0)] + ref.random(4).tolist()
    assert got == want


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
