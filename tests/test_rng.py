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


def test_borrowed_generator_keeps_fixed_refill_points():
    # another consumer draws from the same generator after the block's first
    # refill; a growing block would refill at 64 and shift what it sees
    stream = RngStream(7)
    gen = stream.generator()
    block = UniformBlock(gen)
    first = [block.u() for _ in range(100)]
    other = gen.poisson(3.0, size=5).tolist()

    ref = stream.generator()
    expected = ref.random(1 << 14).tolist()
    assert first == expected[:100]
    assert other == ref.poisson(3.0, size=5).tolist()
    assert [block.u() for _ in range(10)] == expected[100:110]


def test_block_exp_uses_the_next_uniform():
    stream = RngStream(8)
    block = UniformBlock(stream)
    u = stream.generator().random(1)[0]
    assert block.exp(2.0) == pytest.approx(-np.log1p(-u) / 2.0, rel=1e-15)
