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
