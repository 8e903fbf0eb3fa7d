"""Reproducible random streams.

Every stochastic routine in the package draws from an :class:`RngStream`,
which is a counter-based Philox generator keyed by a root seed and an integer
path such as ``(replica, purpose)``.  Streams with distinct paths
are statistically independent, and an identical ``(seed, path)`` pair replays
the exact same draws, which is what makes replica-level runs bit-for-bit
reproducible.  Seeds and path components are non-negative integers.

Opening a stream (:meth:`RngStream.generator`) builds one ``SeedSequence``
and one Philox keyed from it, and it is a fixed cost each replica pays per
stream it opens.  A Fleming-Viot replica opens its ``TAG_EVENTS`` child, and
its ``TAG_INIT`` child only when the initial law has more than one state: a
point mass places the particles without a draw.

Event loops draw their uniforms through a :class:`UniformBlock` on their
stream's ``TAG_EVENTS`` child, and the graphical Fleming-Viot engine draws
the marks of all its particles from one such block.  The Fleming-Viot
kernel refills the same doubling chunks in its own loop, and the branching
estimator, which interleaves uniforms with Poisson and multinomial draws on
one generator, refills its own fixed-size blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Purpose tags used as the last path component.  Small named integers keep
# paths printable in summaries.
TAG_EVENTS = 1
TAG_INIT = 2


@dataclass(frozen=True)
class RngStream:
    """A root seed plus an integer path identifying one independent stream."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"a stream seed must be non-negative, got {self.seed}")
        if self.path and min(self.path) < 0:
            raise ValueError(f"stream path components must be non-negative, got {self.path}")

    def child(self, *indices: int) -> "RngStream":
        """Derive the stream whose path extends this one by ``indices``."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator for this (seed, path) pair.

        Calling twice returns two generators that produce identical draws.
        Philox keys itself from the seed sequence as
        ``generate_state(2, uint64)``; handing it the sequence, not the key,
        spares the throw-away OS-entropy sequence a bare ``key=`` builds.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


class UniformBlock:
    """Scalar uniforms pulled from pre-drawn blocks of one stream.

    Event loops consume one uniform at a time; drawing them in blocks
    amortizes the generator call overhead.  Values are handed out as plain
    Python floats because the consumers do scalar arithmetic.

    The block derives and owns the stream's generator.  It starts at 64
    floats and doubles on each refill up to ``size``, so a short replica
    pays for the few hundred draws it uses, not for ``size``.  Philox output
    does not depend on how it is chunked, so the values are those of one
    long ``stream.generator().random(...)`` draw.
    """

    __slots__ = ("_gen", "_size", "_len", "_buf", "_pos")

    def __init__(self, stream: RngStream, size: int = 1 << 14):
        self._gen = stream.generator()
        self._size = size
        self._len = min(64, size)
        self._buf = self._gen.random(self._len).tolist()
        self._pos = 0

    def u(self) -> float:
        """Next uniform in [0, 1)."""
        if self._pos == self._len:
            self._len = min(2 * self._len, self._size)
            self._buf = self._gen.random(self._len).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def exp(self, rate: float) -> float:
        """Next exponential waiting time with the given rate."""
        # -log(1 - u) keeps u = 0 safe; u is in [0, 1).
        return -math.log1p(-self.u()) / rate
