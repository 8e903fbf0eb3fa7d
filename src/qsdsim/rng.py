"""Reproducible random streams.

Every stochastic routine in the package draws from an :class:`RngStream`,
which is a counter-based Philox generator keyed by a root seed and an integer
path such as ``(replica, particle, purpose)``.  Streams with distinct paths
are statistically independent, and an identical ``(seed, path)`` pair replays
the exact same draws, which is what makes replica-level runs bit-for-bit
reproducible.  Event loops draw their uniforms through a
:class:`UniformBlock` on their stream's ``TAG_EVENTS`` child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Purpose tags used as the last path component.  Small named integers keep
# paths printable in summaries.
TAG_EVENTS = 1
TAG_INIT = 2
TAG_INTERNAL = 3
TAG_VOTER = 4


@dataclass(frozen=True)
class RngStream:
    """A root seed plus an integer path identifying one independent stream."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        """Derive the stream whose path extends this one by ``indices``."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator for this (seed, path) pair.

        Calling twice returns two generators that produce identical draws.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))


class UniformBlock:
    """Scalar uniforms pulled from pre-drawn blocks.

    Event loops consume one uniform at a time; drawing them in blocks
    amortizes the generator call overhead.  Values are handed out as plain
    Python floats because the consumers do scalar arithmetic.

    ``source`` is an :class:`RngStream` or a ``np.random.Generator``:

    * A block built on a stream owns the generator it derives.  It starts
      at 64 floats and doubles on each refill up to ``size``, so a short
      replica pays for the few hundred draws it uses, not for ``size``.
      Philox output does not depend on how it is chunked, so the values are
      those of one long ``stream.generator().random(...)`` draw.
    * A block built on a generator borrows it and refills ``size`` floats
      at a time.  Other consumers may draw from the same generator between
      refills (the branching estimator shares one with its offspring
      blocks), and their values depend on where the refills fall, so a
      borrowed generator keeps fixed refill points.
    """

    __slots__ = ("_gen", "_size", "_len", "_buf", "_pos")

    def __init__(self, source: RngStream | np.random.Generator, size: int = 1 << 14):
        if isinstance(source, RngStream):
            self._gen = source.generator()
            self._len = min(64, size)
        else:
            self._gen = source
            self._len = size
        self._size = size
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
