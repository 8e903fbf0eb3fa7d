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

Every event loop takes its uniforms from one iterator, :func:`uniforms`:
``iter(UniformBlock(stream))`` on the stream's ``TAG_EVENTS`` child for the
Fleming-Viot kernel, history renewal, the Z^mu loop and the graphical
Fleming-Viot engine (the marks of all its particles), and fixed chunks on
the attempt's own generator for the branching estimator, which interleaves
uniforms with Poisson and multinomial draws.  The loops call ``next`` on it
or zip it; none keeps a refill branch of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat, takewhile
from typing import Iterable, Iterator

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


def uniforms(gen: np.random.Generator, sizes: Iterable[int]) -> Iterator[float]:
    """The uniforms of ``gen`` as Python floats, drawn in chunks of ``sizes``.

    A chunk is drawn only when its first value is asked for, so other draws
    on ``gen`` land between chunks.  Philox output does not depend on the
    chunking: the values are those of one long ``gen.random(...)`` draw.
    """
    return chain.from_iterable(map(np.ndarray.tolist, map(gen.random, sizes)))


class UniformBlock:
    """The event-loop uniforms of one stream: iterate it once.

    The block derives and owns the stream's generator, and ``iter(block)``
    is :func:`uniforms` on it, in chunks that start at 64 floats and double
    up to ``size``, so a short replica pays for the few hundred draws it
    uses, not for ``size``.  The values are those of one long
    ``stream.generator().random(...)`` draw.  The class, rather than a
    function, is kept for perfbench's ``rng.blocks`` span, which wraps
    ``__init__``.
    """

    __slots__ = ("_gen", "_size")

    def __init__(self, stream: RngStream, size: int = 1 << 14):
        self._gen = stream.generator()
        self._size = size

    def __iter__(self) -> Iterator[float]:
        doubling = takewhile(self._size.__gt__, (64 << k for k in count()))
        return uniforms(self._gen, chain(doubling, repeat(self._size)))
