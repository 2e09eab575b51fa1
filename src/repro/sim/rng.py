"""Reproducible random-number streams for simulation components.

Every stochastic component of a simulation (each client's move-block
generator, the network latency sampler, initial placement, …) draws from
its *own* named stream.  Streams are spawned deterministically from a
single root seed via :class:`numpy.random.SeedSequence`, so

* the same seed reproduces the same run bit-for-bit, and
* adding a new consumer does not perturb the draws of existing ones
  (streams are keyed by name, not by creation order).

The paper's distributions (Table 1) are exponential with the remote-call
duration normalized to mean 1; :meth:`Stream.exponential` is the
workhorse.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional

import numpy as np


#: Standard-exponential values fetched per refill of a stream's block.
_BLOCK = 256


class Stream:
    """A single named random stream (thin wrapper over a numpy Generator).

    Exponential draws are served from a block of ``_BLOCK`` prefetched
    standard-exponential values: numpy computes ``exponential(mean)`` as
    ``mean * standard_exponential()`` over the same ziggurat stream, so
    ``mean * block[i]`` is bit-for-bit the scalar draw at a fraction of
    its cost.  The prefetch is exact for streams that mix draw kinds
    too: the bit-generator state is saved before each refill, and the
    first draw of any other kind rewinds to it, replays the values
    already handed out, and leaves the stream on scalar draws for good.
    """

    __slots__ = ("name", "_gen", "_block", "_rewind")

    def __init__(self, name: str, generator: np.random.Generator):
        self.name = name
        self._gen = generator
        #: Prefetched values, reversed so ``pop()`` serves them in draw
        #: order; ``None`` once the stream has fallen back to scalar draws.
        self._block: Optional[List[float]] = []
        #: Bit-generator state from before the current block was drawn.
        self._rewind: Optional[dict] = None

    def exponential(self, mean: float) -> float:
        """Draw from Exp with the given *mean* (not rate).

        A mean of exactly 0 deterministically returns 0.0, which lets
        degenerate configurations (e.g. zero think time) be expressed
        without special-casing at the call sites.
        """
        block = self._block
        if block and mean > 0:
            return mean * block.pop()
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if mean == 0:
            return 0.0
        if block is None:
            return float(self._gen.exponential(mean))
        return mean * self._refill()

    def _refill(self) -> float:
        """Prefetch the next block; returns its first value."""
        gen = self._gen
        self._rewind = gen.bit_generator.state
        block = gen.standard_exponential(_BLOCK).tolist()
        block.reverse()
        self._block = block
        return block.pop()

    def _scalar(self) -> np.random.Generator:
        """The generator, positioned right after the last draw handed out.

        Called by every non-exponential draw.  The first call undoes the
        unconsumed part of the prefetched block (restore the saved
        state, re-draw the consumed count) and ends prefetching on this
        stream, so every later draw of any kind is the plain numpy call.
        """
        block = self._block
        if block is not None:
            self._block = None
            if self._rewind is not None:
                self._gen.bit_generator.state = self._rewind
                self._rewind = None
                self._gen.standard_exponential(_BLOCK - len(block))
        return self._gen

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw uniformly from ``[low, high)``."""
        return float(self._scalar().uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Draw a uniform integer from ``[low, high)``."""
        return int(self._scalar().integers(low, high))

    def choice(self, seq):
        """Pick one element of a non-empty sequence uniformly."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._scalar().integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """Shuffle a list in place."""
        self._scalar().shuffle(seq)

    def poisson_count(self, mean: float) -> int:
        """Draw a Poisson-distributed count with the given mean."""
        return int(self._scalar().poisson(mean))

    def geometric_at_least_one(self, mean: float) -> int:
        """Integer-valued draw with the given mean, at least 1.

        The paper's N ("number of calls in a move-block") is described
        as exponentially distributed but must be a positive integer.  We
        use ``max(1, round(Exp(mean)))``, which preserves the mean well
        for the means used in the paper (6 and 8) and guarantees every
        block performs at least one call.
        """
        return max(1, int(round(self.exponential(mean))))

    def __repr__(self) -> str:
        return f"<Stream {self.name!r}>"


class RandomStreams:
    """Factory of deterministic, independent named streams.

    Parameters
    ----------
    seed:
        Root seed of the run.  Equal seeds give equal stream families.

    Notes
    -----
    The stream for a name is derived as
    ``SeedSequence([seed, crc32(name)])`` so it depends only on the
    (seed, name) pair, never on how many other streams exist.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating if needed) the stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence([self.seed, digest])
        stream = Stream(name, np.random.default_rng(seq))
        self._streams[name] = stream
        return stream

    def streams(self, names: Iterable[str]) -> Dict[str, Stream]:
        """Bulk-create streams for a set of names."""
        return {name: self.stream(name) for name in names}

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} active={len(self._streams)}>"
