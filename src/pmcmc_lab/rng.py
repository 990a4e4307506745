"""Counter-based random substreams for reproducible simulation.

Every stochastic routine in the package draws from a :class:`SubstreamRng`,
which maps a short tuple of integer coordinates ``(step, time, particle,
site)`` onto an independent Philox stream.  A draw is addressed by *where* it
happens, never by *when* it happens, so results do not depend on loop order.

A particle pass draws one block per ``(step, time, site)``: the stream
``(step, time, 0, site)`` yields the uniforms of all replicates and free
slots at once, row by row.  Replicate r reads the same values whether it runs
alone or among R rows, so a scalar pass equals row 0 of a batched one, and a
pass costs a fixed number of streams whatever the particle count.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import IndexOutOfRange

# Draw-site tags (the last stream coordinate).
SITE_INIT = 0
SITE_ANCESTOR = 1
SITE_MOVE = 2
SITE_FINAL = 3
SITE_ACCEPT = 4
SITE_THETA = 5

# Field widths of the four coordinates in the Philox counter.
_FIELDS = (("step", 64), ("time", 64), ("particle", 48), ("site", 16))


class _Key(ISeedSequence):
    """Seeds a Philox with a fixed key.

    Philox draws its key as ``generate_state(2, uint64)`` of its seed
    sequence; ``Philox(key=...)`` would first build a SeedSequence from OS
    entropy, which is most of the cost of opening a stream.
    """

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class SubstreamRng:
    """A 64-bit seed plus a coordinate scheme for independent substreams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = _Key(np.random.SeedSequence(self.seed).generate_state(2, np.uint64))

    def stream(self, *coords: int) -> np.random.Generator:
        """Return the generator for a draw site addressed by up to 4 coordinates.

        Step and time take one high word of the Philox counter each; particle
        and site share the third (48 and 16 bits).  The low word is left at
        zero because the generator increments it as it produces output, so a
        single stream can emit 2^66 values before touching any other stream's
        counter range.  A coordinate outside its field would alias another
        stream and raises IndexOutOfRange.
        """
        if len(coords) > 4:
            raise IndexOutOfRange("at most 4 stream coordinates are supported")
        c = [int(v) for v in coords] + [0] * (4 - len(coords))
        for (name, bits), value in zip(_FIELDS, c):
            if not 0 <= value < (1 << bits):
                raise IndexOutOfRange(f"stream {name} coordinate {value} outside [0, 2^{bits})")
        counter = np.array([0, (c[2] << 16) | c[3], c[1], c[0]], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(self._key, counter=counter))

    def spawn(self, index: int) -> "SubstreamRng":
        """Derive an independent child (used for parallel chains/replicates)."""
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        return SubstreamRng(int(child.generate_state(1, np.uint64)[0]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SubstreamRng(seed={self.seed})"


def as_substream(rng: "SubstreamRng | int") -> SubstreamRng:
    """Accept either a seed or an existing substream container."""
    if isinstance(rng, SubstreamRng):
        return rng
    return SubstreamRng(int(rng))
