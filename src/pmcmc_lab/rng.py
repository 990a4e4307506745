"""Counter-based random substreams for reproducible simulation.

Every stochastic routine in the package draws from a :class:`SubstreamRng`,
which maps a short tuple of integer coordinates ``(step, time, particle,
site)`` onto an independent Philox stream.  A draw is addressed by *where* it
happens, never by *when* it happens, so results do not depend on loop order.

A particle pass draws one block per ``(step, time, site)``: the stream
``(step, time, 0, site)`` yields the uniforms of all replicates and free
slots at once, row by row, through :meth:`SubstreamRng.uniforms`.  Replicate
r reads the same values whether it runs alone or among R rows, so a scalar
pass equals row 0 of a batched one, and a pass costs a fixed number of
streams whatever the particle count.
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
    """A 64-bit seed plus a coordinate scheme for independent substreams.
    A negative seed raises IndexOutOfRange."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise IndexOutOfRange(f"seed {self.seed} is negative")
        key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        self._key = _Key(key)
        self._key_words = tuple(int(k) for k in key)
        self._gen = None  # the generator uniforms() re-positions
        # The state it is set to: a fresh Philox's, empty buffer, at the
        # counter of the stream read, the only entry that changes.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": self._key_words},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def stream(self, *coords: int) -> np.random.Generator:
        """Return a fresh generator for a draw site addressed by up to 4
        coordinates.

        Step and time take one high word of the Philox counter each; particle
        and site share the third (48 and 16 bits).  The low word is left at
        zero because the generator increments it as it produces output, so a
        single stream can emit 2^66 values before touching any other stream's
        counter range.  A coordinate outside its field would alias another
        stream and raises IndexOutOfRange.
        """
        counter = np.array(_counter(coords), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(self._key, counter=counter))

    def uniforms(self, *coords: int, shape) -> np.ndarray:
        """Uniforms on [0, 1) of the given shape from the start of the stream
        at ``coords``: equal to ``stream(*coords).random(shape)``.

        Re-positions one generator kept by this object instead of opening a
        new one (setting its state costs about a third of constructing a
        generator).  The state dict it is set from is kept too, and only its
        counter changes between calls; a refused coordinate changes nothing.
        Both are shared by every call, so this is not safe to call from
        several threads at once.
        """
        return self._block(_counter(coords), shape)

    def _block(self, counter: tuple, shape) -> np.ndarray:
        """:meth:`uniforms` at counter words already checked by
        :func:`_counter`, for a caller that checks them once and reads
        the same blocks at every step."""
        self._state["state"]["counter"] = counter
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(self._key))
        self._gen.bit_generator.state = self._state
        return self._gen.random(shape)

    def spawn(self, index: int) -> "SubstreamRng":
        """Derive an independent child (used for parallel chains/replicates);
        a negative index raises IndexOutOfRange."""
        if index < 0:
            raise IndexOutOfRange(f"spawn index {index} is negative")
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        return SubstreamRng(int(child.generate_state(1, np.uint64)[0]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SubstreamRng(seed={self.seed})"


def _counter(coords) -> tuple:
    """The Philox counter words of the stream at ``coords`` (see
    :meth:`SubstreamRng.stream`), the step last; raises IndexOutOfRange for
    a coordinate that would alias another stream."""
    if len(coords) > 4:
        raise IndexOutOfRange("at most 4 stream coordinates are supported")
    c = step, time, particle, site = (*map(int, coords), 0, 0, 0, 0)[:4]
    # A negative value, or one wider than its field, shifts to nonzero.
    if step >> 64 or time >> 64 or particle >> 48 or site >> 16:
        name, bits, value = next((n, b, v) for (n, b), v in zip(_FIELDS, c) if v >> b)
        raise IndexOutOfRange(f"stream {name} coordinate {value} outside [0, 2^{bits})")
    return (0, (particle << 16) | site, time, step)


def as_substream(rng: "SubstreamRng | int") -> SubstreamRng:
    """Accept either a seed or an existing substream container."""
    if isinstance(rng, SubstreamRng):
        return rng
    return SubstreamRng(int(rng))
