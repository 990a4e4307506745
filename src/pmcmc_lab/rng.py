"""Counter-based random substreams for reproducible simulation.

Every stochastic routine in the package draws from a :class:`SubstreamRng`,
which maps a short tuple of integer coordinates ``(step, time, particle,
site)`` onto an independent Philox stream.  A draw is addressed by *where* it
happens, never by *when* it happens, so results do not depend on loop order.

A particle pass draws one block per ``(step, time, site)``: the stream
``(step, time, 0, site)`` yields the uniforms of all replicates and free
slots at once, row by row, as :meth:`SubstreamRng.step_blocks` reads it.
Replicate r reads the same values whether it runs alone, among R rows or in
any block of rows (a block of rows ``first..`` is read from its offset in
the stream), so a scalar pass equals row 0 of a batched one, a chain's row 0
equals the one-row chain, an R-row step run on row blocks equals the step
on all R, and a pass costs a fixed number of streams whatever the particle
count.

Philox is counter-based: the block of a stream is a function of its counter
alone, so the one-row blocks of many steps can be computed at once.  The
one-row table route of the chains reads every block of a span of steps in
one vectorised Philox4x64-10 evaluation in numpy (:meth:`SubstreamRng._blocks`,
equal to numpy's stream bit for bit): there a step reads a few uniforms from
each of its streams, and re-positioning numpy's generator per block costs
more than drawing them.  Every other read (R-row blocks, chains stepped one
row at a time) goes through numpy's generator, one step's blocks at a time
(:meth:`SubstreamRng.step_blocks`, shared by a pass plan and a sampler's
step): there a block holds R N uniforms of one stream, which numpy's C loop
draws about 25 times faster than the numpy-level rounds.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange, _whole

# Draw-site tags (the last stream coordinate).
SITE_INIT = 0
SITE_ANCESTOR = 1
SITE_MOVE = 2
SITE_FINAL = 3
SITE_ACCEPT = 4
SITE_THETA = 5

# Field widths of the four coordinates in the Philox counter.
_FIELDS = (("step", 64), ("time", 64), ("particle", 48), ("site", 16))
_NAMES = tuple(f"stream {name} coordinate" for name, _ in _FIELDS)

# Philox4x64-10 (Salmon et al., SC 2011), as numpy's Philox runs it: the
# multipliers of counter words 0 and 2 and the Weyl increments of the key.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


class SubstreamRng:
    """A 64-bit seed plus a coordinate scheme for independent substreams.
    A seed that is not an integer >= 0 raises IndexOutOfRange."""

    def __init__(self, seed: int):
        self.seed = _whole(seed, 0, name="seed")
        self._key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        self._key_words = tuple(self._key.tolist())
        self._gen = None  # the generator _block() re-positions
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
        counter range.  A coordinate that is not an integer, or lies outside
        its field (and would alias another stream), raises IndexOutOfRange.
        """
        counter = np.array(_counter(coords), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=self._key, counter=counter))

    def step_blocks(self, reads, base: int, rows: int, first: int = 0):
        """Rows ``first .. first + rows - 1`` of the block at step ``base`` of
        each ``(words, width)`` of ``reads`` (as :meth:`_blocks` takes
        them), (rows, width) each, read through numpy's generator when the
        returned iterator reaches it.  The base is checked now:
        IndexOutOfRange before any block is read.

        Row r of a block of width w is its stream's uniforms r w ..
        (r + 1) w - 1, so rows from ``first`` on are read from the low
        counter word floor(first w / 4) (whose 4 outputs hold uniform
        first w), dropping the first (first w) mod 4: a row block equals
        those rows of the whole block, bit for bit."""
        step = _counter((base,))[-1:]
        return (self._rows(words + step, rows, width, first * width) for words, width in reads)

    def _rows(self, counter: tuple, rows: int, width: int, skip: int) -> np.ndarray:
        """(rows, width) uniforms of the stream at ``counter`` after its
        first ``skip``: :meth:`_block` from the low word of the 4 outputs
        that hold the first of them."""
        drop = skip % 4
        u = self._block((skip // 4, *counter[1:]), (drop + rows * width,))
        return u[drop:].reshape(rows, width)

    def _block(self, counter: tuple, shape) -> np.ndarray:
        """Uniforms on [0, 1) of the given shape from the start of the stream
        at ``counter``, the words :func:`_counter` gives (and checks) for
        some ``coords``: equal to ``stream(*coords).random(shape)`` (a low
        word c > 0 starts at the stream's output 4 c).
        Re-positions one generator kept by this object, built on the first
        read (``Philox(key=...)`` draws OS entropy before the key replaces
        it) and set from one kept state dict whose counter alone changes, so
        not safe from several threads."""
        self._state["state"]["counter"] = counter
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self._key))
        self._gen.bit_generator.state = self._state
        return self._gen.random(shape)

    @cached_property
    def _round_keys(self) -> list:
        """The key of each Philox round as Python ints mod 2^64 (numpy
        scalars would warn of the wrap), computed on the first vectorised
        read, so opening a substream costs no more."""
        (k0, k1), (w0, w1) = self._key_words, _PHILOX_W
        return [((k0 + i * w0) % 2**64, (k1 + i * w1) % 2**64) for i in range(_PHILOX_ROUNDS)]

    def _blocks(self, reads, bases) -> list:
        """For each ``(words, width)`` of ``reads`` (counter words of a zero
        low word, as :func:`_counter` gives them, step left out), the
        (len(bases), width) array whose row i is
        ``_block(words + (bases[i],), (1, width))``, bit for bit, all from
        one vectorised Philox evaluation.  A base outside [0, 2^64) raises
        IndexOutOfRange, as :func:`_counter` does."""
        if len(bases):  # every base lies between these two
            _counter((min(bases),)), _counter((max(bases),))
        # Read i takes ceil(width / 4) counters per step, low words 1, 2, ...
        # (numpy's generator steps the low word before each 4 outputs).
        cols = [(j, words[1], words[2]) for words, width in reads for j in range(1, -(-width // 4) + 1)]
        counter = np.empty((4, len(bases), len(cols)), dtype=np.uint64)
        counter[:3] = np.array(cols, dtype=np.uint64).reshape(-1, 3).T[:, None]
        counter[3] = np.array(bases, dtype=np.uint64)[:, None]
        words = _philox(counter.reshape(4, -1), self._round_keys)
        u = (words.T.reshape(len(bases), 4 * len(cols)) >> np.uint64(11)) * 2.0**-53
        out, at = [], 0
        for _, width in reads:
            out.append(u[:, at : at + width])
            at += -(-width // 4) * 4
        return out

    def spawn(self, index: int) -> "SubstreamRng":
        """Derive an independent child (used for parallel chains/replicates);
        an index that is not an integer >= 0 raises IndexOutOfRange."""
        index = _whole(index, 0, name="spawn index")
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return SubstreamRng(child.generate_state(1, np.uint64)[0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"SubstreamRng(seed={self.seed})"


def _counter(coords) -> tuple:
    """The Philox counter words of the stream at ``coords`` (see
    :meth:`SubstreamRng.stream`), the step last; raises IndexOutOfRange for
    a coordinate that is not an integer or would alias another stream."""
    if len(coords) > 4:
        raise IndexOutOfRange("at most 4 stream coordinates are supported")
    checked = [_whole(v, None, name=name) for v, name in zip(coords, _NAMES)]
    c = step, time, particle, site = (*checked, 0, 0, 0, 0)[:4]
    # A negative value, or one wider than its field, shifts to nonzero.
    if step >> 64 or time >> 64 or particle >> 48 or site >> 16:
        name, bits, value = next((n, b, v) for (n, b), v in zip(_FIELDS, c) if v >> b)
        raise IndexOutOfRange(f"stream {name} coordinate {value} outside [0, 2^{bits})")
    return (0, (particle << 16) | site, time, step)


def _words(time: int, site: int) -> tuple:
    """The counter words of the block at (time, site) of any step, the step
    left out, as a pass plan and :meth:`SubstreamRng._blocks` take them."""
    return _counter((0, time, 0, site))[:-1]


def _philox(counter: np.ndarray, round_keys) -> np.ndarray:
    """Philox4x64-10 of each column of a (4, n) uint64 counter array under
    ``round_keys``, its 10 round keys: (4, n) output words.

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).  numpy has no 64 x 64 -> 128-bit
    multiply, so the high words come from 32-bit halves; both multiplies of
    a round run as one (2, n) array."""
    lo32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    m_lo, m_hi = m & lo32, m >> shift
    keys = np.array(round_keys, dtype=np.uint64)[:, :, None]
    x, y = counter[[0, 2]], counter[[1, 3]]  # the multiplied words, the others
    for key in keys:
        x_lo, x_hi = x & lo32, x >> shift
        mid = x_hi * m_lo
        mid += (x_lo * m_lo) >> shift
        cross = x_lo * m_hi
        cross += mid & lo32
        hi = x_hi * m_hi
        hi += mid >> shift
        hi += cross >> shift
        lo = x * m
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]])


def as_substream(rng: "SubstreamRng | int") -> SubstreamRng:
    """Accept either a seed or an existing substream container."""
    if isinstance(rng, SubstreamRng):
        return rng
    return SubstreamRng(rng)
