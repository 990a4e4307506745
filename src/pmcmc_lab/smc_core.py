"""The particle pass: propagation, multinomial resampling, pinned slots, and
the normalizing-constant estimator.

:func:`particle_pass` is the one implementation of a pass: a
:class:`_PassPlan` (what stays fixed from step to step: pinned and free
slots, the counter words of every uniform block), built once
per sampler or once per call, and its run.  It runs R independent replicates
as ``(R, N)`` integer arrays; pinned trajectories (the reference of a
conditional pass, or two of them) are forced into their slots, every other
slot resamples and moves.  :func:`_pin_layout` (lineages) and
:func:`_checked_paths` (paths) are the one admissibility check of a pinned
path, for the pass and, merged by :func:`_pin_schedule`, for every exact
engine.  :func:`categorical_cdf` is the one inverse-CDF draw behind every
sampler and :func:`multinomial_resample`; the initial and move draws read
cumulative tables built once per model (:class:`PassTables`).
Every pass comes back as one :class:`BatchedPass`: states and weights for
all times, ancestor indices for times 2..T and one terminal index per
replicate, drawn from the final weights.  :func:`run_smc` is the one-replicate
plain pass.  The product over time of average weights is the (unbiased)
normalizing-constant estimate, always handled in log space
(:meth:`BatchedPass.log_gamma`).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AllWeightsZero,
    DimensionMismatch,
    IndexOutOfRange,
    LineageClash,
    NegativePotential,
    TooFewParticles,
    ZeroPinnedPotential,
)
from .rng import SITE_ANCESTOR, SITE_FINAL, SITE_INIT, SITE_MOVE, _words, as_substream

# Search strategies of :func:`categorical_cdf` beyond a single row: count one
# inner sum at a time up to _COLUMNS sums, and bisect beyond.  At 65536 draws
# counting beat bisection 3.5x at 16 categories and 1.6x at 64, and tied at
# about 128 (2-vCPU x86 host, numpy 2.4).
_COLUMNS = 64

# numpy's add.reduce sums a contiguous row of fewer than 8 terms left to right
# (its pairwise blocks start at 8), and cumsum and prod are sequential at any
# length, so over rows this short a fold column by column gives the same bits.
# Over thousands of rows it is 2-18x faster, as numpy's loop costs about 15 ns
# a row (in process, 2-vCPU x86 host, numpy 2.4).
_SHORT = 8


def categorical_cdf(cdf, u) -> np.ndarray:
    """Inverse-CDF draws from cumulative sums: ``cdf`` (..., K), uniforms ``u``
    (..., n) -> integer indices (..., n).

    Each uniform is scaled to the last cumulative sum of its row and located
    with ``searchsorted(..., side="right")`` semantics: the draw is the number
    of the K-1 inner sums at or below u * total.  A zero weight repeats its
    predecessor's cumulative sum, so no uniform in [0, 1) lands on it, and a
    trailing zero is never reached because u * total stays below the total.
    A leading axis of length 1 is shared by every row of ``u``.

    The search follows the shape of the draw; every strategy counts the same
    sums, so all draw the same index:

    * a single row of sums against a single row of uniforms, of any size
      (the one-replicate passes), is one ``searchsorted`` call;
    * up to _COLUMNS (64) inner sums: one vectorised comparison per sum,
      counted in place;
    * beyond: binary lifting over the inner sums, padded with +inf to a
      power of two, in ceil(log2 K) array passes (n log K work per row);
      each pass gathers the probed sums and adds the step where they are at
      or below the scaled uniform, with no masked copy.
    """
    K = cdf.shape[-1]
    v = u * cdf[..., -1:]
    if cdf.size == K and v.size == v.shape[-1]:  # one row of each
        return cdf.ravel()[:-1].searchsorted(v, side="right")
    if K - 1 <= _COLUMNS:
        return _count_columns([cdf[..., k : k + 1] for k in range(K - 1)], v).astype(np.intp)
    width = 1 << (K - 1).bit_length()
    edges = np.full(cdf.shape[:-1] + (width,), np.inf)
    edges[..., : K - 1] = cdf[..., :-1]
    flat = edges.ravel()
    before = np.arange(-1, flat.size - 1, width).reshape(cdf.shape[:-1] + (1,))
    pos = before + np.zeros(v.shape, dtype=np.intp)
    step = width >> 1
    while step:
        pos += (flat.take(pos + step) <= v) * step
        step >>= 1
    return pos - before


def _fold(ufunc, a, scan: bool = False) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, or ``ufunc.accumulate(a, axis=-1)``
    with ``scan``, bit for bit, for ``np.add`` or ``np.multiply`` and ``a``
    of shape (..., rows, n).

    Rows of fewer than _SHORT entries are folded left to right, one column
    at a time.  Longer rows, and one row (a one-replicate pass, where the
    column loop costs a few microseconds more), take numpy's single call."""
    n = a.shape[-1]
    if n >= _SHORT or a.shape[-2] == 1:
        return (ufunc.accumulate if scan else ufunc.reduce)(a, axis=-1)
    if scan:
        out = np.empty_like(a)
        out[..., 0] = a[..., 0]
        for k in range(1, n):
            ufunc(out[..., k - 1], a[..., k], out=out[..., k])
        return out
    out = a[..., 0].copy()
    for k in range(1, n):
        ufunc(out, a[..., k], out=out)
    return out


def _count_columns(columns, v) -> np.ndarray:
    """Number of ``columns`` (arrays broadcasting against v) at or below v,
    as uint8, so fewer than 256 columns; zeros for no column (one category)."""
    if not columns:
        return np.zeros(v.shape, dtype=np.uint8)
    count = (columns[0] <= v).view(np.uint8)
    for col in columns[1:]:
        count += (col <= v).view(np.uint8)
    return count


def multinomial_resample(weights, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. indices, index k with probability weights[k]/sum.
    Raises TooFewParticles unless ``count`` is an integer >= 0."""
    if not isinstance(count, numbers.Integral) or count < 0:
        raise TooFewParticles(f"a resampling draw needs an integer count >= 0, got {count!r}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise NegativePotential("resampling weights must be non-negative")
    if float(w.sum()) <= 0:
        raise AllWeightsZero()
    return categorical_cdf(w[None].cumsum(axis=-1), rng.random((1, count)))[0]


@dataclass(frozen=True)
class BatchedPass:
    """The arrays of R replicates of one pass.

    ``states[t-1, r, i]`` is slot i's state at time t in replicate r,
    ``ancestors[t-2, r, i]`` its parent slot, ``weights`` the potentials of
    the states and ``final`` the terminal selection of each replicate.
    A plan's run views the plan's arrays (:class:`_PassPlan`), so its
    states and weights hold until the plan's next run, and :attr:`totals`,
    summed from the weights when first read, must be read before it too.
    """

    states: np.ndarray      # (T, R, N)
    ancestors: np.ndarray   # (T-1, R, N)
    weights: np.ndarray     # (T, R, N)
    final: np.ndarray       # (R,)

    @cached_property
    def totals(self) -> np.ndarray:
        """The weights of each time summed once, (T, R), for the zero-weight
        check of :func:`particle_pass` and the estimate."""
        return _fold(np.add, self.weights)

    def _walk(self):
        """The one lineage walk: the row offsets (R,) and the index of each
        replicate's selected slot among its time's R * N slots, (T, R)."""
        T, R, N = self.states.shape
        row_start = np.arange(0, R * N, N)
        index = np.empty((T, R), dtype=int)
        np.add(row_start, self.final, out=index[-1])
        for t in range(T - 1, 0, -1):
            np.add(row_start, self.ancestors[t - 1].take(index[t]), out=index[t - 1])
        return row_start, index

    def lineages(self) -> np.ndarray:
        """Slot of each replicate's selected path at every time, (R, T)."""
        row_start, index = self._walk()
        return (index - row_start).T

    def paths(self) -> np.ndarray:
        """The selected path of each replicate, (R, T)."""
        _, index = self._walk()
        T = len(index)
        return self.states.reshape(T, -1)[np.arange(T), index.T]

    def log_gamma(self) -> np.ndarray:
        """Log normalizing-constant estimate of each replicate, (R,): the sum
        over time, in order, of the log average weight, so a replicate gets
        the same value alone or among R.  A replicate whose weights all
        vanish at some time estimates 0: its log estimate is -inf."""
        with np.errstate(divide="ignore"):
            return sum(np.log(self.totals / self.weights.shape[-1]))


@dataclass(frozen=True)
class PassTables:
    """The draw tables of a pass over J models sharing horizon and alphabet.

    Tables are flattened over (model, state): model j's row for state s is
    row ``j * S + s``.  ``move_cdf[t-2]`` holds the cumulative sums of the
    transition rows into time t and ``move_cols[t-2, k]`` their k-th sums,
    one contiguous column per k, so a move draw gathers S-1 columns instead of
    summing every gathered row.  Built once per model
    (:attr:`pmcmc_lab.fk_model.DiscreteFK.tables`) or per joint model
    (:attr:`pmcmc_lab.pgibbs.JointModel.tables`); the sums are the ones a
    draw from the raw rows would compute, so both draw the same indices.
    """

    T: int
    n_states: int
    m1_cdf: np.ndarray      # (J, S)
    move_cdf: np.ndarray    # (T-1, J*S, S)
    move_cols: np.ndarray   # (T-1, S, J*S)
    potentials: np.ndarray  # (T, J*S)
    positive: bool          # every potential > 0

    @classmethod
    def build(cls, models) -> "PassTables":
        T, S = models[0].T, models[0].n_states
        moves = np.array([m.transitions for m in models]).reshape(len(models), T - 1, S, S)
        move_cdf = moves.swapaxes(0, 1).reshape(T - 1, len(models) * S, S).cumsum(axis=-1)
        potentials = np.array([m.potentials for m in models]).swapaxes(0, 1).reshape(T, -1)
        tables = cls(
            T=T,
            n_states=S,
            m1_cdf=np.array([m.m1 for m in models]).cumsum(axis=-1),
            move_cdf=move_cdf,
            move_cols=np.ascontiguousarray(move_cdf.swapaxes(1, 2)),
            potentials=potentials,
            positive=bool(potentials.all()),
        )
        for table in (tables.m1_cdf, tables.move_cdf, tables.move_cols, tables.potentials):
            table.setflags(write=False)
        return tables

    @cached_property
    def live(self) -> np.ndarray:
        """(T, S): whether state s has positive weight at time t under some model."""
        return (self.potentials.reshape(self.T, -1, self.n_states) > 0).any(axis=1)

    @cached_property
    def live_paths(self) -> tuple:
        """Y, the (K, T) paths of :attr:`live` states in mixed radix order
        (time 1 leading), built when first asked for, and the code of paths
        (M, T) in that radix, which numbers Y 0..K-1."""
        T, live = self.T, self.live
        ys = np.array(list(itertools.product(*map(np.flatnonzero, live))))
        ys.setflags(write=False)
        rank, strides = live.cumsum(axis=1) - 1, len(ys) // live.sum(axis=1).cumprod()
        return ys, lambda paths: rank[np.arange(T), paths] @ strides


def _draw_moves(cdf_rows, cols, rows, u) -> np.ndarray:
    """One draw per uniform from the cumulative transition row ``rows`` of a
    :class:`PassTables` time slice; :func:`categorical_cdf` semantics.

    More than one draw over at most _COLUMNS inner sums counts the columns
    of ``cols``; any other draw is :func:`categorical_cdf` of the gathered
    rows (a single draw is one ``searchsorted``)."""
    if rows.size <= 1 or cols.shape[0] - 1 > _COLUMNS:
        return categorical_cdf(cdf_rows[rows], u[..., None])[..., 0]
    v = u * cols[-1].take(rows)
    return _count_columns([col.take(rows) for col in cols[:-1]], v)


def _check_paths(paths, T: int, n_states: int) -> None:
    """Refuse paths that are not T states of the alphabet.

    ``paths`` is an array of numpy's default int (``dtype=int``) with time
    on its first axis, (T,) or (T, R).  Raises DimensionMismatch for a
    length other than T and IndexOutOfRange for a state outside
    [0, n_states), negatives included.
    """
    if len(paths) != T:
        raise DimensionMismatch(f"path of length {len(paths)}, model horizon is {T}")
    # One reduction: a negative state reads as a huge unsigned one.
    if paths.size and paths.view(np.uintp).max() >= n_states:
        bad = paths[(paths < 0) | (paths >= n_states)][0]
        raise IndexOutOfRange(f"state {bad} outside [0, {n_states})")


def _path_rows(paths, T: int) -> np.ndarray:
    """A batch of paths as an (R, T) integer array.

    Raises DimensionMismatch for anything but R paths of length T, a single
    flat path and anything that is not a sequence included, and checks each
    length before the array is built, so unequal lengths never reach numpy.
    """
    if not isinstance(paths, np.ndarray):
        if not hasattr(paths, "__len__"):
            raise DimensionMismatch(f"paths {paths!r} are not a sequence of paths of length {T}")
        paths = list(paths)
        for path in paths:
            if not hasattr(path, "__len__") or len(path) != T:
                raise DimensionMismatch(f"a batch of paths holds {path!r}, not a path of length {T}")
    rows = np.asarray(paths, dtype=int)
    if rows.shape == (0,):  # no paths
        return rows.reshape(0, T)
    if rows.ndim != 2 or rows.shape[1] != T:
        raise DimensionMismatch(f"a batch of paths of shape {rows.shape}, not (R, {T})")
    return rows


def _pin_layout(T: int, N: int, lineages):
    """Merge pin lineages into per-time maps: ``owners[t]`` maps each slot
    pinned at time t+1 to the first pin holding it, ``parents[t-1]`` to its
    parent slot, and ``clashes`` lists (t, slot, j, k) for pins j < k that
    share a slot at time t+1, whose states a run must compare.

    A lineage is T 0-based slots.  The one particle-count check of the pass
    and the exact engines: DimensionMismatch for an N that is not an
    integer and TooFewParticles for N < 1, before any lineage is read.
    Raises DimensionMismatch for a lineage whose length is not T,
    IndexOutOfRange for a slot outside [0, N), and LineageClash when two
    lineages give one slot different parents.
    """
    if not isinstance(N, numbers.Integral):
        raise DimensionMismatch(f"a pass takes an integer particle count, got N={N!r}")
    if N < 1:
        raise TooFewParticles(f"a pass needs at least one particle, got N={N}")
    owners = [{} for _ in range(T)]
    parents = [{} for _ in range(T - 1)]
    clashes = []
    for k, lineage in enumerate(lineages):
        if len(lineage) != T:
            raise DimensionMismatch(f"pin lineage of length {len(lineage)}, model horizon is {T}")
        slots = [int(s) for s in lineage]
        if min(slots) < 0 or max(slots) >= N:
            raise IndexOutOfRange(f"pinned slot outside [0, {N}): lineage {tuple(slots)}")
        for t, slot in enumerate(slots):
            j = owners[t].setdefault(slot, k)
            if j != k:
                clashes.append((t, slot, j, k))
            # The parent recorded for this slot, or recorded now.
            if t and parents[t - 1].setdefault(slot, slots[t - 1]) != slots[t - 1]:
                raise LineageClash(f"slot {slot} at time {t + 1} pinned to two parents")
    return owners, parents, clashes


def _checked_paths(tables: PassTables, paths, clashes=(), offset=None, rows=None) -> list:
    """The pinned ``paths`` as integer arrays, (T,) or (T, R), each checked
    once as one array over time and replicates.

    Replicate r is checked under the table rows ``offset[r] + state``
    (model 0 when ``offset`` is None).  Raises DimensionMismatch for a path
    whose length is not T or, given ``rows``, with another replicate count,
    IndexOutOfRange for a state outside the alphabet, ZeroPinnedPotential
    for a state with zero weight under its replicate's model, and
    LineageClash when two pins of a ``clashes`` entry (see
    :func:`_pin_layout`) hold different states in any replicate.
    """
    T = tables.T
    out = []
    for path in paths:
        path = np.asarray(path, dtype=int)
        _check_paths(path, T, tables.n_states)
        if rows is not None and path.ndim == 2 and path.shape[1] != rows:
            raise DimensionMismatch(f"pinned paths of {path.shape[1]} replicates for {rows} rows")
        # Only a table with a zero weight can refuse a state of the alphabet,
        # and gathering the pinned weights costs more than the rest of the check.
        if not tables.positive:
            cells = path.reshape(T, -1) + (0 if offset is None else offset.T)
            g = tables.potentials[np.arange(T)[:, None], cells]
            if not g.all():
                t = int(np.flatnonzero(~g.all(axis=1))[0]) + 1
                raise ZeroPinnedPotential(f"pinned state at time {t} carries zero weight")
        out.append(path)
    for t, slot, j, k in clashes:
        if np.any(out[j][t] != out[k][t]):
            raise LineageClash(f"slot {slot} at time {t + 1} pinned to two states")
    return out


def _pin_schedule(tables: PassTables, pins, N: int):
    """Check pinned trajectories and merge them into per-time slot/state and
    slot/parent maps for the exact engines, with the checks a pass runs.

    ``pins`` is a list of (lineage, path) pairs; a lineage is T 0-based
    slots and ``path[t]`` the state at time t+1, an int or one state per
    replicate ((T,) or (T, R)).  Raises as :func:`_pin_layout` does for the
    lineages and as :func:`_checked_paths` does for the paths.
    """
    lineages, paths = zip(*pins) if pins else ((), ())
    pin_state, parents, clashes = _pin_layout(tables.T, N, lineages)
    # One path keeps Python ints, as the exact engines key outcomes by them.
    states = [path.tolist() if path.ndim == 1 else path for path in _checked_paths(tables, paths, clashes)]
    for t, owners in enumerate(pin_state):
        for slot, k in owners.items():
            owners[slot] = states[k][t]
    return pin_state, parents


def _checked_pins(model, N: int, paths, lineage=None) -> np.ndarray:
    """``paths`` as an (R, T) array, checked as one batched pin of
    ``model`` on ``lineage`` (slot 0 at every time by default)."""
    rows = _path_rows(paths, model.T)
    if len(rows):
        _pin_schedule(model.tables, [(lineage or (0,) * model.T, rows.T)], N)
    return rows


class _PassPlan:
    """What a pass keeps from step to step: built once from the tables, N,
    the row count and the pin lineages, and run once per step
    (:meth:`run`), so a sampler pays for its layout once.

    Per time it holds the free slots (a slice when the pins lead, else an
    index array); per uniform block, in the order a pass reads them, its
    counter words and width; per pin, the (time, slot) index of its states
    and of its parents, and the parents.  The row count (an integer >= 0,
    else DimensionMismatch) is checked here, N and the lineages by
    :func:`_pin_layout`, the pinned paths by every run.  A run is the
    step's uniform blocks (read by :meth:`run`, a sampler's step or a step
    table) handed to the pass arithmetic (:meth:`run_blocks`).  Its states,
    ancestors and weights are views of three buffers the plan keeps
    (:meth:`_arrays`), so a run's pass holds until the plan's next run,
    which overwrites it.
    """

    def __init__(self, tables: PassTables, N: int, rows: int = 1, lineages=()):
        if not isinstance(rows, numbers.Integral) or rows < 0:
            raise DimensionMismatch(f"a pass takes an integer row count >= 0, got rows={rows!r}")
        T = tables.T
        owners, _, self.clashes = _pin_layout(T, N, lineages)
        self.tables, self.N, self.rows = tables, N, rows
        self._buffers = (np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))
        # Per pin: the index of its states in (T, R, N) and of its parents in
        # (T-1, R, N), and the parents.
        times, slots = np.arange(T), [np.array(lineage, dtype=int) for lineage in lineages]
        self.pins = [((times, slice(None), s), (times[:-1], slice(None), s[1:]), s[:-1, None]) for s in slots]

        # Per time its free slots; per block its counter words and width: the
        # initial or ancestor block of each time and, after time 1, its move
        # block, then the terminal block.
        self.free, self.reads = [], []
        for t, owner in enumerate(owners, 1):
            slots = sorted(owner)
            if slots == list(range(len(slots))):
                self.free.append(slice(len(slots), N))  # a view, not a copy
            else:
                self.free.append(np.array([i for i in range(N) if i not in owner], dtype=int))
            width = N - len(slots)
            self.reads.append((_words(1, SITE_INIT) if t == 1 else _words(t, SITE_ANCESTOR), width))
            if t > 1:
                self.reads.append((_words(t, SITE_MOVE), width))
        self.reads.append((_words(T + 1, SITE_FINAL), 1))

    def run(self, rng, base: int = 0, paths=(), which=None) -> BatchedPass:
        """One pass at step ``base``: pin k holds ``paths[k]`` (checked by
        :func:`_checked_paths`), replicate r runs model ``which[r]``; as
        :func:`particle_pass` describes, draw for draw, on the (rows, width)
        blocks of :attr:`reads` from
        :meth:`~pmcmc_lab.rng.SubstreamRng.step_blocks`: the base is checked
        now, and a pass holds few blocks at once."""
        blocks = as_substream(rng).step_blocks(self.reads, base, self.rows)
        return self.run_blocks(blocks, self.rows, paths, which)

    def run_blocks(self, blocks, R: int, paths=(), which=None) -> BatchedPass:
        """The pass on R rows from the uniform ``blocks`` of R rows, an
        iterable of one (R, width) block per entry of :attr:`reads`, in
        order; pins and ``which`` as in :meth:`run`.  R need not be the
        plan's row count, so a one-row plan serves every chunk of a step
        table.  A free replicate whose weights all vanish runs on to its
        estimate of 0; a pinned one cannot, as its pins carry weight."""
        tables = self.tables
        T, S = tables.T, tables.n_states
        # Replicate r reads table row which[r] * S + state.  One model needs
        # no offset, and skipping it saves an index array per lookup.
        if which is None:
            m1_cdf, offset = tables.m1_cdf[:1], None
        else:
            m1_cdf, offset = tables.m1_cdf[which], np.asarray(which, dtype=int)[:, None] * S
        # A pass serves its R rows only: refuse what numpy would
        # broadcast or fail on.
        if offset is not None and len(offset) != R:
            raise DimensionMismatch(f"{len(offset)} model indices for the plan's {R} rows")
        paths = _checked_paths(tables, paths, self.clashes, offset, R)
        row_start = np.arange(0, R * self.N, self.N)[:, None]
        states, ancestors, weights = self._arrays(R)
        for (index, parent_index, parent), path in zip(self.pins, paths):
            states[index] = path.reshape(T, -1)
            ancestors[parent_index] = parent
        u = iter(blocks)
        for t, free in enumerate(self.free, 1):
            x = states[t - 1]
            if t == 1:
                x[:, free] = categorical_cdf(m1_cdf, next(u))
            else:
                parents = categorical_cdf(_fold(np.add, weights[t - 2], scan=True), next(u))
                ancestors[t - 2][:, free] = parents
                src = states[t - 2].take(row_start + parents)
                if offset is not None:
                    src += offset
                x[:, free] = _draw_moves(tables.move_cdf[t - 2], tables.move_cols[t - 2], src, next(u))
            weights[t - 1] = tables.potentials[t - 1][x if offset is None else offset + x]
        final = categorical_cdf(_fold(np.add, weights[-1], scan=True), next(u))[:, 0]
        return BatchedPass(states, ancestors, weights, final)

    def _arrays(self, R: int) -> tuple:
        """The (T, R, N) states, (T-1, R, N) ancestors and (T, R, N) weights
        of a run on R rows, as views of the plan's three buffers, grown to
        the most particle-times run.  A sampler's step, or each row block of
        it, so reuses one set of arrays: glibc hands freed arrays of this
        size back to the system, and each step would fault fresh ones in."""
        T = self.tables.T
        n = T * R * self.N
        if self._buffers[0].size < n:
            self._buffers = (np.empty(n, dtype=int), np.empty(n, dtype=int), np.empty(n))
        states, ancestors, weights = (b[:n].reshape(T, R, self.N) for b in self._buffers)
        return states, ancestors[1:], weights


def particle_pass(tables: PassTables, N: int, rng, base: int = 0, rows: int = 1, pins=None, which=None) -> BatchedPass:
    """One pass with N particles and multinomial resampling, for ``rows``
    independent replicates at once: a one-off :class:`_PassPlan`, run once.

    ``tables`` are the :class:`PassTables` of the models (``model.tables``,
    ``jm.tables`` or ``PassTables.build(models)``); replicate r runs model
    ``which[r]`` (model 0 when ``which`` is None).  ``pins`` lists the pinned
    trajectories as (lineage, path) pairs: slot ``lineage[t]`` holds
    ``path[t]`` (an int, or one state per replicate) at time t+1, with parent
    slot ``lineage[t-1]``.  They are checked before any draw, as
    :func:`_pin_schedule` checks them.  Every other slot draws its parent
    and its move.

    Initial and move draws read the cumulative tables, built once per model,
    so no draw sums a row; ancestor draws sum the current weights once per
    time.  Passes of more than one row and fewer than 8 particles sum their
    weights, and total them, one column at a time (:func:`_fold`), which
    gives numpy's bits.
    Each search follows the draw's shape (see
    :func:`categorical_cdf`): the initial, ancestor and final draws of one
    row, and a single move draw, are one ``searchsorted`` call each; other
    draws count their sums one by one up to _COLUMNS (64) sums (a move draw
    the columns of ``move_cols``) and bisect beyond.  Each
    ``(base, time, site)`` block is one substream from which the replicates
    read ``(rows, free slots)`` uniforms, so replicate 0 of a pass does not
    depend on ``rows``.  Raises AllWeightsZero, naming the first time at
    which every weight of some replicate vanishes; a plan's run gives such a
    replicate its estimate of 0 instead (:meth:`BatchedPass.log_gamma`).
    """
    pins = pins or ()
    plan = _PassPlan(tables, N, rows, [lineage for lineage, _ in pins])
    p = plan.run(rng, base, [path for _, path in pins], which)
    # Checked once for all times: a draw from all-zero weights is still an
    # index in range, so the first dead time is the one a check per time finds.
    if np.count_nonzero(p.totals) < p.totals.size:
        raise AllWeightsZero(time=int((p.totals <= 0).any(axis=-1).argmax()) + 1)
    return p


def run_smc(model, N: int, rng, base: int = 0) -> BatchedPass:
    """One standard pass: the single-replicate :func:`particle_pass`."""
    return particle_pass(model.tables, N, rng, base=base)


