"""The particle pass: propagation, multinomial resampling, pinned slots, and
the normalizing-constant estimator.

:func:`particle_pass` is the one implementation of a pass.  It runs R
independent replicates as ``(R, N)`` integer arrays; pinned trajectories
(the reference of a conditional pass, or two of them) are forced into their
slots, every other slot resamples and moves.  :func:`_pin_schedule` is the
one admissibility check of a pinned path, for the pass and for every exact
engine.  :func:`categorical_cdf` is the one inverse-CDF draw behind every
sampler (:func:`categorical` when the weights are raw); the initial and move
draws read cumulative tables built once per model (:class:`PassTables`).
Every pass comes back as one :class:`BatchedPass`: states and weights for
all times, ancestor indices for times 2..T and one terminal index per
replicate, drawn from the final weights.  :func:`run_smc` is the one-replicate
plain pass.  The product over time of average weights is the (unbiased)
normalizing-constant estimate, always handled in log space
(:meth:`BatchedPass.log_gamma`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllWeightsZero,
    DegenerateEstimate,
    DimensionMismatch,
    IndexOutOfRange,
    LineageClash,
    NegativePotential,
    TooFewParticles,
    ZeroPinnedPotential,
)
from .rng import SITE_ANCESTOR, SITE_FINAL, SITE_INIT, SITE_MOVE, as_substream

# Search strategies of :func:`categorical_cdf`: one pass over the inner sums
# for a single row of sums and of draws, or while there are at most _ONE_PASS
# compared pairs; otherwise count one inner sum at a time up to _COLUMNS sums,
# and bisect beyond.  At 65536 draws counting beat bisection 3.5x at 16
# categories and 1.6x at 64, and tied at about 128 (2-vCPU x86 host, numpy 2.4).
_ONE_PASS = 4096
_COLUMNS = 64


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

    * one pass over the sums: a single row of sums against a single row of
      uniforms, of any size (the one-replicate passes), is one
      ``searchsorted`` call; otherwise, up to _ONE_PASS (4096) compared
      pairs, one comparison of every draw with every sum;
    * up to _COLUMNS (64) inner sums: one vectorised comparison per sum,
      counted in place (the batched passes);
    * beyond: binary lifting over the inner sums, padded with +inf to a
      power of two, in ceil(log2 K) array passes (n log K work per row).
    """
    K = cdf.shape[-1]
    v = u * cdf[..., -1:]
    if cdf.size == K and v.size == v.shape[-1]:  # one row of each
        return cdf.ravel()[:-1].searchsorted(v, side="right")
    if v.size * (K - 1) <= _ONE_PASS:
        return np.add.reduce(cdf[..., None, :-1] <= v[..., None], axis=-1)
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
        probe = pos + step
        np.copyto(pos, probe, where=flat[probe] <= v)
        step >>= 1
    return pos - before


def _count_columns(columns, v) -> np.ndarray:
    """Number of ``columns`` (arrays broadcasting against v) at or below v,
    as uint8, so fewer than 256 columns."""
    count = (columns[0] <= v).view(np.uint8)
    for col in columns[1:]:
        count += (col <= v).view(np.uint8)
    return count


def categorical(weights, u) -> np.ndarray:
    """Inverse-CDF draws from raw weights: ``weights`` (..., K), uniforms
    ``u`` (..., n) -> (..., n).  :func:`categorical_cdf` of the cumulative
    sums; use that directly when the same weights serve many calls."""
    return categorical_cdf(np.asarray(weights).cumsum(axis=-1), u)


def multinomial_resample(weights, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. indices, index k with probability weights[k]/sum.
    Raises TooFewParticles for a negative ``count``."""
    if count < 0:
        raise TooFewParticles(f"a resampling draw needs count >= 0, got {count}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise NegativePotential("resampling weights must be non-negative")
    if float(w.sum()) <= 0:
        raise AllWeightsZero()
    return categorical(w[None], rng.random((1, count)))[0]


@dataclass(frozen=True)
class BatchedPass:
    """The arrays of R replicates of one pass.

    ``states[t-1, r, i]`` is slot i's state at time t in replicate r,
    ``ancestors[t-2, r, i]`` its parent slot, ``weights`` the potentials of
    the states and ``final`` the terminal selection of each replicate.
    ``totals`` sums the weights of each time once, for the pass's zero-weight
    check and the estimate.
    """

    states: np.ndarray      # (T, R, N)
    ancestors: np.ndarray   # (T-1, R, N)
    weights: np.ndarray     # (T, R, N)
    final: np.ndarray       # (R,)
    totals: np.ndarray = field(init=False)  # (T, R)

    def __post_init__(self):
        object.__setattr__(self, "totals", np.add.reduce(self.weights, axis=-1))

    def lineages(self) -> np.ndarray:
        """Slot of each replicate's selected path at every time, (R, T)."""
        T, R, N = self.states.shape
        slots = np.empty((T, R), dtype=int)
        slots[-1] = self.final
        row_start = np.arange(0, R * N, N)
        for t in range(T - 1, 0, -1):
            self.ancestors[t - 1].take(row_start + slots[t], out=slots[t - 1])
        return slots.T

    def paths(self) -> np.ndarray:
        """The selected path of each replicate, (R, T)."""
        T, R, _ = self.states.shape
        return self.states[np.arange(T), np.arange(R)[:, None], self.lineages()]

    def log_gamma(self) -> np.ndarray:
        """Log normalizing-constant estimate of each replicate, (R,): the sum
        over time, in order, of the log average weight, so a replicate gets
        the same value alone or among R.  Raises DegenerateEstimate if every
        weight at some time is zero."""
        means = self.totals / self.weights.shape[-1]
        if not means.all():
            t = int(np.argwhere(means <= 0)[0][0]) + 1
            raise DegenerateEstimate(f"all weights zero at time {t}")
        return sum(np.log(means))

    @property
    def log_potentials(self) -> np.ndarray:
        """Log of the weights, (T, R, N); -inf for a zero weight."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    def to_csv(self, path) -> None:
        """Columnar debug dump: r, t, i, state, ancestor, logG."""
        T, R, N = self.states.shape
        log_g = self.log_potentials
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "t", "i", "state", "ancestor", "logG"])
            for r, t, i in np.ndindex(R, T, N):
                anc = "" if t == 0 else int(self.ancestors[t - 1, r, i])
                writer.writerow([r, t + 1, i, int(self.states[t, r, i]), anc, repr(float(log_g[t, r, i]))])


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


def _draw_moves(cdf_rows, cols, rows, u) -> np.ndarray:
    """One draw per uniform from the cumulative transition row ``rows`` of a
    :class:`PassTables` time slice; :func:`categorical_cdf` semantics."""
    S = cols.shape[0]
    if rows.size * (S - 1) <= _ONE_PASS or S - 1 > _COLUMNS:
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

    Raises DimensionMismatch for a path whose length is not T before the
    array is built, so unequal lengths never reach numpy.
    """
    if not isinstance(paths, np.ndarray):
        for path in paths:
            if len(path) != T:
                raise DimensionMismatch(f"path of length {len(path)}, model horizon is {T}")
    return np.asarray(paths, dtype=int)


def _pin_schedule(tables: PassTables, pins, N: int, which=None):
    """Check pinned trajectories and merge them into per-time slot/state and
    slot/parent maps: the one admissibility check of a pinned path.

    ``pins`` is a list of (lineage, path) pairs; a lineage is T 0-based
    slots and ``path[t]`` the state at time t+1, an int or one state per
    replicate ((T,) or (T, R)).  Replicate r is checked under model
    ``which[r]`` of ``tables`` (model 0 when ``which`` is None).  Each path
    is checked once, as one array over time and replicates.  Raises
    DimensionMismatch for a lineage or path whose length is not T,
    IndexOutOfRange for a slot outside [0, N) or a state outside the
    alphabet, ZeroPinnedPotential for a state with zero weight under its
    replicate's model, and LineageClash when two trajectories claim one slot
    with different states (in any replicate) or parents.
    """
    T, S = tables.T, tables.n_states
    pin_state = [dict() for _ in range(T)]
    pin_anc = [dict() for _ in range(T - 1)]
    for lineage, path in pins:
        path = np.asarray(path, dtype=int)
        if len(lineage) != T:
            raise DimensionMismatch(f"pin lineage of length {len(lineage)}, model horizon is {T}")
        _check_paths(path, T, S)
        slots = [int(s) for s in lineage]
        if min(slots) < 0 or max(slots) >= N:
            raise IndexOutOfRange(f"pinned slot outside [0, {N}): lineage {tuple(slots)}")
        # Only a table with a zero weight can refuse a state of the alphabet,
        # and gathering the pinned weights costs more than the rest of the check.
        if not tables.positive:
            rows = path.reshape(T, -1) + (0 if which is None else np.asarray(which) * S)
            g = tables.potentials[np.arange(T)[:, None], rows]
            if not g.all():
                t = int(np.flatnonzero(~g.all(axis=1))[0]) + 1
                raise ZeroPinnedPotential(f"pinned state at time {t} carries zero weight")
        # One path keeps Python ints, as the exact engines key outcomes by them.
        states = path.tolist() if path.ndim == 1 else path
        for t, slot in enumerate(slots):
            if slot in pin_state[t] and np.any(pin_state[t][slot] != states[t]):
                raise LineageClash(f"slot {slot} at time {t + 1} pinned to two states")
            pin_state[t][slot] = states[t]
            # The parent recorded for this slot, or recorded now.
            if t and pin_anc[t - 1].setdefault(slot, slots[t - 1]) != slots[t - 1]:
                raise LineageClash(f"slot {slot} at time {t + 1} pinned to two parents")
    return pin_state, pin_anc


def _checked_pins(model, N: int, paths, lineage=None) -> np.ndarray:
    """``paths`` as an (R, T) array, checked as one batched pin of
    ``model`` on ``lineage`` (slot 0 at every time by default)."""
    rows = _path_rows(paths, model.T)
    if len(rows):
        _pin_schedule(model.tables, [(lineage or (0,) * model.T, rows.T)], N)
    return rows


def particle_pass(tables: PassTables, N: int, rng, base: int = 0, rows: int = 1, pins=None, which=None) -> BatchedPass:
    """One pass with N particles and multinomial resampling, for ``rows``
    independent replicates at once.

    ``tables`` are the :class:`PassTables` of the models (``model.tables``,
    ``jm.tables`` or ``PassTables.build(models)``); replicate r runs model
    ``which[r]`` (model 0 when ``which`` is None).  ``pins`` lists the pinned
    trajectories as (lineage, path) pairs: slot ``lineage[t]`` holds
    ``path[t]`` (an int, or one state per replicate) at time t+1, with parent
    slot ``lineage[t-1]``.  They are checked and merged by
    :func:`_pin_schedule` before any draw.  Every other slot draws its parent
    and its move.

    Initial and move draws read the cumulative tables, built once per model,
    so no draw sums a row; ancestor draws sum the current weights once per
    time.  Each search follows the draw's shape (see
    :func:`categorical_cdf`).  Each ``(base, time, site)`` block is one
    substream from which the replicates read ``(rows, free slots)`` uniforms,
    so replicate 0 does not depend on ``rows``.
    """
    if N < 1:
        raise TooFewParticles(f"a pass needs at least one particle, got N={N}")
    rng = as_substream(rng)
    T, R, S = tables.T, rows, tables.n_states
    if pins:
        pin_state, pin_anc = _pin_schedule(tables, pins, N, which)
    else:
        pin_state, pin_anc = [{}] * T, [{}] * (T - 1)
    # Replicate r reads table row which[r] * S + state.  One model needs no
    # offset, and skipping it saves an index array per lookup.
    if which is None:
        m1_cdf, offset = tables.m1_cdf[:1], None
    else:
        m1_cdf, offset = tables.m1_cdf[which], np.asarray(which, dtype=int)[:, None] * S

    def rows_of(states):
        return states if offset is None else offset + states

    row_start = np.arange(0, R * N, N)[:, None]
    states = np.empty((T, R, N), dtype=int)
    ancestors = np.empty((T - 1, R, N), dtype=int)
    weights = np.empty((T, R, N))
    for t in range(1, T + 1):
        slots = sorted(pin_state[t - 1])
        n = N - len(slots)
        if slots == list(range(len(slots))):
            free = slice(len(slots), N)  # a view, not a copy
        else:
            free = np.setdiff1d(np.arange(N), slots)
        x = states[t - 1]
        for s in slots:
            x[:, s] = pin_state[t - 1][s]
        if t == 1:
            x[:, free] = categorical_cdf(m1_cdf, rng.uniforms(base, 1, 0, SITE_INIT, shape=(R, n)))
        else:
            a = ancestors[t - 2]
            for s in slots:
                a[:, s] = pin_anc[t - 2][s]
            u = rng.uniforms(base, t, 0, SITE_ANCESTOR, shape=(R, n))
            a[:, free] = categorical_cdf(weights[t - 2].cumsum(axis=-1), u)
            src = rows_of(states[t - 2].ravel()[row_start + a[:, free]])
            u = rng.uniforms(base, t, 0, SITE_MOVE, shape=(R, n))
            x[:, free] = _draw_moves(tables.move_cdf[t - 2], tables.move_cols[t - 2], src, u)
        weights[t - 1] = tables.potentials[t - 1][rows_of(x)]
    u = rng.uniforms(base, T + 1, 0, SITE_FINAL, shape=(R, 1))
    final = categorical_cdf(weights[-1].cumsum(axis=-1), u)[:, 0]
    p = BatchedPass(states, ancestors, weights, final)
    # Checked once for all times: a draw from all-zero weights is still an
    # index in range, so the first dead time is the one a check per time finds.
    if not p.totals.all():
        raise AllWeightsZero(time=int((p.totals <= 0).any(axis=-1).argmax()) + 1)
    return p


def run_smc(model, N: int, rng, base: int = 0) -> BatchedPass:
    """One standard pass: the single-replicate :func:`particle_pass`."""
    return particle_pass(model.tables, N, rng, base=base)


