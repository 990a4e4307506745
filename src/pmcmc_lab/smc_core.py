"""The particle pass: propagation, multinomial resampling, pinned slots, and
the normalizing-constant estimator.

:func:`particle_pass` is the one implementation of a pass.  It runs R
independent replicates as ``(R, N)`` integer arrays; pinned trajectories
(the reference of a conditional pass, or two of them) are forced into their
slots, every other slot resamples and moves.  :func:`categorical` is the one
inverse-CDF draw behind every sampler.  :func:`run_smc` is the R=1 plain
pass, returned as a :class:`ParticleSystem`: states and log-weights for all
times, ancestor indices for times 2..T, and a single terminal index drawn
from the final weights.  The product over time of average weights is the
(unbiased) normalizing-constant estimate, always handled in log space.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsZero, DegenerateEstimate, ZeroPinnedPotential
from .numerics import logsumexp
from .rng import SITE_ANCESTOR, SITE_FINAL, SITE_INIT, SITE_MOVE, as_substream

# Category count up to which :func:`categorical` compares every sum at once.
_FEW = 32


@dataclass(frozen=True)
class ParticleSystem:
    """States, ancestors and log-weights of one (conditional or not) pass.

    ``states[t-1][i]`` is particle i's state at time t; ``ancestors[t-2][i]``
    its (0-based) parent index drawn at time t; ``final_index`` the terminal
    selection.  Immutable once returned.
    """

    states: tuple            # T rows of N states
    ancestors: tuple         # T-1 rows of N parent indices
    final_index: int
    log_potentials: np.ndarray  # (T, N)

    @property
    def T(self) -> int:
        return len(self.states)

    @property
    def N(self) -> int:
        return len(self.states[0])

    def to_csv(self, path) -> None:
        """Columnar debug dump: t, i, state, ancestor, logG."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "i", "state", "ancestor", "logG"])
            for t in range(1, self.T + 1):
                for i in range(self.N):
                    anc = "" if t == 1 else self.ancestors[t - 2][i]
                    writer.writerow(
                        [t, i, self.states[t - 1][i], anc, repr(float(self.log_potentials[t - 1, i]))]
                    )


@dataclass(frozen=True)
class NormConstEstimate:
    log_value: float

    @property
    def value(self) -> float:
        return float(np.exp(self.log_value))


def categorical(weights, u) -> np.ndarray:
    """Inverse-CDF draws: ``weights`` (..., K), uniforms ``u`` (..., n) -> (..., n).

    Each uniform is scaled to the raw cumulative sum of its weight row and
    located with ``searchsorted(..., side="right")`` semantics: the draw is
    the number of cumulative sums at or below u * total, capped at K-1.  A
    zero weight repeats its predecessor's cumulative sum, so no uniform in
    [0, 1) lands on it, and a trailing zero is never reached because
    u * total stays below the total.  A leading weight axis of length 1 is
    shared by every row of ``u``.

    Up to _FEW (32) categories one comparison pass counts the sums (n K work per
    row); beyond, binary lifting over the K-1 inner sums, padded with +inf to
    a power of two, locates all draws in ceil(log2 K) array passes (n log K
    work per row).  Both count the same sums, so they draw the same index.
    """
    cdf = np.asarray(weights).cumsum(axis=-1)
    K = cdf.shape[-1]
    v = u * cdf[..., -1:]
    if K <= _FEW:
        return (cdf[..., None, :-1] <= v[..., None]).sum(axis=-1)
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


def multinomial_resample(weights, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. indices, index k with probability weights[k]/sum."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if float(w.sum()) <= 0:
        raise AllWeightsZero()
    return categorical(w[None], rng.random((1, count)))[0]


@dataclass(frozen=True)
class BatchedPass:
    """The arrays of R replicates of one pass.

    ``states[t-1, r, i]`` is slot i's state at time t in replicate r,
    ``ancestors[t-2, r, i]`` its parent slot, ``weights`` the potentials of
    the states and ``final`` the terminal selection of each replicate.
    """

    states: np.ndarray      # (T, R, N)
    ancestors: np.ndarray   # (T-1, R, N)
    weights: np.ndarray     # (T, R, N)
    final: np.ndarray       # (R,)

    def lineages(self) -> np.ndarray:
        """Slot of each replicate's selected path at every time, (R, T)."""
        T, R, _ = self.states.shape
        slots = np.empty((R, T), dtype=int)
        slots[:, -1] = self.final
        for t in range(T - 1, 0, -1):
            slots[:, t - 1] = self.ancestors[t - 1][np.arange(R), slots[:, t]]
        return slots

    def paths(self) -> np.ndarray:
        """The selected path of each replicate, (R, T)."""
        T, R, _ = self.states.shape
        return self.states[np.arange(T), np.arange(R)[:, None], self.lineages()]

    def log_gamma(self) -> np.ndarray:
        """Log normalizing-constant estimate of each replicate, (R,)."""
        N = self.states.shape[2]
        return np.log(self.weights.sum(axis=2) / N).sum(axis=0)

    def system(self) -> ParticleSystem:
        """Replicate 0 as a ParticleSystem of Python ints."""
        with np.errstate(divide="ignore"):
            logg = np.log(self.weights[:, 0])
        return ParticleSystem(
            states=tuple(map(tuple, self.states[:, 0].tolist())),
            ancestors=tuple(map(tuple, self.ancestors[:, 0].tolist())),
            final_index=int(self.final[0]),
            log_potentials=logg,
        )


def particle_pass(models, N: int, rng, base: int = 0, rows: int = 1, pins=None, which=None) -> BatchedPass:
    """One pass with N particles and multinomial resampling, for ``rows``
    independent replicates at once.

    ``models`` is a sequence of models sharing horizon and alphabet; replicate
    r runs ``models[which[r]]`` (``models[0]`` when ``which`` is None).
    ``pins`` is the ``(pin_state, pin_anc)`` schedule of
    :func:`pmcmc_lab.csmc._pin_schedule`: per time, pinned slot -> state (one
    int, or one state per replicate) and, from time 2, pinned slot -> parent
    slot.  Every other slot draws its parent and its move.

    Each ``(base, time, site)`` block is one substream from which the
    replicates draw ``(rows, free slots)`` uniforms, so replicate 0 does not
    depend on ``rows``.
    """
    if N < 1:
        raise ValueError("need at least one particle")
    rng = as_substream(rng)
    T, R, S = models[0].T, rows, models[0].n_states
    # Model tables flattened over (model, state): replicate r reads row
    # which[r] * S + state.  One model needs no offset, and skipping it saves
    # an index array per lookup.
    m1 = np.array([m.m1 for m in models])
    moves = np.array([m.transitions for m in models]).swapaxes(0, 1).reshape(T - 1, len(models) * S, S)
    potentials = np.array([m.potentials for m in models]).swapaxes(0, 1).reshape(T, -1)
    if which is None:
        m1, offset = m1[:1], None
    else:
        m1, offset = m1[which], np.asarray(which, dtype=int)[:, None] * S

    def rows_of(table, states):
        return table[states] if offset is None else table[offset + states]

    row_start = np.arange(R)[:, None] * N
    pin_state, pin_anc = pins if pins is not None else ([{}] * T, [{}] * (T - 1))
    states = np.empty((T, R, N), dtype=int)
    ancestors = np.empty((T - 1, R, N), dtype=int)
    weights = np.empty((T, R, N))
    for t in range(1, T + 1):
        slots = list(pin_state[t - 1])
        free = np.ones(N, dtype=bool)
        free[slots] = False
        free = free.nonzero()[0]
        if free.size and free[-1] - free[0] + 1 == free.size:
            free = slice(free[0], free[-1] + 1)  # a view, not a copy
        n = N - len(slots)
        x = states[t - 1]
        x[:, slots] = np.array([pin_state[t - 1][s] for s in slots], dtype=int).T
        if t == 1:
            u = rng.stream(base, 1, 0, SITE_INIT).random((R, n))
            x[:, free] = categorical(m1, u)
        else:
            a = ancestors[t - 2]
            a[:, slots] = [pin_anc[t - 2][s] for s in slots]
            u = rng.stream(base, t, 0, SITE_ANCESTOR).random((R, n))
            a[:, free] = categorical(weights[t - 2], u)
            src = states[t - 2].ravel()[row_start + a[:, free]]
            u = rng.stream(base, t, 0, SITE_MOVE).random((R, n, 1))
            x[:, free] = categorical(rows_of(moves[t - 2], src), u)[..., 0]
        g = weights[t - 1] = rows_of(potentials[t - 1], x)
        if (g[:, slots] <= 0).any():
            raise ZeroPinnedPotential(f"pinned state at time {t} carries zero weight")
        if (g.sum(axis=1) <= 0).any():
            raise AllWeightsZero(time=t)
    u = rng.stream(base, T + 1, 0, SITE_FINAL).random((R, 1))
    return BatchedPass(states, ancestors, weights, categorical(weights[-1], u)[:, 0])


def run_smc(model, N: int, rng, base: int = 0) -> ParticleSystem:
    """One standard pass: the single-replicate :func:`particle_pass`."""
    return particle_pass((model,), N, rng, base=base).system()


def gamma_hat(system: ParticleSystem) -> NormConstEstimate:
    """Product over time of average particle weights, in log space."""
    log_n = np.log(system.N)
    total = 0.0
    for t in range(system.T):
        slice_lse = logsumexp(system.log_potentials[t])
        if slice_lse == float("-inf"):
            raise DegenerateEstimate(f"all weights zero at time {t + 1}")
        total += slice_lse - log_n
    return NormConstEstimate(log_value=float(total))
