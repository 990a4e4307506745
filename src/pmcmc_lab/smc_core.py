"""Standard particle system: propagation, multinomial resampling, and the
normalizing-constant estimator.

One run produces a :class:`ParticleSystem`: states and log-weights for all
times, ancestor indices for times 2..T, and a single terminal index drawn
from the final weights.  The product over time of average weights is the
(unbiased) normalizing-constant estimate, always handled in log space.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsZero, DegenerateEstimate
from .numerics import logsumexp
from .rng import SITE_ANCESTOR, SITE_FINAL, SITE_INIT, SITE_MOVE, as_substream


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


def multinomial_resample(weights, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. indices, index k with probability weights[k]/sum."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if float(w.sum()) <= 0:
        raise AllWeightsZero()
    # Uniforms are scaled to the raw cumulative sum: a normalised CDF can end
    # below 1, and a uniform above its end would clamp onto a trailing zero
    # weight.  Scaled, every draw lies strictly below cdf[-1].
    cdf = np.cumsum(w)
    u = rng.random(count) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(w) - 1)


def _pick_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    return int(multinomial_resample(weights, 1, rng)[0])


def run_smc(model, N: int, rng, base: int = 0) -> ParticleSystem:
    """One standard pass with N particles and multinomial resampling.

    Draw sites are addressed as (base, time, particle, site) so particle
    loops may be parallelised without changing the result.
    """
    if N < 1:
        raise ValueError("need at least one particle")
    rng = as_substream(rng)
    T = model.T

    states = []
    ancestors = []
    row = [model.sample_initial(rng.stream(base, 1, i, SITE_INIT)) for i in range(N)]
    states.append(tuple(row))
    for t in range(2, T + 1):
        g = np.array([model.potential(t - 1, z) for z in states[-1]])
        if g.sum() <= 0:
            raise AllWeightsZero(time=t - 1)
        anc = []
        row = []
        for i in range(N):
            a = _pick_index(g, rng.stream(base, t, i, SITE_ANCESTOR))
            z = model.sample_transition(t, states[-1][a], rng.stream(base, t, i, SITE_MOVE))
            anc.append(a)
            row.append(z)
        ancestors.append(tuple(anc))
        states.append(tuple(row))

    g_final = np.array([model.potential(T, z) for z in states[-1]])
    if g_final.sum() <= 0:
        raise AllWeightsZero(time=T)
    final = _pick_index(g_final, rng.stream(base, T + 1, 0, SITE_FINAL))

    logg = np.array(
        [[model.log_potential(t, z) for z in states[t - 1]] for t in range(1, T + 1)]
    )
    return ParticleSystem(
        states=tuple(states), ancestors=tuple(ancestors), final_index=final, log_potentials=logg
    )


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
