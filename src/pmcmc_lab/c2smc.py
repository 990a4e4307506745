"""Two-trajectory conditional passes and mixing constants.

Pinning a second trajectory (with its own slot sequence) alongside the
reference (one :func:`pmcmc_lab.csmc.conditional_system` call with two
pins) turns the expected normalizing-constant estimate into a finite sum
over increasing index chains: each chain records the times at which a
surviving lineage passes through one of the two pinned paths, every other
segment contributing a free factor of N-2.  The closed form evaluates that
sum by a backward accumulation over chain start points (cost T^2), checked
against a brute-force enumeration of the pass: the blocks of the outcome
tree (:mod:`pmcmc_lab.exact_oracle`), each outcome's estimate added in
outcome order.

The module also computes the two mixing constants used by the escape-rate
bounds: the predictive-overshoot ratio ``alpha`` and the pair ``beta`` /
``delta`` (transition-overlap and potential-spread), which dominate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssertionFailure, IndexOutOfRange, ZeroPotential, ZeroTransitionOverlap
from .exact_oracle import _OutcomeTree
from .fk_model import DiscreteFK, predictive_law, q_operator
from .smc_core import _pin_schedule


# ---------------------------------------------------------------------------
# Closed form for the expected normalizing-constant estimate
# ---------------------------------------------------------------------------


def _pair_factor(model: DiscreteFK, p: int, q: int, x, y) -> float:
    gpq = q_operator(model, p, q)
    return float(gpq[x[p - 1]] + gpq[y[p - 1]])


def c2smc_expectation_closed_form(model: DiscreteFK, N: int, x, y) -> float:
    """Expected normalizing-constant estimate under the two-pin pass, with
    the path x pinned to slot 0 and the path y to slot 1.

    The sum over the increasing index chains 0 < i_1 < ... < i_s = T+1,

        N^-T sum_chains (N-2)^(T+1-s) Q_{0,i_1} prod_k [Q_{i_k,i_(k+1)}(x_{i_k})
                                                         + Q_{i_k,i_(k+1)}(y_{i_k})],

    with Q the two-time mass functions of :func:`q_operator`, evaluated by a
    backward accumulation over chain start points in T^2 steps.  Raises as
    the pass does for paths it cannot pin, and IndexOutOfRange for N < 2.
    """
    T = model.T
    _pin_schedule(model.tables, [((0,) * T, x), ((1,) * T, y)], N)
    # r[p] accumulates all chains starting at p, each segment (a, b)
    # contributing its pair factor and (N-2) per skipped interior slot.
    r = {T + 1: 1.0}
    for p in range(T, 0, -1):
        acc = 0.0
        for q in range(p + 1, T + 2):
            acc += _pair_factor(model, p, q, x, y) * float(N - 2) ** (q - p - 1) * r[q]
        r[p] = acc
    total = sum(
        q_operator(model, 0, p) * float(N - 2) ** (p - 1) * r[p] for p in range(1, T + 2)
    )
    return total / float(N) ** T


def c2smc_expectation_bruteforce(model: DiscreteFK, N: int, x, y) -> float:
    """The same expectation by full enumeration of the pass (the oracle).

    Each block of the outcome tree gives its outcomes' estimates, products
    over time of the average weights.  Weights add in slot order and terms
    in outcome order, as a running total, so the value does not depend on
    the block size.
    """
    T = model.T
    pins = [((0,) * T, x), ((1,) * T, y)]
    total = 0.0
    for prob, states, _ in _OutcomeTree(model, N, pins).blocks():
        est = np.ones(len(prob))
        for g, z in zip(model.potentials, states.transpose(1, 2, 0)):
            mass = g[z[0]]
            for col in z[1:]:
                mass = mass + g[col]
            est = est * (mass / N)
        terms = prob * est
        terms[0] += total
        total = float(np.cumsum(terms)[-1])
    return total


# ---------------------------------------------------------------------------
# Mixing constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingConstants:
    alpha: float
    beta: float
    delta: float
    m: int

    def __post_init__(self):
        if self.alpha > self.beta * self.delta * (1.0 + 1e-12):
            raise AssertionFailure(
                "alpha <= beta * delta", violation=self.alpha - self.beta * self.delta
            )


def alpha_constant(model: DiscreteFK) -> float:
    """Worst ratio of a two-time mass function to its predictive average.

    Maximised over all time pairs 1 <= p < q <= T+1 and all states; equals 1
    for constant weights or state-independent transitions.
    """
    best = 1.0
    for p in range(1, model.T + 1):
        eta = predictive_law(model, p)
        for q in range(p + 1, model.T + 2):
            gpq = q_operator(model, p, q)
            denom = float(eta @ gpq)
            if denom <= 0:
                raise ZeroPotential(f"predictive mass of the ({p},{q}) factor is zero")
            best = max(best, float(np.max(gpq)) / denom)
    return best


def beta_delta_constants(model: DiscreteFK, m: int) -> MixingConstants:
    """Transition-overlap and potential-spread constants at lag ``m``.

    ``beta`` bounds m-step transition masses between any two sources; the
    maximum over target sets of a ratio of sums is attained at a singleton,
    so only entrywise ratios are scanned.  ``delta`` is the worst potential
    ratio raised to the m-th power and requires strictly positive weights.
    """
    if not 1 <= m <= model.T:
        raise IndexOutOfRange(f"lag {m} outside [1, {model.T}]")
    beta = 1.0
    for p in range(1, model.T - m + 1):
        mbar = np.eye(model.n_states)
        for t in range(p + 1, p + m + 1):
            mbar = mbar @ model.transition(t)
        for u in range(model.n_states):
            col = mbar[:, u]
            pos = col[col > 0]
            if len(pos) == 0:
                continue
            if len(pos) < len(col):
                raise ZeroTransitionOverlap(
                    f"m-step transitions from time {p} have disjoint support at state {u}"
                )
            beta = max(beta, float(pos.max() / pos.min()))
    spread = 1.0
    for t in range(1, model.T + 1):
        g = model.potential_vector(t)
        if np.any(g <= 0):
            raise ZeroPotential(f"potential at time {t} vanishes somewhere")
        spread = max(spread, float(g.max() / g.min()))
    delta = spread**m
    return MixingConstants(alpha=alpha_constant(model), beta=beta, delta=delta, m=m)
