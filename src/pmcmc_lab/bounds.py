"""Closed-form convergence and variance bounds for minorized reversible chains.

Every bound is packaged as a :class:`BoundReport` holding the minorization
constant, from which it derives the quantities it implies: the
total-variation rate ``1 - eps``, and the asymptotic-variance sandwich
factors ``eps/(2-eps)`` (lower) and ``2/eps - 1`` (upper).  Sources:

* ``epsilon_bounded``  -- bounded-weight route; needs only per-time weight
  suprema and the normalizing constant.
* ``epsilon_mixing``   -- mixing route via the overshoot constant alpha,
  giving the horizon-proportional particle schedule.
* ``epsilon_isir``     -- single-time special case (importance resampling).
* ``pimh_epsilon``     -- independence-sampler route for the estimator-driven
  accept/reject chain; its constant does not improve with the particle count.

``tuning_c_star`` minimises cost x variance over the schedule slope and
yields the universal optimum (about 1.302 per unit of 2*alpha - 1, with a
minorization level near 0.464 independent of alpha).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConstantOutOfRange,
    EpsilonOutOfRange,
    OutcomeSpaceTooLarge,
    TooFewParticles,
    ZeroPotential,
)
from .fk_model import DiscreteFK, exact_target, sup_potentials

# The Newton iteration of :func:`lambert_w`: start for x <= 0, residual
# target (times max(1, |x|)), steps.
_LAMBERT_W0, _LAMBERT_TOL, _LAMBERT_MAX_ITER = -0.23, 1e-14, 200
_SCAN_MAX_STATES = 12  # most states gamma_hat_sup scans the subsets of


class BoundSource(enum.Enum):
    BOUNDED_POTENTIALS = "BoundedPotentials"
    MIXING = "Mixing"
    ISIR = "ISIR"
    PIMH = "PIMH"
    SUPPLIED = "Supplied"


@dataclass(frozen=True)
class BoundReport:
    """A minorization constant with its source, particle count and horizon;
    the factors it implies are derived from it.  Raises EpsilonOutOfRange
    outside (0, 1 + 1e-12], and stores an epsilon above 1 as 1."""

    epsilon: float
    source: BoundSource
    n_particles: int | None = None
    horizon: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0 + 1e-12:
            raise EpsilonOutOfRange(f"epsilon = {self.epsilon!r} outside (0, 1]")
        object.__setattr__(self, "epsilon", min(self.epsilon, 1.0))

    @property
    def tv_rate(self) -> float:
        return 1.0 - self.epsilon

    @property
    def variance_upper_factor(self) -> float:
        return 2.0 / self.epsilon - 1.0

    @property
    def variance_lower_factor(self) -> float:
        return self.epsilon / (2.0 - self.epsilon)


def epsilon_bounded(model: DiscreteFK, N: int) -> BoundReport:
    """Minorization constant from per-time weight suprema.

    eps = (1 - 1/N)^T / (1 + [1 - (1 - 2/N)^T] [prod(Gbar)/gamma - 1]).
    """
    if N < 2:
        raise TooFewParticles(f"the bound needs at least two particles, got N={N}")
    return BoundReport(_bounded_eps(model, N), BoundSource.BOUNDED_POTENTIALS, N, model.T)


def _bounded_eps(model: DiscreteFK, N: int) -> float:
    """The formula of :func:`epsilon_bounded`, unchecked; at most
    (1 - 1/N)^T, since the weight ratio is at least 1."""
    T = model.T
    ratio = float(np.prod(sup_potentials(model))) / exact_target(model).gamma_t
    return (1.0 - 1.0 / N) ** T / (1.0 + (1.0 - (1.0 - 2.0 / N) ** T) * (ratio - 1.0))


def epsilon_mixing(alpha: float, N: int, T: int) -> BoundReport:
    """Minorization constant under the overshoot condition.

    eps = ((1 - 1/N) / (1 + 2(alpha - 1)/N))^T, which simplifies to
    ((N-1)/(N - 2 + 2 alpha))^T.
    """
    if not alpha >= 1.0:
        raise ConstantOutOfRange(f"alpha is at least 1 by construction, got {alpha!r}")
    if T < 1:
        raise ConstantOutOfRange(f"the horizon is at least 1, got T={T!r}")
    if N < 2:
        raise TooFewParticles(f"the bound needs at least two particles, got N={N}")
    eps = ((1.0 - 1.0 / N) / (1.0 + 2.0 * (alpha - 1.0) / N)) ** T
    return BoundReport(eps, BoundSource.MIXING, N, T)


def mixing_floor(alpha: float, C: float) -> float:
    """Horizon-free floor exp(-(2 alpha - 1)/C), valid whenever N - 1 >= C T."""
    if not (alpha >= 1.0 and C > 0):
        raise ConstantOutOfRange(f"the floor needs alpha >= 1 and C > 0, got alpha={alpha!r}, C={C!r}")
    return math.exp(-(2.0 * alpha - 1.0) / C)


def epsilon_isir(g_bar: float, N: int) -> BoundReport:
    """Single-time case: eps = (N - 1)/(2 Gbar + N - 2) for the normalised
    weight supremum Gbar >= 1."""
    if not g_bar >= 1.0:
        raise ConstantOutOfRange(f"the normalised weight supremum is at least 1, got {g_bar!r}")
    if N < 2:
        raise TooFewParticles(f"the bound needs at least two particles, got N={N}")
    eps = (N - 1.0) / (2.0 * g_bar + N - 2.0)
    return BoundReport(eps, BoundSource.ISIR, N, 1)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W by Newton iteration, started at log(1 + x)
    for x > 0; |w e^w - x| < 1e-14 max(1, |x|).  Raises ConstantOutOfRange
    below -1/e, where the branch is not defined."""
    if not x >= -1.0 / math.e:
        raise ConstantOutOfRange(f"Lambert W needs x >= -1/e, got {x!r}")
    w = math.log1p(x) if x > 0 else _LAMBERT_W0
    tol = _LAMBERT_TOL * max(1.0, abs(x))
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        resid = w * ew - x
        if abs(resid) < tol:
            return w
        w -= resid / (ew * (1.0 + w))
    raise ArithmeticError("Lambert W iteration did not converge")


def tuning_c_star(alpha: float) -> tuple[float, float]:
    """Cost-optimal schedule slope and the minorization level it attains.

    Minimising (N+1) * variance-upper-bound over N = C*T for large N gives
    C* = (2 alpha - 1)/(W(-1/(2e)) + 1) ~ 1.302 (2 alpha - 1) and a level
    eps* = exp(-(W(-1/(2e)) + 1)) ~ 0.464 independent of alpha.
    """
    if not alpha >= 1.0:
        raise ConstantOutOfRange(f"alpha is at least 1 by construction, got {alpha!r}")
    w = lambert_w(-1.0 / (2.0 * math.e))
    c_star = (2.0 * alpha - 1.0) / (w + 1.0)
    eps_star = math.exp(-(2.0 * alpha - 1.0) / c_star)
    return c_star, eps_star


def minorized_chain_bounds(epsilon: float) -> BoundReport:
    """Package the generic consequences of a supplied minorization constant."""
    if not 0.0 < epsilon <= 1.0:
        raise EpsilonOutOfRange(f"epsilon = {epsilon!r} outside (0, 1]")
    return BoundReport(epsilon, BoundSource.SUPPLIED)


def dirichlet_sandwich(epsilon: float) -> tuple[float, float]:
    """Dirichlet-form bounds [eps, 2 - eps] implied by the minorization."""
    if not 0.0 < epsilon <= 1.0:
        raise EpsilonOutOfRange(f"epsilon = {epsilon!r} outside (0, 1]")
    return epsilon, 2.0 - epsilon


def gamma_hat_sup(model: DiscreteFK, N: int) -> float:
    """Largest attainable normalizing-constant estimate over reachable
    particle configurations.

    Dynamic program over occupied state sets: the per-time average weight is
    maximised by stacking all spare particles on the best occupied state, so
    only the support of the configuration matters for the future.
    """
    S, T = model.n_states, model.T
    if S > _SCAN_MAX_STATES:
        raise OutcomeSpaceTooLarge(f"{S} states exceed the subset-scan limit {_SCAN_MAX_STATES}")
    if N < 1:
        raise TooFewParticles(f"an estimate needs at least one particle, got N={N}")

    def best_mean(t, occupied):
        g = model.potential_vector(t)
        vals = sorted((float(g[s]) for s in occupied), reverse=True)
        return (sum(vals) + (N - len(vals)) * vals[0]) / N

    def successors(t, occupied):
        out = set()
        mat = model.transition(t)
        for z in occupied:
            out.update(int(s) for s in np.flatnonzero(mat[z]))
        return frozenset(out)

    @lru_cache(maxsize=None)
    def value(t, occupied):
        mean_now = best_mean(t, occupied)
        if t == T:
            return mean_now
        allowed = successors(t + 1, occupied)
        best = 0.0
        for r in range(1, min(N, len(allowed)) + 1):
            for sub in itertools.combinations(sorted(allowed), r):
                best = max(best, value(t + 1, frozenset(sub)))
        return mean_now * best

    supp1 = [int(s) for s in np.flatnonzero(model.m1)]
    best = 0.0
    for r in range(1, min(N, len(supp1)) + 1):
        for sub in itertools.combinations(supp1, r):
            best = max(best, value(1, frozenset(sub)))
    if best <= 0:
        raise ZeroPotential("no reachable configuration carries positive weight")
    return best


def pimh_epsilon(gamma_t: float, gamma_hat_sup_value: float) -> BoundReport:
    """Independence-sampler constant: the true normalizing constant divided by
    the largest attainable estimate."""
    if not gamma_hat_sup_value >= gamma_t > 0:
        raise ConstantOutOfRange(
            f"need sup of the estimate >= gamma_T > 0, got {gamma_hat_sup_value!r} and {gamma_t!r}"
        )
    return BoundReport(gamma_t / gamma_hat_sup_value, BoundSource.PIMH)


def report_rows(reports) -> list[list]:
    """CSV-ready rows: source, N, T, epsilon, tv_rate, var factors."""
    rows = [["source", "N", "T", "epsilon", "tv_rate", "var_upper_factor", "var_lower_factor"]]
    for r in reports:
        rows.append(
            [
                r.source.value,
                "" if r.n_particles is None else r.n_particles,
                "" if r.horizon is None else r.horizon,
                repr(r.epsilon),
                repr(r.tv_rate),
                repr(r.variance_upper_factor),
                repr(r.variance_lower_factor),
            ]
        )
    return rows
