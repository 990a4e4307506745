"""Many independent chains at once, as R-row runs of the one chain driver.

Each chain function runs R replicates through
:func:`pmcmc_lab.csmc.run_chain`, the one step loop, on the sampler
(:func:`pmcmc_lab.csmc.icsmc_sampler`, or
:func:`~pmcmc_lab.pgibbs.pimh_sampler`, :func:`~pmcmc_lab.pgibbs.pmmh_sampler`
and :func:`~pmcmc_lab.pgibbs.pgibbs_sampler`), one R-row move per step.
A move on one row is the scalar sampler, so replicate 0 here equals the
one-row run at the same seed and step numbering, draw for draw; a PIMH or
PMMH proposal pass whose weights all vanish estimates 0 and is rejected in
its own row only.  At R = 1 :func:`run_chain` takes the one-row table route,
and at R > 1 never.
"""

from __future__ import annotations

import numpy as np

from .csmc import icsmc_sampler, reference_pass, run_chain
from .errors import TraceTooShort
from .fk_model import DiscreteFK
from .pgibbs import JointModel, pgibbs_sampler, pimh_sampler, pmmh_sampler
from .rng import as_substream
from .smc_core import particle_pass


def smc_replicated(model: DiscreteFK, N: int, R: int, rng, base: int = 0):
    """R independent plain passes: selected paths (R, T) and log estimates (R,)."""
    p = particle_pass(model.tables, N, rng, base=base, rows=R)
    return p.paths(), p.log_gamma()


def csmc_step_replicated(model: DiscreteFK, N: int, x_paths: np.ndarray, rng, base: int = 0):
    """One pinned-pass transition applied to R current paths (R, T).

    Slot 0 carries the pinned path in every replicate.
    """
    return reference_pass(model.tables, N, x_paths, rng, base=base).paths()


def _last(sampler, n_steps: int, rng):
    """The state after ``n_steps`` steps and the number of proposals
    accepted on the way, holding one state at a time."""
    state, accepted = sampler.start, 0
    for state in run_chain(sampler, n_steps, rng):
        accepted += 0 if state.accepted is None else int(state.accepted.sum())
    return state, accepted


def _check_rate(R: int, n_steps: int) -> None:
    """Refuse an acceptance rate over no proposals."""
    if R < 1 or n_steps < 1:
        raise TraceTooShort(f"an acceptance rate needs R >= 1 and n_steps >= 1, got R={R}, n_steps={n_steps}")


def icsmc_replicated(
    model: DiscreteFK, N: int, x0, R: int, n_iter: int, rng
) -> np.ndarray:
    """R independent chains, all started at x0, advanced n_iter steps."""
    return _last(icsmc_sampler(model, N, x0, R), n_iter, rng)[0].paths


def pimh_replicated(model: DiscreteFK, N: int, R: int, n_steps: int, rng):
    """R independent estimator-driven accept/reject chains.

    Returns the final paths, the overall acceptance rate, and the final log
    estimates: -inf for a chain that has held no live pass, as a dead pass
    is rejected (:func:`~pmcmc_lab.pgibbs.pimh_sampler`).  Raises
    TraceTooShort unless R >= 1 and n_steps >= 1.
    """
    _check_rate(R, n_steps)
    rng = as_substream(rng)
    state, accepted = _last(pimh_sampler(model, N, R, rng), n_steps, rng)
    return state.paths, accepted / (R * n_steps), state.log_gammas


def pgibbs_replicated(jm: JointModel, N: int, R: int, n_steps: int, rng, x0, theta0: int):
    """R independent two-stage chains with the particle path update.  x0 is
    checked as the first parameter draw checks it (:func:`theta_given_paths`);
    theta0 outside [0, J) raises IndexOutOfRange, also at n_steps = 0."""
    state, _ = _last(pgibbs_sampler(jm, N, x0, theta0, R), n_steps, rng)
    return state.thetas, state.paths


def pmmh_replicated(jm: JointModel, N: int, proposal_q, R: int, n_steps: int, rng):
    """R independent marginal accept/reject chains on the parameter, all
    started at the first parameter value.  Raises TraceTooShort unless
    R >= 1 and n_steps >= 1."""
    _check_rate(R, n_steps)
    rng = as_substream(rng)
    state, accepted = _last(pmmh_sampler(jm, N, proposal_q, R, rng), n_steps, rng)
    return state.thetas, accepted / (R * n_steps)
