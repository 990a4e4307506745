"""Many independent chains at once, as loops over the batched pass.

Each function runs R replicates with one row-wise call per step: the plain
:func:`pmcmc_lab.smc_core.particle_pass`, the slot-0
:func:`pmcmc_lab.csmc.reference_pass`, or the PIMH, PMMH and particle Gibbs
updates of :mod:`pmcmc_lab.pgibbs`.  The scalar samplers are the same calls
on one row, so replicate 0 here equals the scalar run at the same seed and
step numbering, draw for draw.
"""

from __future__ import annotations

import numpy as np

from .csmc import reference_pass
from .errors import TraceTooShort
from .fk_model import DiscreteFK
from .pgibbs import JointModel, pgibbs_update, pimh_update, pmmh_update, theta_given_paths
from .rng import as_substream
from .smc_core import _pin_schedule, particle_pass


def smc_replicated(model: DiscreteFK, N: int, R: int, rng, base: int = 0):
    """R independent plain passes: selected paths (R, T) and log estimates (R,)."""
    p = particle_pass((model,), N, rng, base=base, rows=R)
    return p.paths(), p.log_gamma()


def csmc_step_replicated(model: DiscreteFK, N: int, x_paths: np.ndarray, rng, base: int = 0):
    """One pinned-pass transition applied to R current paths (R, T).

    Slot 0 carries the pinned path in every replicate.
    """
    return reference_pass((model,), N, x_paths, rng, base=base).paths()


def icsmc_replicated(
    model: DiscreteFK, N: int, x0, R: int, n_iter: int, rng
) -> np.ndarray:
    """R independent chains, all started at x0, advanced n_iter steps."""
    rng = as_substream(rng)
    _pin_schedule(model.tables, [((0,) * model.T, tuple(x0))], N)
    paths = np.tile(np.asarray(tuple(x0), dtype=int), (R, 1))
    for step in range(1, n_iter + 1):
        paths = csmc_step_replicated(model, N, paths, rng, base=step)
    return paths


def pimh_replicated(model: DiscreteFK, N: int, R: int, n_steps: int, rng):
    """R independent estimator-driven accept/reject chains.

    Returns the final paths, the overall acceptance rate, and the final log
    estimates.  Raises TraceTooShort unless n_steps >= 1.
    """
    if n_steps < 1:
        raise TraceTooShort(f"an acceptance rate needs n_steps >= 1, got {n_steps}")
    rng = as_substream(rng)
    paths, lg = smc_replicated(model, N, R, rng, base=0)
    accepted = 0
    for step in range(1, n_steps + 1):
        paths, lg, acc = pimh_update(model, N, paths, lg, rng, base=step)
        accepted += int(acc.sum())
    return paths, accepted / (R * n_steps), lg


def pgibbs_replicated(jm: JointModel, N: int, R: int, n_steps: int, rng, x0, theta0: int):
    """R independent two-stage chains with the particle path update.  x0 is
    checked as the first parameter draw checks it (:func:`theta_given_paths`)."""
    rng = as_substream(rng)
    theta_given_paths(jm, [tuple(x0)])
    paths = np.tile(np.asarray(tuple(x0), dtype=int), (R, 1))
    thetas = np.full(R, int(theta0), dtype=int)
    for step in range(1, n_steps + 1):
        thetas, paths = pgibbs_update(jm, N, paths, rng, base=step)
    return thetas, paths


def pmmh_replicated(jm: JointModel, N: int, proposal_q, R: int, n_steps: int, rng):
    """R independent marginal accept/reject chains on the parameter, all
    started at the first parameter value.  Raises TraceTooShort unless
    n_steps >= 1."""
    if n_steps < 1:
        raise TraceTooShort(f"an acceptance rate needs n_steps >= 1, got {n_steps}")
    rng = as_substream(rng)
    thetas = np.zeros(R, dtype=int)
    _, lg = smc_replicated(jm.models[0], N, R, rng, base=0)
    accepted = 0
    for step in range(1, n_steps + 1):
        thetas, lg, acc = pmmh_update(jm, N, proposal_q, thetas, lg, rng, base=step)
        accepted += int(acc.sum())
    return thetas, accepted / (R * n_steps)
