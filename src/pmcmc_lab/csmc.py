"""Pinned-particle SMC passes and the Markov kernel obtained by iterating them.

One pass keeps a full reference trajectory alive: the pinned particle's
states are forced and its parent index always points at its own previous
slot.  Every pass here is a :class:`pmcmc_lab.smc_core.BatchedPass`; the
next state of the chain is replicate 0's selected ancestral line
(:meth:`~pmcmc_lab.smc_core.BatchedPass.lineages`), read by
:func:`select_path`.  :func:`conditional_system` is the one one-replicate
pinned pass: any pinned (lineage, path) pairs, so the slot-0 pass, a pass
pinned along an arbitrary slot sequence and the two-pin pass of
:mod:`pmcmc_lab.c2smc` differ only in their pins.  :func:`reference_pass`
runs the slot-0 pass on R replicates at once.

:func:`run_chain` is the one step loop of every sampler (:func:`icsmc_sampler`
here; PIMH, PMMH and particle Gibbs in :mod:`pmcmc_lab.pgibbs`), and
:func:`icsmc_chain` is the one-row i-cSMC chain kept as a trace: on a small
model a table of each step over every positive-weight path, walked, and
otherwise :func:`run_chain` on one row, with the same trace.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, TraceTooShort
from .rng import as_substream
from .smc_core import BatchedPass, PassTables, _checked_paths, _PassPlan, _path_rows, particle_pass


@dataclass(frozen=True)
class Trajectory:
    """A length-T path, optionally with the particle slots it was read from."""

    points: tuple
    lineage: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.lineage is not None:
            object.__setattr__(self, "lineage", tuple(self.lineage))
            if len(self.lineage) != len(self.points):
                raise DimensionMismatch("lineage length must match path length")

    def __len__(self) -> int:
        return len(self.points)


def conditional_system(model, N: int, pins, rng, base: int = 0) -> BatchedPass:
    """One pass (one replicate) with the given pinned (lineage, path) pairs,
    checked as :func:`pmcmc_lab.smc_core._pin_schedule` checks them; free
    slots evolve normally, and with every slot pinned the pass replays its
    pins."""
    return particle_pass(model.tables, N, rng, base=base, pins=pins)


def reference_pass(tables: PassTables, N: int, paths, rng, base: int = 0, which=None) -> BatchedPass:
    """Pinned passes of R replicates, replicate r keeping ``paths[r]`` (R, T)
    in slot 0 throughout; ``tables`` and ``which`` as in :func:`particle_pass`."""
    paths = _path_rows(paths, tables.T)
    return _reference_plan(tables, N, len(paths)).run(rng, base, [paths.T], which)


def select_path(p: BatchedPass) -> Trajectory:
    """Replicate 0's selected path, with the slots it was read from."""
    slots = p.lineages()[0]
    points = p.states[np.arange(len(slots)), 0, slots]
    return Trajectory(points=tuple(points.tolist()), lineage=tuple(slots.tolist()))


@dataclass
class ChainTrace:
    """States and per-iteration statistics of one chain run.

    ``states[0]`` is the initial trajectory; row j >= 1 the state after
    iteration j.  ``retained[j]`` counts coordinates kept from the previous
    state, the statistic the escape-probability diagnostics monitor.
    """

    states: np.ndarray          # (n_iter+1, T)
    log_gamma_hats: np.ndarray  # (n_iter,)
    retained: np.ndarray        # (n_iter,)

    @property
    def n_iterations(self) -> int:
        return len(self.log_gamma_hats)

    def to_csv(self, path) -> None:
        T = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "log_gamma_hat", "retained_count"]
                + [f"state_{t}" for t in range(1, T + 1)]
            )
            writer.writerow([0, "", ""] + [int(s) for s in self.states[0]])
            for j in range(self.n_iterations):
                writer.writerow(
                    [j + 1, repr(float(self.log_gamma_hats[j])), int(self.retained[j])]
                    + [int(s) for s in self.states[j + 1]]
                )


class ChainState(NamedTuple):
    """R chains after one step; a field the sampler does not carry is None.
    The start state of an accept/reject sampler carries an all-False mask."""

    paths: np.ndarray | None = None       # (R, T)
    thetas: np.ndarray | None = None      # (R,) parameter indices
    log_gammas: np.ndarray | None = None  # (R,) log estimates
    accepted: np.ndarray | None = None    # (R,) acceptance mask of the step


class Sampler(NamedTuple):
    """A start state, drawn at base 0 if at all, and an R-row step
    ``step(state, rng, base) -> ChainState``: a module-level step with its
    model arguments bound by :func:`functools.partial`."""

    start: ChainState
    step: Callable


def run_chain(sampler: Sampler, n_steps: int, rng):
    """The one step loop of every sampler: an iterator over the state after
    each of ``n_steps`` steps, step b drawing at base b, that keeps none of
    them.  Raises TraceTooShort for a negative ``n_steps`` when called."""
    if n_steps < 0:
        raise TraceTooShort(f"a chain runs n_steps >= 0 steps, got {n_steps}")
    rng = as_substream(rng)

    def steps():
        state = sampler.start
        for base in range(1, n_steps + 1):
            state = sampler.step(state, rng, base)
            yield state

    return steps()


# A one-row chain runs as a table while |Y| N T, the particle-times of
# tabulating one step, is at most _TABLE_WORK; a table pass holds at most
# _CHUNK particle-times.  See icsmc_chain.
_TABLE_WORK = 1024
_CHUNK = 1 << 13


def _reference_plan(tables: PassTables, N: int, R: int) -> _PassPlan:
    """The plan of :func:`reference_pass` on R rows: one pin, slot 0 at
    every time."""
    return _PassPlan(tables, N, R, [(0,) * tables.T])


def _icsmc_move(plan: _PassPlan, state: ChainState, rng, base: int = 0) -> ChainState:
    """:func:`icsmc_step` on the rows of a :func:`_reference_plan`."""
    paths = _path_rows(state.paths, plan.tables.T)
    p = plan.run(rng, base, [paths.T])
    return ChainState(paths=p.paths(), log_gammas=p.log_gamma())


def icsmc_step(model, N: int, state: ChainState, rng, base: int = 0) -> ChainState:
    """One i-cSMC step on R rows: one slot-0 :func:`reference_pass` per row,
    keeping each row's selected path and log estimate."""
    return _icsmc_move(_reference_plan(model.tables, N, len(state.paths)), state, rng, base)


def icsmc_sampler(model, N: int, x0, R: int) -> Sampler:
    """R i-cSMC chains at the path ``x0``, checked as a pin; a step is
    :func:`icsmc_step` on a plan built once."""
    plan = _reference_plan(model.tables, N, R)
    (x0,) = _checked_paths(model.tables, [tuple(x0)])
    return Sampler(ChainState(paths=np.tile(x0, (R, 1))), partial(_icsmc_move, plan))


def icsmc_chain(model, N: int, x0: Trajectory, n_iter: int, rng) -> ChainTrace:
    """Iterate pass + selection for ``n_iter`` steps starting from ``x0``,
    with every state kept as the trace.

    A step selects a path of Y = {y : G_t(y_t) > 0 for every t}, as a
    map x -> F_b(x) that step b's uniforms fix.  While |Y| N T is at most
    _TABLE_WORK, chunks of steps are tabulated over Y as one slot-0 pass
    (:func:`_table_walk`); past it, every step is one :func:`run_chain`
    step on one row.  Both routes give the same trace, draw for draw.
    Raises TooFewParticles for N < 1, as a pin does for a bad ``x0`` and
    TraceTooShort for a negative ``n_iter``, in that order.
    """
    tables, T = model.tables, model.T
    live = tables.potentials > 0
    size = math.prod(live.sum(axis=1).tolist())  # |Y|, before enumerating it
    work = size * N * T
    steps = min(n_iter, _CHUNK // work) if 0 < work <= _TABLE_WORK else 0
    plan = _reference_plan(tables, N, max(steps * size, 1))
    (x,) = _checked_paths(tables, [tuple(x0.points)])
    if steps > 0:
        states, lgh = _table_walk(plan, live, x, n_iter, steps, as_substream(rng))
    else:
        sampler = Sampler(ChainState(paths=x[None]), partial(_icsmc_move, plan))
        chain = run_chain(sampler, n_iter, rng)
        states = np.empty((n_iter + 1, T), dtype=int)
        lgh = np.empty(n_iter)
        states[0] = x
        for j, state in enumerate(chain):
            states[j + 1] = state.paths[0]
            lgh[j] = state.log_gammas[0]
    retained = (states[1:] == states[:-1]).sum(axis=1)
    return ChainTrace(states=states, log_gamma_hats=lgh, retained=retained)


def _table_walk(plan: _PassPlan, live, x, n_iter: int, steps: int, rng):
    """The states (n_iter + 1, T) and log estimates (n_iter,) of a one-row
    i-cSMC chain from ``x``, ``steps`` steps per table.

    Y, the paths positive under ``live`` (T, S), is coded in mixed radix,
    time 1 leading.  A chunk's table is one pass of ``plan`` pinned at every
    y in Y for each step b of the chunk, row (b, y) reading the one-row
    blocks of step b; the chain walks it from row (b, code of x_{b-1}).
    """
    T = len(live)
    ys = np.array(list(itertools.product(*map(np.flatnonzero, live))))
    size = len(ys)
    rank = live.cumsum(axis=1) - 1
    strides = size // live.sum(axis=1).cumprod()
    pins = np.tile(ys, (steps, 1)).T
    states = np.empty((n_iter + 1, T), dtype=int)
    lgh = np.empty(n_iter)
    states[0] = x
    code = int(rank[np.arange(T), x] @ strides)
    for start in range(0, n_iter, steps):
        n = min(steps, n_iter - start)
        reads = zip(*[plan.blocks(rng, base, 1) for base in range(start + 1, start + n + 1)])
        blocks = (np.repeat(np.concatenate(block), size, axis=0) for block in reads)
        p = plan.run_blocks(blocks, n * size, [pins[:, : n * size]])
        paths = p.paths()
        codes = (rank[np.arange(T), paths] @ strides).tolist()
        rows = []
        for k in range(n):
            rows.append(k * size + code)
            code = codes[rows[-1]]
        states[start + 1 : start + n + 1] = paths[rows]
        lgh[start : start + n] = p.log_gamma()[rows]
    return states, lgh
