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
:func:`icsmc_chain` keeps a one-row i-cSMC chain as a trace.  A sampler's
step is its move, a function of the state and the step's uniform blocks on
any number of rows, and both routes of the one route switch
(:func:`_chain_blocks`) run it: step by step (:meth:`Sampler.step`, on
blocks of rows of at most _ROW_BLOCK particle-times), or, for
a one-row chain, chunks of steps as one table pass over each step's rows,
with the uniforms of a span of chunks read at once
(:meth:`pmcmc_lab.rng.SubstreamRng._blocks`).
The i-cSMC and particle Gibbs tables run the move from every path
(:func:`_path_walk`); the PIMH and PMMH tables run the pass at every
parameter value and share the move's accept test.
"""

from __future__ import annotations

import csv
import math
import numbers
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


class StepTable(NamedTuple):
    """A one-row step as a map over the ``rows`` its uniforms fix, each of
    ``size`` particle-times (N T), and ``walk(state, steps)``: from the
    one-row ``state``, a function of the blocks of at most ``steps`` steps,
    (steps, width) per read of the sampler, that returns the states after
    them from one table pass and goes on from the last at its next call."""

    rows: int
    size: int
    walk: Callable

    @property
    def work(self) -> int:
        """The particle-times of one step's table, rows x N T."""
        return self.rows * self.size


class Sampler(NamedTuple):
    """R chains: a start state, drawn at base 0 if at all; ``reads``, the
    (counter words, width) of each uniform block of a step, in the order
    ``move(state, blocks) -> ChainState`` reads them, a step on any number
    of rows (a module-level move, its model arguments bound by
    :func:`functools.partial`); and its StepTable."""

    start: ChainState
    reads: tuple
    move: Callable
    table: StepTable

    def step(self, state: ChainState, rng, base: int = 0) -> ChainState:
        """The move of the R rows of ``state`` at ``base``, on blocks read as
        it asks for them, run on row blocks of at most _ROW_BLOCK
        particle-times (:func:`_row_blocks`); DimensionMismatch for a state
        of another row count (past one row block, in any field),
        IndexOutOfRange for a base outside [0, 2^64)."""
        R, rng = _rows(self.start), as_substream(rng)
        if _rows(state) != R:
            raise DimensionMismatch(f"a state of {_rows(state)} rows for a sampler of {R}")
        if R > _block_rows(self.table.size) and any(_rows(ChainState(f)) != R for f in state if f is not None):
            raise DimensionMismatch(f"a state whose fields hold other than {R} rows")

        def part(rows: range) -> ChainState:
            cut = slice(rows.start, rows.stop)
            block = state if len(rows) == R else ChainState(*(None if f is None else f[cut] for f in state))
            return self.move(block, rng.step_blocks(self.reads, base, len(rows), rows.start))

        return _row_blocks(R, self.table.size, part)


# A one-row chain runs as a table while one step's table work is at most
# _TABLE_WORK particle-times; a table pass holds at most _CHUNK of them.
_TABLE_WORK = 1024
_CHUNK = 1 << 13

# An R-row step or start pass runs on blocks of rows of at most _ROW_BLOCK
# particle-times (N T per row), each on the pass arrays its plan keeps
# (smc_core._PassPlan._arrays), so the per-time (rows, N) temporaries of a
# block stay small enough for glibc to reuse rather than map afresh.  In the
# benchmark's replicated-sweep process (R N = 65536, T = 4) the stepping
# jobs took about 120 minor faults a pass at 2^17, 2-3K at 2^16 and 13K
# unblocked (2K-11.5K at the parent's fresh arrays); below 2^17 the
# benchmark's calibration kernel faulted 650-800 pages a run, as it does at
# none of the others.  With no faults at all, 2^15 costs 10-15% more than
# 2^16-2^18, in numpy calls per block (2-vCPU x86 host, numpy 2.4, glibc
# 2.36).
_ROW_BLOCK = 1 << 17


def _block_rows(size: int) -> int:
    """Rows of ``size`` particle-times each in one row block."""
    return max(1, _ROW_BLOCK // size)


def _row_blocks(R: int, size: int, part) -> ChainState:
    """``part(rows)`` of consecutive ranges of the R rows, each at most
    :func:`_block_rows` of ``size``, with their fields concatenated: one
    call of range(R) when R fits one block.  Rows read their uniforms by
    position, so the blocks give the bits of one R-row call."""
    n = _block_rows(size)
    if R <= n:
        return part(range(R))
    parts = [part(range(a, min(a + n, R))) for a in range(0, R, n)]
    return ChainState(*(None if f[0] is None else np.concatenate(f) for f in zip(*parts)))


def _rows(state: ChainState) -> int:
    try:  # an unsized field, or none, counts no rows, for the move to refuse
        return len(next((f for f in state if f is not None), ()))
    except TypeError:
        return 0


def _row(block: ChainState, k: int) -> ChainState:
    return ChainState(*(None if f is None else f[k : k + 1] for f in block))


def _chain_blocks(sampler: Sampler, n_steps: int, rng):
    """The one route switch: the states after steps 1..n_steps, step b at
    base b, in blocks.  A one-row sampler whose table works at most
    _TABLE_WORK per step runs as tables (:func:`_table_blocks`); every other
    block is one ``sampler.step``.  Raises TraceTooShort unless ``n_steps``
    is an integer >= 0, when called."""
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise TraceTooShort(f"a chain runs a whole number n_steps >= 0 of steps, got {n_steps!r}")
    rng = as_substream(rng)
    if _rows(sampler.start) == 1 and sampler.table.work <= _TABLE_WORK:
        return _table_blocks(sampler, n_steps, rng)
    return _steps(sampler, n_steps, rng)


def _steps(sampler: Sampler, n_steps: int, rng):
    """The state after each of ``n_steps`` steps from ``sampler.start``, one
    ``sampler.step`` each."""
    state = sampler.start
    for base in range(1, n_steps + 1):
        state = sampler.step(state, rng, base)
        yield state


def _table_blocks(sampler: Sampler, n_steps: int, rng):
    """The table route of :func:`_chain_blocks`: one walk from
    ``sampler.start`` over chunks of _CHUNK // work steps, each one table
    pass.  The uniforms of a span of whole chunks, at most _CHUNK one-row
    particle-times and at least one chunk, are read at once
    (:meth:`~pmcmc_lab.rng.SubstreamRng._blocks`), since a read has a fixed
    cost of its own.  No table pass raises: a PIMH or PMMH row whose weights
    all vanish, as a row the chain never visits can, has log estimate -inf,
    and a proposal of it is rejected."""
    table = sampler.table
    steps = _CHUNK // table.work
    span = max(_CHUNK // table.size // steps, 1) * steps
    walk = table.walk(sampler.start, steps)
    for first in range(1, n_steps + 1, span):
        bases = range(first, min(first + span, n_steps + 1))
        uniforms = rng._blocks(sampler.reads, bases)
        for at in range(0, len(bases), steps):
            yield walk([u[at : at + steps] for u in uniforms])


def run_chain(sampler: Sampler, n_steps: int, rng):
    """The one step loop of every sampler: an iterator over the state after
    each of ``n_steps`` steps, step b drawing at base b, that keeps none of
    them; the states of :func:`_chain_blocks`, one step at a time.  Raises
    TraceTooShort unless ``n_steps`` is an integer >= 0, when called."""
    blocks = _chain_blocks(sampler, n_steps, rng)
    if _rows(sampler.start) != 1:
        return blocks
    return (_row(block, k) for block in blocks for k in range(_rows(block)))


def _path_walk(move, table_paths, state: ChainState, steps: int):
    """The walk of a pinned sampler's ``move`` from one row (see
    :class:`StepTable`) over ``table_paths()``: paths Y (K, T), the code
    that numbers them and, for particle Gibbs, their cumulative parameter
    laws, built and tiled once per walk.  Row (b, k) of a chunk runs the
    move from Y[k] on step b's blocks, and the chain reads row b K + the
    row of its path at step b."""
    ys, code, *laws = table_paths()
    K, row = len(ys), int(code(state.paths[0]))
    tiled = [np.tile(a, (steps, 1)) for a in (ys, *laws)]

    def walk(blocks):
        nonlocal row
        n = len(blocks[0])
        paths, *cdf = [a[: n * K] for a in tiled]
        after = move(ChainState(paths=paths), (np.repeat(u, K, axis=0) for u in blocks), *cdf)
        rows, to = [], code(after.paths).tolist()  # the row of each row's selected path
        for b in range(0, n * K, K):
            rows.append(b + row)
            row = to[rows[-1]]
        return ChainState(*[None if f is None else f[rows] for f in after])

    return walk


def _reference_plan(tables: PassTables, N: int, R: int) -> _PassPlan:
    """The plan of :func:`reference_pass` on R rows: one pin, slot 0 at
    every time."""
    return _PassPlan(tables, N, R, [(0,) * tables.T])


def _icsmc_move(plan: _PassPlan, state: ChainState, blocks) -> ChainState:
    """:func:`icsmc_step` on any number of rows, from their ``blocks`` of
    a slot-0 ``plan``'s reads."""
    paths = _path_rows(state.paths, plan.tables.T)
    p = plan.run_blocks(blocks, len(paths), [paths.T])
    return ChainState(paths=p.paths(), log_gammas=p.log_gamma())


def _icsmc(plan: _PassPlan, start: ChainState) -> Sampler:
    """The i-cSMC sampler of ``start`` on a slot-0 ``plan``, tabulated over
    every path of positive weight at every time."""
    tables, move = plan.tables, partial(_icsmc_move, plan)
    rows = math.prod(tables.live.sum(axis=1).tolist())  # |Y|, counted before Y is built
    table = StepTable(rows, plan.N * tables.T, partial(_path_walk, move, lambda: tables.live_paths))
    return Sampler(start, tuple(plan.reads), move, table)


def icsmc_step(model, N: int, state: ChainState, rng, base: int = 0) -> ChainState:
    """One i-cSMC step on R rows: one slot-0 :func:`reference_pass` per row,
    keeping each row's selected path and log estimate."""
    return _icsmc(_reference_plan(model.tables, N, _rows(state)), state).step(state, rng, base)


def icsmc_sampler(model, N: int, x0, R: int) -> Sampler:
    """R i-cSMC chains at the path ``x0``, checked as a pin, on a slot-0
    plan built once."""
    plan = _reference_plan(model.tables, N, R)
    (x0,) = _checked_paths(model.tables, [tuple(x0)])
    return _icsmc(plan, ChainState(paths=np.tile(x0, (R, 1))))


def icsmc_chain(model, N: int, x0: Trajectory, n_iter: int, rng) -> ChainTrace:
    """Iterate pass + selection for ``n_iter`` steps starting from ``x0``,
    with every state kept as the trace: the blocks of the one-row
    :func:`icsmc_sampler` (:func:`_chain_blocks`), copied whole.  Raises
    TooFewParticles for N < 1 (DimensionMismatch for a non-integer N), as a
    pin does for a bad ``x0`` and TraceTooShort unless ``n_iter`` is an
    integer >= 0, in that order."""
    sampler = icsmc_sampler(model, N, x0.points, 1)
    blocks = _chain_blocks(sampler, n_iter, rng)
    states, lgh = np.empty((n_iter + 1, model.T), dtype=int), np.empty(n_iter)
    states[0], done = sampler.start.paths[0], 0
    for block in blocks:
        n = len(block.paths)
        states[done + 1 : done + n + 1], lgh[done : done + n] = block.paths, block.log_gammas
        done += n
    retained = (states[1:] == states[:-1]).sum(axis=1)
    return ChainTrace(states=states, log_gamma_hats=lgh, retained=retained)
