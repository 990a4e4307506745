"""Exact enumeration of pinned-particle kernels and finite-chain analysis.

Four enumeration engines, each exact, cross-checked in the test suite.

* The count engine (:mod:`pmcmc_lab.histogram`) follows the free
  particles' counts over the states of positive mass, one multinomial per
  time, and sums the terminal draw by weight sums.  Its work is polynomial
  in N and counted before it runs.  It gives matrices
  (:func:`pmcmc_lab.histogram.histogram_sweep`) and entries with the pin's
  retained-weight share (the escape experiment's rows).
* The multiset sweep (:func:`multiset_sweep`) collapses the free particles,
  which are exchangeable, to the multiset of their ancestral paths, which
  evolves by multinomial draws.  A state is a count vector over the sorted
  distinct free paths of its level (the law after one time), and a level
  is built at once on arrays, its multinomial terms counted against the
  guard before any of it is built.  Each row comes with the retained-weight
  share E[G_T(x_T) / sum_j G_T(Z_T^j)].  It gives
  :func:`kernel_row_multiset` and the matrices past the count engine's guard.
* The slot sweep (:func:`slot_sweep`, one row: :func:`kernel_row`) is
  slot-faithful, with the reference pinned to an explicit slot sequence.  A
  particle system is one int64 key over its slots' path codes, and each
  time is a blocked outer product of the free slots' (parent slot, state)
  options, merged by sort-and-sum.  It is the independent engine against
  which the other sweeps' blindness to the lineage is tested.
* The outcome tree (:class:`_OutcomeTree`) walks every outcome of a pass,
  any functional and any pins, at exponential cost.  It is the
  maximally-dumb reference: every outcome is kept and nothing is merged.
  Each time expands a block of outcomes by the product of its free slots'
  (parent slot, state) options at once, depth-first in blocks of at most
  ``_TREE_BLOCK`` children, and its entries are counted against the guard
  before any is built.  :func:`enumerate_conditional_outcomes` is its view
  one outcome at a time; :func:`pmcmc_lab.c2smc.c2smc_expectation_bruteforce`
  (the two-pin brute force) reduces its blocks directly.

The two sweeps walk many pinned paths as a prefix trie (:func:`_trie_walk`),
so rows sharing x_1..x_t share the forward work through time t+1.
:func:`exact_pn_matrix` without a lineage runs the count engine when its
work count is within the guard and the multiset sweep otherwise, a choice
made before any array is built by one count-engine plan
(:class:`pmcmc_lab.histogram._Plan`).  Every engine checks its pins with
the pass's own :func:`pmcmc_lab.smc_core._pin_schedule`.

The expectation of the normalizing-constant estimate under the plain pass
(:func:`exact_gamma_hat_expectation`) is the count engine's multinomial
step without pins: a forward sweep over the histograms of the N particles.

Also here: stationary laws, total-variation curves, spectral summaries,
asymptotic variances and the exact minorization constant of enumerated
kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AllWeightsZero,
    DimensionMismatch,
    IndexOutOfRange,
    NonStochasticRow,
    NotReversible,
    OutcomeSpaceTooLarge,
    SingularSolve,
    TraceTooShort,
    ZeroStationaryMass,
    _whole,
)
from .fk_model import DiscreteFK, exact_target
from .histogram import _GUARD, _histograms, _multinomial, _Plan
from .smc_core import _checked_pins, _pin_layout, _pin_schedule

_TREE_BLOCK = 2**13  # children per outcome-tree block
_DETAILED_BALANCE_TOL = 1e-9  # largest |pi(x) P(x, y) - pi(y) P(y, x)| accepted
_SLOT_BLOCK = 2**13  # entries per slot-sweep block; its ~7 live arrays stay near 0.5 MB
_MULTISET_BLOCK = 2**15  # multinomial terms per multiset-sweep block; its term arrays stay near 1 MB


# ---------------------------------------------------------------------------
# Finite chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteChain:
    """An enumerated Markov kernel with its stationary distribution."""

    states: tuple
    kernel: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        K = self.kernel
        if np.max(np.abs(K.sum(axis=1) - 1.0)) > 1e-10:
            raise NonStochasticRow("kernel rows must sum to 1 within 1e-10")
        resid = np.max(np.abs(self.stationary @ K - self.stationary))
        if resid > 1e-9:
            raise NonStochasticRow(f"stationary vector fails invariance by {resid:.2e}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        if state not in self.states:
            raise IndexOutOfRange(f"{state!r} is not a state of the chain")
        return self.states.index(state)


def _square(kernel) -> np.ndarray:
    """``kernel`` as an (n, n) float array; DimensionMismatch otherwise."""
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise DimensionMismatch(f"kernel of shape {kernel.shape} is not square")
    return kernel


def stationary_distribution(kernel: np.ndarray) -> np.ndarray:
    """Solve pi K = pi, sum(pi) = 1 by least squares."""
    kernel = _square(kernel)
    n = kernel.shape[0]
    a = np.vstack([kernel.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def chain_from_kernel(states, kernel, stationary=None) -> FiniteChain:
    """A :class:`FiniteChain`; DimensionMismatch unless there is one state
    and one stationary entry per kernel row."""
    kernel, states = _square(kernel), tuple(states)
    pi = np.asarray(stationary_distribution(kernel) if stationary is None else stationary, dtype=float)
    if len(states) != len(kernel) or pi.shape != (len(kernel),):
        raise DimensionMismatch(f"{len(states)} states, stationary {pi.shape}, kernel {kernel.shape}")
    return FiniteChain(states=states, kernel=kernel, stationary=pi)


# ---------------------------------------------------------------------------
# Outcome tree (reference engine)
# ---------------------------------------------------------------------------


def _padded_moves(M) -> tuple:
    """Each state's successors under the transition matrix M (positive
    entries first, in order), padded to the widest row, with their
    probabilities (0 on the padding)."""
    succ = np.argsort(M <= 0, axis=1, kind="stable")[:, : (M > 0).sum(axis=1).max()]
    return succ, np.take_along_axis(M, succ, axis=1)


class _OutcomeTree:
    """The full outcome tree of a pass, grown one time at a time in blocks.

    A block of outcomes after time t is (probabilities (K,), states (K, t, N),
    ancestors (K, t-1, N)).  At time t each free slot takes one of O_t
    options: a state of positive initial mass at t=1, and after that a
    parent slot and one of the W_t successors of the widest transition row
    (padded with probability 0), O_t = N W_t.  An outcome's children are the
    product of its free slots' options in lexicographic order, the first
    free slot slowest, each of probability the outcome's times the
    options' product; children whose options' product is 0 are dropped and
    nothing is merged.  The walk is depth-first over blocks of at most
    ``_TREE_BLOCK`` children: whole outcomes' products, or pieces of one
    product larger than a block.

    ``entries`` counts the children the walk can build: at each time the
    outcomes after the time before, at most the product of the earlier
    times' O^(free slots), times O_t^(free slots).  It is counted before any
    array is built and refused past ``guard``.
    """

    def __init__(self, model: DiscreteFK, N: int, pins, guard: int = _GUARD):
        pin_state, pin_anc = _pin_schedule(model.tables, pins, N)
        self.support = np.flatnonzero(model.m1)
        self.widths = [len(self.support)] + [N * int((M > 0).sum(axis=1).max()) for M in model.transitions]
        self.entries, bound = 0, 1
        for width, pinned in zip(self.widths, pin_state):
            bound *= width ** (N - len(pinned))
            self.entries += bound
        if self.entries > min(guard, np.iinfo(np.int64).max):
            raise OutcomeSpaceTooLarge(f"outcome tree of {self.entries} entries passes the guard of {guard}")
        self.model, self.N = model, N
        # Per time: the free slots, and the pinned slots with their states
        # and (after time 1) their parent slots.
        self.free = [[i for i in range(N) if i not in pinned] for pinned in pin_state]
        self.pins = [
            (list(pinned), list(pinned.values()), [parents[i] for i in pinned] if parents is not None else None)
            for pinned, parents in zip(pin_state, [None] + pin_anc)
        ]
        self.moves = [None] + [_padded_moves(M) for M in model.transitions]

    def blocks(self):
        """Yield the leaves as blocks (probabilities, states, ancestors), in
        enumeration order."""
        empty = np.zeros((1, 0, self.N), dtype=int)
        yield from self._grow(1, np.ones(1), empty, empty)

    def _grow(self, t, prob, states, anc):
        """Yield the leaf blocks below the outcomes ``prob``, ``states``,
        ``anc`` after time t-1.  A parent whose weights are all zero raises
        AllWeightsZero after the leaves of the parents before it."""
        size = self.widths[t - 1] ** len(self.free[t - 1])
        chunk = max(1, min(size, _TREE_BLOCK))
        per = max(1, _TREE_BLOCK // max(size, 1))
        for lo in range(0, len(prob), per):
            hi, w, dead = min(lo + per, len(prob)), None, None
            if t > 1:
                g = self.model.potentials[t - 2][states[lo:hi, -1]]
                total = g.sum(axis=1)
                if not (total > 0).all():
                    dead = int(np.flatnonzero(total <= 0)[0])
                    hi, g, total = lo + dead, g[:dead], total[:dead]
                w = g / total[:, None]
            for c in range(0, size if hi > lo else 0, chunk):
                child = self._children(t, prob[lo:hi], states[lo:hi], anc[lo:hi], w, c, min(chunk, size - c))
                if not len(child[0]):
                    continue
                if t == self.model.T:
                    yield child
                else:
                    yield from self._grow(t + 1, *child)
            if dead is not None:
                raise AllWeightsZero(time=t - 1)

    def _children(self, t, prob, states, anc, w, c, L):
        """The children of options' product indices c..c+L-1 of each outcome
        ``prob``, ``states``, ``anc`` after time t-1 (weights ``w``)."""
        free, (slots, pinned, parents) = self.free[t - 1], self.pins[t - 1]
        O = self.widths[t - 1]
        j = np.arange(len(prob) * L)
        parent, r = j // L, c + j % L
        row = np.empty((len(j), self.N), dtype=int)
        row[:, slots] = pinned
        arow = np.empty_like(row)
        if t > 1:
            arow[:, slots] = parents
        p = np.ones(len(j))
        for i, slot in enumerate(free):
            d = r // O ** (len(free) - 1 - i) % O
            if t == 1:
                s, pw = self.support[d], self.model.m1[self.support[d]]
            else:
                (succ, q), k, m = self.moves[t - 1], d // (O // self.N), d % (O // self.N)
                prev = states[parent, -1, k]
                s, pw = succ[prev, m], w[parent, k] * q[prev, m]
                arow[:, slot] = k
            row[:, slot] = s
            p = p * pw
        keep = p != 0
        parent, row, arow = parent[keep], row[keep], arow[keep]
        new_prob = prob[parent] * p[keep]
        new_states = np.concatenate((states[parent], row[:, None]), axis=1)
        new_anc = anc[parent] if t == 1 else np.concatenate((anc[parent], arow[:, None]), axis=1)
        return new_prob, new_states, new_anc


def enumerate_conditional_outcomes(model: DiscreteFK, N: int, pins, guard: int = _GUARD):
    """Yield (probability, states, ancestors) over all outcomes of a pass,
    one outcome at a time: the row view of the outcome tree's blocks.

    ``pins`` is a list of (lineage, path) pairs, checked as the pass checks
    them (:func:`pmcmc_lab.smc_core._pin_schedule`); an empty list
    enumerates the unconditional pass.  Raises TooFewParticles for N < 1 and
    OutcomeSpaceTooLarge when the tree's entry count passes ``guard``.  The
    terminal selection is not included: consumers weight over it with
    :func:`final_selection_weights` when they need it.
    """
    for prob, states, ancestors in _OutcomeTree(model, N, pins, guard).blocks():
        # Converted a slice at a time: a whole block's nested lists would
        # hold about 0.5 MB at model A's 1728 outcomes.
        for lo in range(0, len(prob), 64):
            part = slice(lo, lo + 64)
            yield from zip(prob[part].tolist(), _tuples(states[part]), _tuples(ancestors[part]))


def _tuples(a):
    """The (K, r, N) array ``a`` as K tuples of r row tuples."""
    rows = map(tuple, a.reshape(-1, a.shape[2]).tolist())
    return zip(*[rows] * a.shape[1]) if a.shape[1] else itertools.repeat((), len(a))


def final_selection_weights(model: DiscreteFK, states) -> np.ndarray:
    """The terminal draw's law over the N slots of one outcome: the time-T
    potentials of ``states[-1]``, normalised.  Raises AllWeightsZero when they
    are all zero."""
    g = model.potentials[-1][list(states[-1])]
    total = float(g.sum())
    if total <= 0:
        raise AllWeightsZero(time=model.T)
    return g / total


def trace_lineage(states, ancestors, terminal: int) -> tuple:
    """The ancestral path of slot ``terminal`` at time T: its state at each
    time, following ``ancestors`` (rows for times 2..T) back to time 1.
    Raises IndexOutOfRange for a terminal slot that is not an integer in
    [0, N)."""
    T, N = len(states), len(states[-1])
    idx = _whole(terminal, 0, N, name="terminal slot")
    out = [None] * T
    for t in range(T, 0, -1):
        out[t - 1] = states[t - 1][idx]
        if t > 1:
            idx = ancestors[t - 2][idx]
    return tuple(out)


# ---------------------------------------------------------------------------
# Slot sweep (slot-faithful kernel rows, the reference on any lineage)
# ---------------------------------------------------------------------------


class _SlotSweep:
    """Forward sweep over whole particle systems, slot by slot.

    After time t the ancestral paths in play are the rows of a (P, t) table;
    a child is coded (parent row) S + (its state), and the codes in play are
    renumbered densely.  A system is its free slots' codes, one int64 key,
    with a probability; the pinned slot ``lineage[t-1]`` holds x_1..x_t.
    Each time is the outer product of the free slots' (parent slot, state)
    options, built in blocks of about ``_SLOT_BLOCK`` entries and merged
    by sort-and-sum.  ``entries`` counts the entries built: the time-1
    product, keys x options^(N-1) per later time and keys x N per terminal
    sum, each counted before it is built and refused past ``guard``.
    """

    def __init__(self, model: DiscreteFK, N: int, lineage, guard: int):
        self.model, self.n_free, self.lineage, self.guard, self.entries = model, N - 1, lineage, guard, 0
        self.moves = [None, None] + [_padded_moves(M) for M in model.transitions]

    def rows(self, paths):
        """Yield (x, kernel row of x) for each pinned path, in trie order."""
        support = np.flatnonzero(self.model.m1)
        codes = np.arange(len(support))[None]
        law = (support[:, None],) + self._expand(np.ones(1), self.model.m1[support][None], codes, len(support))
        yield from _trie_walk(self.model.T, 1, law, list(paths), self._step, self._select)

    def _count(self, n: int) -> None:
        self.entries += n
        if self.entries > self.guard:
            raise OutcomeSpaceTooLarge(f"slot sweep passes the guard of {self.guard} entries")

    def _place(self, law, x, t):
        """The path table and (K, N) systems after time t, the pin x_1..x_t in
        its slot (and in the table, if no free slot holds it), and each
        system's selection weights at t."""
        table, free, _ = law
        row = np.flatnonzero((table == x[:t]).all(axis=1))
        if not len(row):
            table, row = np.vstack([table, x[:t]]), [len(table)]
        systems = np.insert(free, self.lineage[t - 1], row[0], axis=1)
        g = self.model.potentials[t - 1][table[:, -1]][systems]
        total = g.sum(axis=1)
        if not total.all():
            raise AllWeightsZero(time=t)
        return table, systems, g / total[:, None]

    def _step(self, t, law, pinned):
        """The law after time t from the law after t-1 and the pinned parent
        path x_1..x_{t-1}."""
        table, systems, w = self._place(law, pinned, t - 1)
        K, S, (succ, q) = len(systems), self.model.n_states, self.moves[t]
        last = table[:, -1][systems]
        opt_p = (w[..., None] * q[last]).reshape(K, -1)
        raw = (systems[..., None] * S + succ[last]).reshape(K, -1)
        used = np.bincount(raw[opt_p > 0], minlength=len(table) * S) > 0
        kept = np.flatnonzero(used)
        children = np.hstack([table[kept // S], (kept % S)[:, None]])
        return (children,) + self._expand(law[2], opt_p, (np.cumsum(used) - 1)[raw], len(kept))

    def _expand(self, probs, opt_p, opt_c, base):
        """K systems of probabilities ``probs`` times every choice, for each
        free slot, of one of O options (K, O) of probability ``opt_p`` and
        code ``opt_c`` < base: the merged (K', N-1) codes and probabilities."""
        n, (K, O) = self.n_free, opt_p.shape
        if base**n > np.iinfo(np.int64).max:
            raise OutcomeSpaceTooLarge(f"{n} slot codes in base {base} pass one int64 key")
        self._count(K * O**n)
        rows, parts = max(1, _SLOT_BLOCK // O**n), []
        for lo in range(0, K, rows):
            p = probs[lo : lo + rows, None]
            key = np.zeros(p.shape, dtype=np.int64)
            for _ in range(n):
                p = (p[..., None] * opt_p[lo : lo + rows, None]).reshape(len(p), -1)
                key = (key[..., None] * base + opt_c[lo : lo + rows, None]).reshape(len(p), -1)
            parts.append(_merge(key[p > 0], p[p > 0]))
        key, probs = _merge(*map(np.concatenate, zip(*parts)))
        return key[:, None] // base ** np.arange(n - 1, -1, -1) % base, probs

    def _select(self, law, group):
        """Yield (x, kernel row of x) for each x in ``group``: the terminal
        draw, one weighted sum per selected path."""
        for x in group:
            self._count(len(law[1]) * (self.n_free + 1))
            table, systems, w = self._place(law, x, self.model.T)
            mass = np.bincount(systems.ravel(), (law[2][:, None] * w).ravel(), len(table))
            hit = np.bincount(systems[w > 0], minlength=len(table)) > 0
            yield x, dict(zip(map(tuple, table[hit].tolist()), mass[hit].tolist()))


def _merge(keys, probs):
    """The distinct keys in order, with the probabilities of equal keys summed."""
    order = np.argsort(keys, kind="stable")
    keys, probs = keys[order], probs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(probs, starts)


def _trie_walk(T, t, law, group, step, select):
    """Yield the rows of ``group``, pinned paths that agree on x_1..x_{t-1},
    from ``law``, the law after time t that they share: each distinct x_t
    steps to its law after t+1 (``step``), and at T ``select`` yields."""
    if t == T:
        yield from select(law, group)
        return
    branches: dict = {}
    for x in group:
        branches.setdefault(x[t - 1], []).append(x)
    for branch in branches.values():
        yield from _trie_walk(T, t + 1, step(t + 1, law, branch[0][:t]), branch, step, select)


def slot_sweep(model: DiscreteFK, N: int, paths, lineage=None, guard: int = _GUARD):
    """Yield (x, kernel row of x) for each pinned path, in prefix-trie order,
    with the reference on ``lineage`` (slot 0 at every time by default).

    The paths are checked as one batched pin on the lineage; ``guard``
    bounds the entries of the whole sweep.
    """
    lineage = tuple(lineage) if lineage is not None else (0,) * model.T
    paths = list(map(tuple, _checked_pins(model, N, paths, lineage).tolist()))
    yield from _SlotSweep(model, N, lineage, guard).rows(paths)


def kernel_row(model: DiscreteFK, N: int, x, lineage=None, guard: int = _GUARD) -> dict:
    """Exact law of the selected path from one trajectory, a dict path ->
    probability: the one-path call of :func:`slot_sweep`."""
    ((_, row),) = slot_sweep(model, N, [x], lineage, guard)
    return row


# ---------------------------------------------------------------------------
# Multiset sweep (kernel rows with their shares; matrices of large alphabets)
# ---------------------------------------------------------------------------


class _MultisetSweep:
    """Forward sweep over (pinned path, multiset of free ancestral paths).

    Free children are conditionally i.i.d. given the current states, so the
    multiset of the N-1 free paths evolves by multinomial draws.  A level,
    the law after one time, is the sorted list of its D distinct free paths,
    a (K, D) matrix of states, each a count vector over those paths, and
    the K states' probabilities, states in first-seen order.  A state's
    types are the children of its paths and of the pin, and a level is one
    draw of the level before: each state's compositions of the N-1 free
    particles over its types in lexicographic order, the first type's count
    slowest, equal states summed in that order.

    ``terms`` counts the multinomial terms, C(N-2+k, N-1) for a state of k
    types.  Each level's are counted in full before any of the level is
    built, and a level that takes the count past ``guard`` raises
    OutcomeSpaceTooLarge.
    """

    def __init__(self, model: DiscreteFK, N: int, guard: int):
        self.model, self.n_free, self.guard, self.terms = model, N - 1, guard, 0
        self.moves = [None, None] + [
            [[(int(s), float(row[s])) for s in np.flatnonzero(row)] for row in M] for M in model.transitions
        ]

    def rows(self, paths):
        """Yield (x, kernel row of x, share) for each pinned path, in trie order."""
        support = np.flatnonzero(self.model.m1)
        types, live = [(int(s),) for s in support], np.ones((1, len(support)), dtype=bool)
        initial = self._draw(types, self.model.m1[support][None], live, np.ones(1))
        yield from _trie_walk(self.model.T, 1, initial, list(paths), self._step, self._select)

    def _step(self, t, law, pinned):
        """The level after time t, given the level after t-1 and the pinned
        parent path x_1..x_{t-1}."""
        paths, counts, probs = law
        g = self.model.potentials[t - 2]
        # Weight columns: the pin, the free paths, and a zero column for the
        # pin's path when no free particle holds it.
        w = np.zeros((len(probs), len(paths) + 2))
        w[:, 0] = g[pinned[-1]]
        w[:, 1:-1] = counts * g[[p[-1] for p in paths]]
        total = np.cumsum(w, axis=1)[:, -1]  # left to right, >= g_pin > 0: the pin was checked
        share = w / total[:, None]
        column = {p: j for j, p in enumerate(paths, 1)}
        types, parent, q, pin = [], [], [], []
        for path in sorted(column.keys() | {pinned}):
            for s, qs in self.moves[t][path[-1]]:
                if path == pinned:
                    pin.append(len(types))
                types.append(path + (s,))
                parent.append(column.get(path, -1))
                q.append(qs)
        q = np.array(q)
        p = share[:, parent] * q
        p[:, pin] = share[:, :1] * q[pin] + p[:, pin]  # the pin's share first
        live = w[:, parent] != 0
        live[:, pin] = True
        return self._draw(types, p, live, probs)

    def _draw(self, types, p, live, probs):
        """The level of n_free i.i.d. draws from each state (row) of
        probability ``probs`` over its live ``types`` (sorted child paths of
        probabilities ``p``), its terms counted before any is built."""
        k = np.count_nonzero(live, axis=1)
        states = np.bincount(k).tolist()  # per number of types
        size = [math.comb(self.n_free + j - 1, self.n_free) if m else 0 for j, m in enumerate(states)]
        self.terms += sum(m * c for m, c in zip(states, size))
        if self.terms > min(self.guard, np.iinfo(np.int64).max):
            raise OutcomeSpaceTooLarge(f"multiset sweep passes the guard of {self.guard} multinomial terms")
        return self._build(types, p, live, probs, k, np.array(size, dtype=np.int64)[k])

    def _build(self, types, p, live, probs, k, size):
        """The level of :meth:`_draw` (``size`` terms per state), built in
        blocks of whole states of about ``_MULTISET_BLOCK`` terms (a state
        with more is a block of its own).  A term's state is a mixed-radix
        code of its counts over ``types``, in as many int64 words as the
        types need; blocks after the first find their states' ids by code."""
        base = self.n_free + 1
        digits = 1
        while digits < len(types) and base ** (digits + 1) <= 2**63:
            digits += 1
        word, place = np.divmod(np.arange(len(types)), digits)
        scale = base**place
        ends = np.cumsum(size)
        codes, sums, index, lo = [np.zeros((word[-1] + 1, 0), dtype=np.int64)], np.zeros(0), {}, 0
        while lo < len(probs):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - size[lo] + _MULTISET_BLOCK, "right")))
            code, coeff = self._terms(p[lo:hi], live[lo:hi], probs[lo:hi], k[lo:hi], size[lo:hi], word, scale)
            kept = coeff != 0.0
            block, local = _first_seen(code[:, kept])
            if hi - lo == len(probs):
                ids = np.arange(block.shape[1])
            else:
                ids = np.array([index.setdefault(key, len(index)) for key in map(tuple, block.T.tolist())], dtype=int)
            new = ids >= len(sums)
            codes.append(block[:, new])
            sums = np.concatenate((sums, np.zeros(np.count_nonzero(new))))
            np.add.at(sums, ids[local], coeff[kept])  # in enumeration order
            lo = hi
        counts = np.concatenate(codes, axis=1)[word] // scale[:, None] % base
        held = counts.any(axis=1)
        return [types[j] for j in np.flatnonzero(held).tolist()], counts[held].T, sums

    def _terms(self, p, live, probs, k, size, word, scale):
        """The (words, M) state codes and the M coefficients of the terms of
        the states ``probs``, in enumeration order: the states with k types
        at once, each coefficient built type by type after the state's
        probability, as prob * (C(rem, c) * p**c) * ..."""
        n, start = self.n_free, np.cumsum(size) - size
        code = np.empty((word[-1] + 1, int(size.sum())), dtype=np.int64)
        coeff = np.empty(code.shape[1])
        for j in np.flatnonzero(np.bincount(k)).tolist():
            rows = np.flatnonzero(k == j)
            comps, factors = _compositions(n, j)
            cols = np.nonzero(live[rows])[1].reshape(len(rows), j)
            # Python's own powers: numpy's vectorised power differs in the last bit.
            powers = np.array([v**c for v in p[rows[:, None], cols].ravel().tolist() for c in range(n + 1)])
            powers = powers.reshape(len(rows), j, n + 1)
            at = start[rows, None] + np.arange(len(comps))
            c = probs[rows, None]
            for i in range(j):
                c = c * (factors[:, i] * np.take(powers[:, i], comps[:, i], axis=1))
            coeff[at] = c
            words, scales = word[cols], scale[cols]
            for w in range(len(code)):
                code[w, at] = np.where(words == w, scales, 0) @ comps.T
        return code, coeff

    def _select(self, law, group):
        """Yield (x, kernel row of x, retained-weight share) for each x in
        ``group``: the terminal draw.  The row's entry for x also counts free
        copies of x; the share does not."""
        paths, counts, probs = law
        g = self.model.potentials[self.model.T - 1]
        w = counts * g[[p[-1] for p in paths]]
        free = np.cumsum(np.hstack((np.zeros((len(probs), 1)), w)), axis=1)[:, -1]  # left to right
        # Each path's first state of positive weight (len(probs) for none),
        # and the paths that have one, in that order.
        first = np.vstack((w != 0, np.ones(len(paths), dtype=bool))).argmax(axis=0)
        seen = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(probs))].tolist()
        column = {p: j for j, p in enumerate(paths)}
        for x in group:
            g_pin = g[x[-1]]
            total = g_pin + free
            pinned = (probs * g_pin / total).tolist()
            terms = (probs[:, None] * w / total[:, None]).T.tolist()
            row = {x: math.fsum(pinned + terms[column[x]] if x in column else pinned)}
            for j in seen:
                if paths[j] != x:
                    row[paths[j]] = math.fsum(terms[j])
            yield x, row, math.fsum(pinned)


def _compositions(n: int, k: int) -> tuple:
    """The compositions of n into k parts in lexicographic order, the first
    part slowest, as a (C, k) array, and each part's binomial factor
    C(n - earlier parts, part) as a float.  Tables of at most
    ``_MULTISET_BLOCK`` rows are kept for the next call."""
    return (_kept_compositions if math.comb(n + k - 1, k - 1) <= _MULTISET_BLOCK else _composition_table)(n, k)


def _composition_table(n: int, k: int) -> tuple:
    C = math.comb(n + k - 1, k - 1)
    # Each composition is the gaps between k-1 bars among n+k-1 places.
    bars = itertools.chain.from_iterable(itertools.combinations(range(n + k - 1), k - 1))
    edges = np.full((C, k + 1), n + k - 1)
    edges[:, 0] = -1
    edges[:, 1:-1] = np.fromiter(bars, dtype=np.int64, count=C * (k - 1)).reshape(C, k - 1)
    comps = np.diff(edges, axis=1) - 1
    rest = n - np.cumsum(comps, axis=1) + comps
    factors = np.array([float(math.comb(r, c)) for r, c in zip(rest.ravel().tolist(), comps.ravel().tolist())])
    comps.flags.writeable = factors.flags.writeable = False  # kept tables are shared by every call
    return comps, factors.reshape(C, k)


_kept_compositions = lru_cache(maxsize=64)(_composition_table)


def _first_seen(code):
    """The distinct columns of the (words, M) ``code`` in order of first
    appearance, and each column's index among them."""
    ids = np.unique(code[0], return_inverse=True)[1].ravel()
    for w in code[1:]:
        values, which = np.unique(w, return_inverse=True)
        ids = np.unique(ids * len(values) + which.ravel(), return_inverse=True)[1].ravel()
    first = np.full(ids.max(initial=-1) + 1, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    return code[:, first[order]], rank[ids]


def multiset_sweep(model: DiscreteFK, N: int, paths, guard: int = _GUARD):
    """Yield (x, kernel row of x, retained-weight share) for each pinned path,
    in prefix-trie order.  The share is the chance that the terminal draw
    picks the pinned particle itself.  ``guard`` bounds the multinomial terms
    of the whole sweep.
    """
    paths = list(map(tuple, _checked_pins(model, N, paths).tolist()))
    yield from _MultisetSweep(model, N, guard).rows(paths)


def kernel_row_multiset(model: DiscreteFK, N: int, x, guard: int = _GUARD) -> dict:
    """Exact kernel row using exchangeability of the free particles: the
    one-path call of :func:`multiset_sweep`, blind to the pinned slot
    sequence (a blindness :func:`kernel_row` tests, not assumes)."""
    ((_, row, _),) = multiset_sweep(model, N, [x], guard)
    return row


def exact_pn_matrix(
    model: DiscreteFK, N: int, lineage=None, target=None, guard: int = _GUARD
) -> FiniteChain:
    """The iterated-pass kernel over all positive-mass paths, enumerated exactly.

    ``guard`` bounds the work of the engine that runs, and a refusal raises
    OutcomeSpaceTooLarge:

    * Without a ``lineage`` one count-engine plan counts its work before
      any array is built, and builds the matrix
      (:func:`pmcmc_lab.histogram.histogram_sweep`)
      when that work, in law entries, is at most ``guard``.  Otherwise one
      :func:`multiset_sweep` walks all paths at once, and ``guard`` bounds
      the multinomial terms of the whole sweep.
    * With a pin lineage one slot-faithful :func:`slot_sweep` walks all
      paths at once, and ``guard`` bounds the entries of the whole sweep.

    """
    return _pn_matrix(model, N, lineage, target, guard)[0]


def _pn_matrix(model: DiscreteFK, N: int, lineage, target, guard: int) -> tuple:
    """:func:`exact_pn_matrix`, the engine that ran and the count engine's
    work, with the count plan built once ("slot" and 0 with a lineage)."""
    if target is None:
        target = exact_target(model)
    paths = target.paths
    if len(paths) > 3000:
        raise OutcomeSpaceTooLarge(f"{len(paths)} paths exceed the supported matrix size")
    engine, work = "slot", 0
    if lineage is not None:
        K = _row_matrix(paths, slot_sweep(model, N, paths, lineage, guard))
    else:
        plan = _Plan(model, N, paths, guard=guard)
        engine, work = ("histogram" if plan.complete else "multiset"), plan.work
        K = plan.matrix() if plan.complete else _row_matrix(paths, multiset_sweep(model, N, paths, guard))
    return FiniteChain(states=paths, kernel=K, stationary=target.probabilities.copy()), engine, work


def _row_matrix(paths, rows) -> np.ndarray:
    """The kernel over ``paths`` from (x, row of x as a dict, ...) tuples."""
    K = np.zeros((len(paths), len(paths)))
    index = {p: i for i, p in enumerate(paths)}
    for x, row, *_ in rows:
        i = index[x]
        for path, p in row.items():
            K[i, index[path]] += p
    return K


# ---------------------------------------------------------------------------
# Expectation of the normalizing-constant estimate under the plain pass
# ---------------------------------------------------------------------------


def exact_gamma_hat_expectation(model: DiscreteFK, N: int, guard: int = _GUARD) -> float:
    """E[product over time of the average weights] under the plain pass
    (gamma_T, by unbiasedness): a forward sweep over the H = C(N+S-1, N)
    histograms of the N particles, one multinomial per time.  Its entries,
    S (N+1) + H for the time-1 law and H S (N+1) + H^2 per later time, are
    refused past ``guard`` before any array is built.  A pass whose weights
    all vanish at some time estimates 0, and counts so.  Raises
    TooFewParticles for N < 1 and DimensionMismatch for a non-integer N, as
    a pass does (:func:`~pmcmc_lab.smc_core._pin_layout`).
    """
    _pin_layout(model.T, N, ())
    S, T = model.n_states, model.T
    H = math.comb(N + S - 1, N)
    entries = S * (N + 1) + H + (T - 1) * (H * S * (N + 1) + H * H)
    if entries > guard:
        raise OutcomeSpaceTooLarge(f"histogram sweep of {entries} entries passes the guard of {guard}")
    counts, coef = _histograms(N, S)
    # law[h]: P(histogram h at t) times the average weights before t.
    law = _multinomial(model.m1[None, None], counts, coef)[0, 0]
    for t in range(1, T):
        mass = counts * model.potentials[t - 1]
        total = mass.sum(axis=1)
        # A histogram without weight estimates 0, so its law drops out; keep its q row finite.
        q = mass @ model.transitions[t - 1] / np.where(total > 0, total, 1.0)[:, None]
        law = (law * total / N) @ _multinomial(q[None], counts, coef)[0]
    return float(law @ (counts @ model.potentials[T - 1]) / N)


# ---------------------------------------------------------------------------
# Chain analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a reversible kernel.

    ``gap_right`` is one minus the second-largest eigenvalue; ``gap_left``
    measures the distance of the spectrum from -1 on the mean-zero subspace,
    reported as 2 minus the largest normalised Dirichlet ratio (equivalently
    1 plus the smallest eigenvalue).
    """

    gap_right: float
    gap_left: float
    min_eigenvalue: float
    is_positive: bool


def _symmetrized(chain: FiniteChain) -> np.ndarray:
    pi = chain.stationary
    if np.any(pi <= 0):
        raise ZeroStationaryMass("spectral analysis requires strictly positive stationary mass")
    flow = pi[:, None] * chain.kernel
    if np.max(np.abs(flow - flow.T)) > _DETAILED_BALANCE_TOL:
        raise NotReversible(f"detailed balance fails by {np.max(np.abs(flow - flow.T)):.2e}")
    d = np.sqrt(pi)
    sym = (d[:, None] * chain.kernel) / d[None, :]
    return (sym + sym.T) / 2.0


def spectral_summary(chain: FiniteChain) -> SpectralSummary:
    lam = np.linalg.eigvalsh(_symmetrized(chain))
    lam_min = float(lam[0])
    lam_second = float(lam[-2]) if len(lam) >= 2 else 1.0
    return SpectralSummary(
        gap_right=1.0 - lam_second,
        gap_left=1.0 + lam_min,
        min_eigenvalue=lam_min,
        is_positive=bool(lam_min >= -1e-10),
    )


def tv_curve(chain: FiniteChain, x0: int, n_max: int) -> np.ndarray:
    """Exact total-variation distance of the n-step law from stationarity,
    for n = 0..n_max.  Raises IndexOutOfRange for a start state that is not
    an integer in [0, n_states) and TraceTooShort unless n_max is an integer
    >= 0."""
    x0 = _whole(x0, 0, chain.n_states, name="start state")
    n_max = _whole(n_max, 0, error=TraceTooShort, name="curve length n_max")
    dist = np.zeros(chain.n_states)
    dist[x0] = 1.0
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = 0.5 * float(np.abs(dist - chain.stationary).sum())
        dist = dist @ chain.kernel
    return out


def _function_values(f, n: int) -> np.ndarray:
    """``f`` as n floats, one per state; DimensionMismatch otherwise."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise DimensionMismatch(f"function of shape {f.shape} on {n} states")
    return f


def exact_asymptotic_variance(chain: FiniteChain, f) -> float:
    """Limiting variance of normalised ergodic averages of f, reversible case.

    Spectral form: decompose the symmetrised kernel and sum
    (1+lambda)/(1-lambda) over the mean-zero spectrum.
    """
    return next(_variances(chain, [f]))


def _variances(chain: FiniteChain, fs):
    """:func:`exact_asymptotic_variance` of each f of ``fs``, yielded in
    turn, from one decomposition of the symmetrised kernel made after the
    first f is checked, so each f is checked and raises where its own call
    would."""
    pi, decomposed = chain.stationary, None
    for f in fs:
        f = _function_values(f, chain.n_states)
        if decomposed is None:
            decomposed = np.linalg.eigh(_symmetrized(chain))
        lam, vecs = decomposed
        f0 = f - float(pi @ f)
        g = np.sqrt(pi) * f0
        coeffs = vecs.T @ g
        var = 0.0
        for lam_k, c in zip(lam, coeffs):
            if c * c <= 1e-24:
                continue
            if lam_k >= 1.0 - 1e-12:
                raise SingularSolve("unit eigenvalue carries mass: chain is not ergodic for f")
            var += c * c * (1.0 + lam_k) / (1.0 - lam_k)
        yield float(var)


def asymptotic_variance_general(kernel: np.ndarray, stationary: np.ndarray, f) -> float:
    """Asymptotic variance without assuming reversibility.

    Uses the fundamental-matrix identity: with Z = (I - K + 1 pi)^(-1),
    var = 2 <f0, Z f0>_pi - <f0, f0>_pi for centred f0.
    """
    pi = np.asarray(stationary, dtype=float)
    f = _function_values(f, len(pi))
    f0 = f - float(pi @ f)
    n = len(pi)
    m = np.eye(n) - kernel + np.outer(np.ones(n), pi)
    try:
        z = np.linalg.solve(m, f0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularSolve(str(exc)) from exc
    return float(2.0 * (pi * f0) @ z - (pi * f0) @ f0)


def dirichlet_form(chain: FiniteChain, f) -> float:
    """<f, (I-K) f> under the stationary law."""
    pi = chain.stationary
    f = _function_values(f, chain.n_states)
    return float((pi * f) @ (f - chain.kernel @ f))


def l2_distance(chain: FiniteChain, nu) -> float:
    """Chi-square style L2(pi) distance of a probability vector from pi."""
    pi = chain.stationary
    dens = _function_values(nu, chain.n_states) / pi - 1.0
    return float(math.sqrt(np.sum(dens * dens * pi)))


def exact_minorization(chain: FiniteChain) -> float:
    """min over (x, y) of K(x, y) / pi(y): the sharpest uniform minorization."""
    pi = chain.stationary
    if np.any(pi <= 0):
        raise ZeroStationaryMass("minorization requires strictly positive stationary mass")
    return float(np.min(chain.kernel / pi[None, :]))
