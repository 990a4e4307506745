"""Exact enumeration of pinned-particle kernels and finite-chain analysis.

Four enumeration engines, each exact, cross-checked in the test suite.

* The count engine (:mod:`pmcmc_lab.histogram`) follows the free
  particles' counts over the states of positive mass, one multinomial per
  time, and sums the terminal draw by weight sums.  Its work is polynomial
  in N and counted before it runs.  It gives matrices
  (:func:`histogram_sweep`) and entries with the pin's retained-weight
  share (the escape experiment's rows).
* The multiset sweep (:func:`multiset_sweep`) collapses the free particles,
  which are exchangeable, to the multiset of their ancestral paths, which
  evolves by multinomial draws.  Many rows are one sweep that walks the
  pinned paths as a prefix trie, so rows sharing x_1..x_t share the forward
  work through time t+1.  Each row comes with the retained-weight share
  E[G_T(x_T) / sum_j G_T(Z_T^j)].  It gives :func:`kernel_row_multiset`
  and the matrices past the count engine's guard.
* :func:`kernel_row` is slot-faithful: a forward sweep over tuples of
  ancestral paths with the reference pinned to an explicit slot sequence.
  It runs only when :func:`exact_pn_matrix` is given a lineage, and it is
  the independent engine against which the other sweeps' blindness to that
  lineage is tested.
* :func:`enumerate_conditional_outcomes` walks the full outcome tree of a
  pass (states and ancestor rows with exact probabilities).  It supports any
  functional of the particle system and any pin configuration, at the price
  of exponential cost.  It is the maximally-dumb reference: it runs in the
  tests (:func:`kernel_row_tree`) and behind the two-pin brute force
  :func:`pmcmc_lab.c2smc.c2smc_expectation_bruteforce`, itself a reference
  for the closed form.

:func:`exact_pn_matrix` without a lineage runs the count engine when its
work count is within the guard and the multiset sweep otherwise; one
private function, :func:`_matrix_engine`, makes that choice before any
array is built.

Every engine admits a pinned path exactly when a pass would: each checks
its pins with the pass's own :func:`pmcmc_lab.smc_core._pin_schedule`
(length, slots in [0, N), states in the alphabet, positive weights, no
clashing slots).

Also here: stationary laws, total-variation curves, spectral summaries,
asymptotic variances and the exact minorization constant of enumerated
kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllWeightsZero,
    DimensionMismatch,
    IndexOutOfRange,
    NonStochasticRow,
    NotReversible,
    OutcomeSpaceTooLarge,
    SingularSolve,
    ZeroStationaryMass,
)
from .fk_model import DiscreteFK, exact_target
from .histogram import _histogram_work, histogram_sweep
from .smc_core import _path_rows, _pin_schedule

_TREE_ROW_GUARD = 10**6  # most outcome-tree leaves kernel_row_tree enumerates
_DETAILED_BALANCE_TOL = 1e-9  # largest |pi(x) P(x, y) - pi(y) P(y, x)| accepted


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
        return self.states.index(state)


def stationary_distribution(kernel: np.ndarray) -> np.ndarray:
    """Solve pi K = pi, sum(pi) = 1 by least squares."""
    n = kernel.shape[0]
    a = np.vstack([kernel.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def chain_from_kernel(states, kernel, stationary=None) -> FiniteChain:
    kernel = np.asarray(kernel, dtype=float)
    if stationary is None:
        stationary = stationary_distribution(kernel)
    return FiniteChain(states=tuple(states), kernel=kernel, stationary=np.asarray(stationary, dtype=float))


# ---------------------------------------------------------------------------
# Outcome-tree enumeration (reference engine)
# ---------------------------------------------------------------------------


def _tree_size(model: DiscreteFK, N: int, pin_state) -> float:
    """Upper bound on the number of leaves of the outcome tree."""
    count = 1.0
    supp1 = int(np.sum(model.m1 > 0))
    count *= supp1 ** (N - len(pin_state[0]))
    for t in range(2, model.T + 1):
        n_free = N - len(pin_state[t - 1])
        max_row = max(int(np.sum(row > 0)) for row in model.transition(t))
        count *= float(N * max_row) ** n_free
    return count


def enumerate_conditional_outcomes(model: DiscreteFK, N: int, pins, guard: int = 10**7):
    """Yield (probability, states, ancestors) over all outcomes of a pass.

    ``pins`` is a list of (lineage, path) pairs, checked as the pass checks
    them (:func:`pmcmc_lab.smc_core._pin_schedule`); an empty list
    enumerates the unconditional pass.  The terminal selection is not
    included: consumers weight over it with the final potential row when
    they need it.
    """
    T = model.T
    pin_state, pin_anc = _pin_schedule(model.tables, pins, N)
    if _tree_size(model, N, pin_state) > guard:
        raise OutcomeSpaceTooLarge("outcome tree exceeds the enumeration guard")

    m1_support = [(int(s), float(model.m1[s])) for s in np.flatnonzero(model.m1)]

    def rec(t, states, ancestors, prob):
        if t > T:
            yield prob, tuple(states), tuple(ancestors)
            return
        pinned = pin_state[t - 1]
        free = [i for i in range(N) if i not in pinned]
        if t == 1:
            options = [m1_support] * len(free)

            def build(combo):
                row = [None] * N
                for i, st in pinned.items():
                    row[i] = st
                p = 1.0
                for slot, (s, w) in zip(free, combo):
                    row[slot] = s
                    p *= w
                return tuple(row), None, p

        else:
            prev = states[-1]
            g = np.array([model.potential(t - 1, z) for z in prev])
            tot = float(g.sum())
            if tot <= 0:
                raise AllWeightsZero(time=t - 1)
            w = g / tot
            mat = model.transition(t)
            per_free = [
                (k, int(s), float(w[k] * mat[prev[k], s]))
                for k in range(N)
                if w[k] > 0
                for s in np.flatnonzero(mat[prev[k]])
            ]
            options = [per_free] * len(free)

            def build(combo):
                row = [None] * N
                anc = [None] * N
                for i, st in pinned.items():
                    row[i] = st
                    anc[i] = pin_anc[t - 2][i]
                p = 1.0
                for slot, (k, s, pw) in zip(free, combo):
                    row[slot] = s
                    anc[slot] = k
                    p *= pw
                return tuple(row), tuple(anc), p

        for combo in itertools.product(*options):
            row, anc, p = build(combo)
            if p == 0.0:
                continue
            new_states = states + [row]
            new_anc = ancestors + [anc] if anc is not None else ancestors
            yield from rec(t + 1, new_states, new_anc, prob * p)

    yield from rec(1, [], [], 1.0)


def final_selection_weights(model: DiscreteFK, states) -> np.ndarray:
    g = np.array([model.potential(model.T, z) for z in states[-1]])
    tot = float(g.sum())
    if tot <= 0:
        raise AllWeightsZero(time=model.T)
    return g / tot


def trace_lineage(states, ancestors, terminal: int) -> tuple:
    T = len(states)
    idx = terminal
    out = [None] * T
    for t in range(T, 0, -1):
        out[t - 1] = states[t - 1][idx]
        if t > 1:
            idx = ancestors[t - 2][idx]
    return tuple(out)


def kernel_row_tree(model: DiscreteFK, N: int, x, lineage=None) -> dict:
    """One kernel row through the outcome tree (reference; small cases only)."""
    T = model.T
    lineage = tuple(lineage) if lineage is not None else (0,) * T
    row: dict = {}
    for prob, states, ancestors in enumerate_conditional_outcomes(
        model, N, [(lineage, tuple(x))], guard=_TREE_ROW_GUARD
    ):
        w = final_selection_weights(model, states)
        for k in np.flatnonzero(w):
            path = trace_lineage(states, ancestors, int(k))
            row[path] = row.get(path, 0.0) + prob * float(w[k])
    return row


# ---------------------------------------------------------------------------
# Path-tuple dynamic program (slot-faithful kernel rows)
# ---------------------------------------------------------------------------


def kernel_row(model: DiscreteFK, N: int, x, lineage=None, guard: int = 10**7) -> dict:
    """Exact law of the selected path for one starting trajectory.

    ``lineage`` pins the reference to an arbitrary slot sequence (slot 0
    everywhere by default), checked as every pin schedule is.  Returns a
    dict path -> probability.
    """
    T = model.T
    x = tuple(x)
    lineage = tuple(int(v) for v in lineage) if lineage is not None else (0,) * T
    _pin_schedule(model.tables, [(lineage, x)], N)
    if N == 1:
        return {x: 1.0}

    n_free = N - 1
    # Support-aware work estimate: reachable path counts per time versus the
    # per-particle expansion factor.
    reachable = float(np.sum(model.m1 > 0))
    work = 0.0
    for t in range(2, T + 1):
        max_row = max(int(np.sum(row > 0)) for row in model.transition(t))
        work += reachable**n_free * float(N * max_row) ** n_free
        reachable = min(reachable * max_row, float(model.n_states) ** t)
    if work > guard:
        raise OutcomeSpaceTooLarge("path-tuple sweep exceeds the enumeration guard")

    pin = lineage[0]
    cur: dict = {}
    m1_support = [(int(s), float(model.m1[s])) for s in np.flatnonzero(model.m1)]
    free = [i for i in range(N) if i != pin]
    for combo in itertools.product(m1_support, repeat=n_free):
        paths = [None] * N
        paths[pin] = (x[0],)
        p = 1.0
        for slot, (s, w) in zip(free, combo):
            paths[slot] = (s,)
            p *= w
        key = tuple(paths)
        cur[key] = cur.get(key, 0.0) + p

    for t in range(2, T + 1):
        pin = lineage[t - 1]
        free = [i for i in range(N) if i != pin]
        mat = model.transition(t)
        nxt: dict = {}
        for paths, prob in cur.items():
            last = [p[-1] for p in paths]
            g = np.array([model.potential(t - 1, z) for z in last])
            tot = float(g.sum())
            if tot <= 0:
                raise AllWeightsZero(time=t - 1)
            w = g / tot
            per_free = [
                (paths[k] + (int(s),), float(w[k] * mat[last[k], s]))
                for k in range(N)
                if w[k] > 0
                for s in np.flatnonzero(mat[last[k]])
            ]
            pinned_path = x[: t]
            for combo in itertools.product(per_free, repeat=n_free):
                new_paths = [None] * N
                new_paths[pin] = pinned_path
                p = prob
                for slot, (np_path, pw) in zip(free, combo):
                    new_paths[slot] = np_path
                    p *= pw
                key = tuple(new_paths)
                nxt[key] = nxt.get(key, 0.0) + p
        cur = nxt

    terms: dict = {}
    for paths, prob in cur.items():
        g = np.array([model.potential(T, p[-1]) for p in paths])
        tot = float(g.sum())
        if tot <= 0:
            raise AllWeightsZero(time=T)
        for k in np.flatnonzero(g):
            terms.setdefault(paths[k], []).append(prob * float(g[k]) / tot)
    return {path: math.fsum(v) for path, v in terms.items()}


# ---------------------------------------------------------------------------
# Multiset sweep (kernel rows with their shares; matrices of large alphabets)
# ---------------------------------------------------------------------------


class _MultisetSweep:
    """Forward sweep over (pinned path, multiset of free ancestral paths).

    Free children are conditionally i.i.d. given the current states, so the
    multiset of the N-1 free paths evolves by multinomial draws.  A state is
    a tuple of (path, count) pairs sorted by path.  The law of the state
    after time t depends on the pinned path only through x_1..x_{t-1}, so
    :meth:`rows` walks the pinned paths as a prefix trie: each law is built
    once per distinct prefix and shared by every row below it, and only the
    terminal selection runs per row.

    ``terms`` counts the multinomial terms enumerated so far; a draw that
    would take it past ``guard`` raises OutcomeSpaceTooLarge before it runs.
    """

    def __init__(self, model: DiscreteFK, N: int, guard: int):
        self.model = model
        self.n_free = N - 1
        self.guard = guard
        self.terms = 0
        T = model.T
        self.g = [None] + [model.potential_vector(t).tolist() for t in range(1, T + 1)]
        self.moves = [None, None] + [
            [[(int(s), float(row[s])) for s in np.flatnonzero(row)] for row in model.transition(t)]
            for t in range(2, T + 1)
        ]

    def rows(self, paths):
        """Yield (x, kernel row of x, share) for each pinned path, in trie order."""
        m1 = self.model.m1
        initial: dict = {}
        self._draw({(int(s),): float(m1[s]) for s in np.flatnonzero(m1)}, 1.0, initial)
        yield from self._walk(1, initial, list(paths))

    def _walk(self, t, law, group):
        # ``law`` is the state law after time t, shared by ``group``: the
        # pinned paths that agree on x_1..x_{t-1}.
        if t == self.model.T:
            yield from self._select(law, group)
            return
        branches: dict = {}
        for x in group:
            branches.setdefault(x[t - 1], []).append(x)
        for branch in branches.values():
            yield from self._walk(t + 1, self._step(t + 1, law, branch[0][:t]), branch)

    def _step(self, t, law, pinned) -> dict:
        """State law after time t, given the law after t-1 and the pinned
        parent path x_1..x_{t-1}."""
        g, moves = self.g[t - 1], self.moves[t]
        g_pin = g[pinned[-1]]
        out: dict = {}
        for key, prob in law.items():
            weights = [(pinned, g_pin)] + [(tp, c * g[tp[-1]]) for tp, c in key]
            total = sum(w for _, w in weights)  # >= g_pin > 0: the pin was checked
            children: dict = {}
            for parent, w in weights:
                if w == 0:
                    continue
                for s, q in moves[parent[-1]]:
                    child = parent + (s,)
                    children[child] = children.get(child, 0.0) + (w / total) * q
            self._draw(children, prob, out)
        return out

    def _draw(self, law: dict, prob: float, out: dict) -> None:
        """Add prob times the law of n_free i.i.d. draws from ``law`` to ``out``.

        ``law`` maps child path -> probability; each outcome is keyed as a
        state, weighted by its multinomial probability.
        """
        types = sorted(law)
        self.terms += math.comb(self.n_free + len(types) - 1, self.n_free)
        if self.terms > self.guard:
            raise OutcomeSpaceTooLarge(
                f"multiset sweep passes the guard of {self.guard} multinomial terms"
            )
        partial = [((), self.n_free, prob)]
        for tp in types[:-1]:
            p = law[tp]
            grown = []
            for key, rem, coeff in partial:
                grown.append((key, rem, coeff))
                for c in range(1, rem + 1):
                    f = coeff * (math.comb(rem, c) * p**c)
                    if f != 0.0:
                        grown.append((key + ((tp, c),), rem - c, f))
            partial = grown
        last = types[-1]
        p = law[last]
        for key, rem, coeff in partial:
            if rem:
                key = key + ((last, rem),)
                coeff = coeff * p**rem
            if coeff != 0.0:
                out[key] = out.get(key, 0.0) + coeff

    def _select(self, law, group):
        """Yield (x, kernel row of x, retained-weight share) for each x in
        ``group``: the terminal selection from the state law after time T.

        The share is the chance that the terminal draw picks the pinned
        particle, E[G_T(x_T) / sum_j G_T(Z_T^j)]; the row's entry for x also
        counts free copies of x."""
        g = self.g[self.model.T]
        free = []
        for key, prob in law.items():
            weights = [(tp, c * g[tp[-1]]) for tp, c in key]
            free.append((prob, weights, sum(w for _, w in weights)))
        for x in group:
            g_pin = g[x[-1]]
            pinned = []
            terms: dict = {x: []}
            for prob, weights, free_total in free:
                total = g_pin + free_total
                pinned.append(prob * g_pin / total)
                for tp, w in weights:
                    if w != 0:
                        terms.setdefault(tp, []).append(prob * w / total)
            terms[x] += pinned
            yield x, {path: math.fsum(v) for path, v in terms.items()}, math.fsum(pinned)


def multiset_sweep(model: DiscreteFK, N: int, paths, guard: int = 10**7):
    """Yield (x, kernel row of x, retained-weight share) for each pinned path,
    in prefix-trie order: the exact row engine.

    The row maps path -> probability; the share is the chance that the
    terminal draw picks the pinned particle itself.  ``guard`` bounds the
    multinomial terms of the whole sweep.  The paths are checked as one
    batched pin, as :func:`pmcmc_lab.csmc.reference_pass` checks its rows.
    """
    paths = [tuple(x) for x in paths]
    if paths:
        _pin_schedule(model.tables, [((0,) * model.T, _path_rows(paths, model.T).T)], N)
    yield from _MultisetSweep(model, N, guard).rows(paths)


def kernel_row_multiset(model: DiscreteFK, N: int, x, guard: int = 10**7) -> dict:
    """Exact kernel row using exchangeability of the free particles.

    The one-path call of :func:`multiset_sweep`: the pass is collapsed to
    (pinned path, multiset of free ancestral paths), which is polynomial in
    N.  ``guard`` bounds the multinomial terms the sweep enumerates.  The
    sweep is blind to the pinned slot sequence; the slot-faithful engine in
    :func:`kernel_row` exists precisely so that this blindness can be
    tested, not assumed.
    """
    ((_, row, _),) = multiset_sweep(model, N, [x], guard)
    return row


def exact_pn_matrix(
    model: DiscreteFK, N: int, lineage=None, target=None, guard: int = 10**7
) -> FiniteChain:
    """The iterated-pass kernel over all positive-mass paths, enumerated exactly.

    ``guard`` bounds the work of the engine that runs, and a refusal raises
    OutcomeSpaceTooLarge:

    * Without a ``lineage`` the engine is picked before any array is built
      (:func:`_matrix_engine`).  The :func:`histogram_sweep` runs when its
      work, in law entries, is at most ``guard``.  Otherwise one
      :func:`multiset_sweep` walks all paths at once, and ``guard`` bounds
      the multinomial terms of the whole sweep.
    * With a pin lineage each row comes from the slot-faithful
      :func:`kernel_row`, and ``guard`` bounds each row.

    The outcome-tree engine (:func:`kernel_row_tree`) is a test reference
    only and never runs here.
    """
    if target is None:
        target = exact_target(model)
    paths = target.paths
    if len(paths) > 3000:
        raise OutcomeSpaceTooLarge(f"{len(paths)} paths exceed the supported matrix size")
    if lineage is not None:
        K = _row_matrix(paths, ((x, kernel_row(model, N, x, lineage=lineage, guard=guard)) for x in paths))
    elif _matrix_engine(model, N, paths, guard)[0] == "histogram":
        K = histogram_sweep(model, N, paths, guard)
    else:
        K = _row_matrix(paths, ((x, row) for x, row, _ in multiset_sweep(model, N, paths, guard)))
    return FiniteChain(states=paths, kernel=K, stationary=target.probabilities.copy())


def _row_matrix(paths, rows) -> np.ndarray:
    """The kernel over ``paths`` from (x, row of x as a dict) pairs."""
    K = np.zeros((len(paths), len(paths)))
    index = {p: i for i, p in enumerate(paths)}
    for x, row in rows:
        i = index[x]
        for path, p in row.items():
            K[i, index[path]] += p
    return K


def _matrix_engine(model: DiscreteFK, N: int, paths, guard: int) -> tuple:
    """(engine, work) of a lineage-free :func:`exact_pn_matrix`: "histogram"
    when the count engine's work is at most ``guard``, else "multiset"."""
    work = _histogram_work(model, N, paths, guard=guard)
    return ("histogram" if work <= guard else "multiset"), work


# ---------------------------------------------------------------------------
# Expectation of the normalizing-constant estimate under the plain pass
# ---------------------------------------------------------------------------


def exact_gamma_hat_expectation(model: DiscreteFK, N: int, guard: int = 10**6) -> float:
    """E[product of average weights] under the unconditional pass.

    Forward sweep over full particle configurations (S^N of them): the
    configuration chain is Markov and the estimator multiplies one factor
    per time, so the expectation is a finite sum computed exactly.  Each
    step gathers an (S^N, S^N, N) array, so ``guard`` bounds its S^(2N) N
    entries, refused before any is built.
    """
    S, T = model.n_states, model.T
    if S ** (2 * N) * N > guard:
        raise OutcomeSpaceTooLarge(
            f"{S}^{2 * N} x {N} configuration-pair entries exceed the guard of {guard}"
        )
    configs = np.array(list(itertools.product(range(S), repeat=N)), dtype=int)
    m1 = model.m1
    init_prob = np.prod(m1[configs], axis=1)

    def mean_weight(t):
        g = model.potential_vector(t)
        return g[configs].mean(axis=1)

    v = init_prob * mean_weight(1)
    for t in range(2, T + 1):
        g_prev = model.potential_vector(t - 1)[configs]
        tot = g_prev.sum(axis=1)
        live = (v > 0)
        if np.any(live & (tot <= 0)):
            raise AllWeightsZero(time=t - 1)
        w = np.divide(g_prev, tot[:, None], out=np.zeros_like(g_prev), where=tot[:, None] > 0)
        # q[c, s] = chance one child of configuration c lands in state s
        q = np.einsum("ck,cks->cs", w, model.transition(t)[configs])
        trans = np.prod(q[:, configs], axis=2)  # (from, to)
        v = (v @ trans) * mean_weight(t)
    return float(v.sum())


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
    """Exact total-variation distance of the n-step law from stationarity.
    Raises IndexOutOfRange for a start state outside [0, n_states)."""
    if not 0 <= x0 < chain.n_states:
        raise IndexOutOfRange(f"start state {x0} outside [0, {chain.n_states})")
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
    f = _function_values(f, chain.n_states)
    sym = _symmetrized(chain)
    lam, vecs = np.linalg.eigh(sym)
    pi = chain.stationary
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
    return float(var)


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
    dens = np.asarray(nu, dtype=float) / pi - 1.0
    return float(math.sqrt(np.sum(dens * dens * pi)))


def exact_minorization(chain: FiniteChain) -> float:
    """min over (x, y) of K(x, y) / pi(y): the sharpest uniform minorization."""
    pi = chain.stationary
    if np.any(pi <= 0):
        raise ZeroStationaryMass("minorization requires strictly positive stationary mass")
    return float(np.min(chain.kernel / pi[None, :]))
