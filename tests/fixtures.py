"""Shared model fixtures and cached oracle objects for the test suite."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from pmcmc_lab import build_discrete_model, build_joint_model, exact_target
from pmcmc_lab.csmc import conditional_system
from pmcmc_lab.errors import AllWeightsZero, OutcomeSpaceTooLarge
from pmcmc_lab.exact_oracle import _OutcomeTree, _trie_walk, enumerate_conditional_outcomes, exact_pn_matrix
from pmcmc_lab.smc_core import _pin_schedule, _PassPlan

_TREE_ROW_GUARD = 10**6  # most outcome-tree entries kernel_row_tree builds


def model_a():
    """Canonical two-time, two-state fixture used throughout."""
    return build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 2.0], [1.0, 3.0]]
    )


def model_b():
    """Three times, two states, asymmetric transitions and weights."""
    return build_discrete_model(
        [0, 1],
        [0.3, 0.7],
        [[[0.6, 0.4], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]],
        [[1.0, 0.5], [2.0, 1.0], [0.5, 1.5]],
    )


def model_c():
    """Single time, three states."""
    return build_discrete_model([0, 1, 2], [0.2, 0.3, 0.5], [], [[1.0, 2.0, 0.5]])


def model_d():
    """Two times, three states."""
    return build_discrete_model(
        [0, 1, 2],
        [0.2, 0.5, 0.3],
        [[[0.4, 0.3, 0.3], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]],
        [[1.0, 2.0, 1.5], [0.5, 1.0, 2.0]],
    )


def model_e():
    """Three times, three states (the largest enumerated fixture)."""
    return build_discrete_model(
        [0, 1, 2],
        [0.25, 0.4, 0.35],
        [
            [[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
            [[0.6, 0.2, 0.2], [0.25, 0.5, 0.25], [0.1, 0.45, 0.45]],
        ],
        [[1.0, 1.5, 0.5], [2.0, 1.0, 1.0], [0.5, 1.0, 2.5]],
    )


def model_unit(T: int = 2, S: int = 2):
    """Unit weights and a light mixing chain: the target is the chain law."""
    m1 = np.full(S, 1.0 / S)
    mat = np.full((S, S), 0.2 / (S - 1)) + np.eye(S) * (0.8 - 0.2 / (S - 1))
    mat = mat / mat.sum(axis=1, keepdims=True)
    return build_discrete_model(
        list(range(S)), m1, [mat.tolist()] * (T - 1), [np.ones(S).tolist()] * T
    )


def model_t1():
    """Single time, two states, weight spread 3:1."""
    return build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 3.0]])


def grid_model(T: int, S: int):
    """Deterministic strictly positive tables for each acceptance grid cell."""
    m1 = np.arange(1, S + 1, dtype=float)
    m1 /= m1.sum()
    mats = []
    for t in range(T - 1):
        mat = np.array(
            [[1.0 + ((i + j + t) % S) + 0.5 * ((i * j + t) % 2) for j in range(S)] for i in range(S)]
        )
        mats.append((mat / mat.sum(axis=1, keepdims=True)).tolist())
    gs = [
        [0.5 + ((s + 2 * t) % (S + 1)) + 0.25 * ((s * (t + 1)) % 3) for s in range(S)]
        for t in range(T)
    ]
    return build_discrete_model(list(range(S)), m1.tolist(), mats, gs)


_BUILDERS = {
    "A": model_a,
    "B": model_b,
    "C": model_c,
    "D": model_d,
    "E": model_e,
    "unit22": lambda: model_unit(2, 2),
    "unit31": lambda: model_unit(3, 2),
    "t1": model_t1,
}


@st.composite
def sparse_models(draw, S=None, T=None):
    """Models with S, T <= 3 (drawn unless given), zero weights and sparse
    transition rows.  One drawn path keeps its initial mass, its moves and
    its weights positive, so every draw is a model with a path of positive
    mass; other entries may be zero, so passes still die."""
    S = draw(st.integers(1, 3)) if S is None else S
    T = draw(st.integers(1, 3)) if T is None else T
    path = [draw(st.integers(0, S - 1)) for _ in range(T)]
    positive = st.floats(0.05, 4.0)
    entry = st.one_of(st.just(0.0), positive)

    def prob_vector(keep):
        v = np.array([draw(entry) for _ in range(S)])
        v[draw(st.integers(0, S - 1)) if keep is None else keep] += 1.0
        return (v / v.sum()).tolist()

    mats = [[prob_vector(path[t + 1] if s == path[t] else None) for s in range(S)] for t in range(T - 1)]
    gs = [[draw(positive if s == path[t] else entry) for s in range(S)] for t in range(T)]
    return build_discrete_model(list(range(S)), prob_vector(path[0]), mats, gs)


@lru_cache(maxsize=None)
def model(name: str):
    return _BUILDERS[name]()


@lru_cache(maxsize=None)
def target(name: str):
    return exact_target(model(name))


@lru_cache(maxsize=None)
def pn_chain(name: str, n: int):
    return exact_pn_matrix(model(name), n, target=target(name))


def pinned_pass(m, N: int, x, rng, base: int = 0):
    """One pass with the path ``x`` pinned to slot 0 throughout."""
    return conditional_system(m, N, [((0,) * m.T, tuple(x))], rng, base)


def kernel_row_tree(m, N: int, x, lineage=None) -> dict:
    """One kernel row through the outcome tree (reference; small cases only):
    each outcome's terminal draw, added to its selected path's entry in
    outcome order."""
    T = m.T
    lineage = tuple(lineage) if lineage is not None else (0,) * T
    row: dict = {}
    for prob, states, ancestors in _OutcomeTree(m, N, [(lineage, tuple(x))], _TREE_ROW_GUARD).blocks():
        g = m.potentials[-1][states[:, -1]]
        total = g.sum(axis=1)
        if not (total > 0).all():
            raise AllWeightsZero(time=T)
        w = g / total[:, None]
        o, k = np.nonzero(w)
        mass = prob[o] * w[o, k]
        paths = np.empty((len(o), T), dtype=int)
        for t in range(T - 1, -1, -1):
            paths[:, t] = states[o, t, k]
            if t:
                k = ancestors[o, t - 1, k]
        for lo in range(0, len(o), 64):
            for path, p in zip(map(tuple, paths[lo : lo + 64].tolist()), mass[lo : lo + 64].tolist()):
                row[path] = row.get(path, 0.0) + p
    return row


def multiset_rows_loop(m, N: int, paths, guard: int) -> list:
    """The multiset sweep's (x, row items, share) for each path, in trie
    order, as a loop over dicts of states (reference; small cases only): a
    state is a tuple of (path, count) pairs sorted by path, each draw's
    multinomial terms enumerated one by one, the first type's count slowest,
    and added to their state in that order."""
    n_free, terms, g = N - 1, [0], [None] + [pot.tolist() for pot in m.potentials]
    moves = [None, None] + [[[(s, float(row[s])) for s in np.flatnonzero(row)] for row in M] for M in m.transitions]

    def draw(law, prob, out):
        types = sorted(law)
        terms[0] += math.comb(n_free + len(types) - 1, n_free)
        if terms[0] > guard:
            raise OutcomeSpaceTooLarge("multiset sweep passes the guard")
        partial = [((), n_free, prob)]
        for tp in types[:-1]:
            grown = []
            for key, rem, coeff in partial:
                grown.append((key, rem, coeff))
                for c in range(1, rem + 1):
                    f = coeff * (math.comb(rem, c) * law[tp] ** c)
                    if f != 0.0:
                        grown.append((key + ((tp, c),), rem - c, f))
            partial = grown
        for key, rem, coeff in partial:
            if rem:
                key, coeff = key + ((types[-1], rem),), coeff * law[types[-1]] ** rem
            if coeff != 0.0:
                out[key] = out.get(key, 0.0) + coeff

    def step(t, law, pinned):
        out: dict = {}
        for key, prob in law.items():
            weights = [(pinned, g[t - 1][pinned[-1]])] + [(tp, c * g[t - 1][tp[-1]]) for tp, c in key]
            total = sum(w for _, w in weights)
            children: dict = {}
            for parent, w in weights:
                for s, q in moves[t][parent[-1]] if w != 0 else ():
                    children[parent + (s,)] = children.get(parent + (s,), 0.0) + (w / total) * q
            draw(children, prob, out)
        return out

    def select(law, group):
        for x in group:
            pinned, rows = [], {x: []}
            for key, prob in law.items():
                weights = [(tp, c * g[m.T][tp[-1]]) for tp, c in key]
                total = g[m.T][x[-1]] + sum(w for _, w in weights)
                pinned.append(prob * g[m.T][x[-1]] / total)
                for tp, w in weights:
                    if w != 0:
                        rows.setdefault(tp, []).append(prob * w / total)
            rows[x] += pinned
            yield x, [(path, math.fsum(v)) for path, v in rows.items()], math.fsum(pinned)

    initial: dict = {}
    draw({(int(s),): float(m.m1[s]) for s in np.flatnonzero(m.m1)}, 1.0, initial)
    return list(_trie_walk(m.T, 1, initial, [tuple(x) for x in paths], step, select))


def tree_share(m, N: int, x) -> float:
    """E[G_T(x_T) / sum_j G_T(Z_T^j)] over the outcome tree of the pass
    pinned to slot 0: the reference for the multiset sweep's share."""
    gx = m.potential(m.T, x[-1])
    total = 0.0
    for prob, states, _ in enumerate_conditional_outcomes(m, N, [((0,) * m.T, tuple(x))]):
        total += prob * gx / sum(m.potential(m.T, z) for z in states[-1])
    return total


def reference_outcomes(m, N: int, pins):
    """Yield (probability, states, ancestors) over all outcomes of a pass, one
    outcome at a time by recursion: the reference for the outcome tree's
    blocks (:func:`pmcmc_lab.exact_oracle.enumerate_conditional_outcomes`)."""
    T = m.T
    pin_state, pin_anc = _pin_schedule(m.tables, pins, N)
    # A free particle's options: (parent slot, state, probability); at t=1
    # there is no parent.
    initial = [(None, int(s), float(m.m1[s])) for s in np.flatnonzero(m.m1)]

    def rec(t, states, ancestors, prob):
        if t > T:
            yield prob, tuple(states), tuple(ancestors)
            return
        pinned = pin_state[t - 1]
        free = [i for i in range(N) if i not in pinned]
        options = initial
        if t > 1:
            prev = states[-1]
            g = np.array([m.potential(t - 1, z) for z in prev])
            tot = float(g.sum())
            if tot <= 0:
                raise AllWeightsZero(time=t - 1)
            w = g / tot
            mat = m.transition(t)
            options = [
                (k, int(s), float(w[k] * mat[prev[k], s]))
                for k in range(N)
                if w[k] > 0
                for s in np.flatnonzero(mat[prev[k]])
            ]
        for combo in itertools.product(options, repeat=len(free)):
            row, anc, p = [None] * N, [None] * N, 1.0
            for i, st in pinned.items():
                row[i] = st
                anc[i] = pin_anc[t - 2][i] if t > 1 else None
            for slot, (k, s, pw) in zip(free, combo):
                row[slot], anc[slot] = s, k
                p *= pw
            if p != 0.0:
                new_anc = ancestors + [tuple(anc)] if t > 1 else ancestors
                yield from rec(t + 1, states + [tuple(row)], new_anc, prob * p)

    yield from rec(1, [], [], 1.0)


def counted_table_passes(monkeypatch) -> list:
    """The row counts of the passes run on more than one row from now on,
    one entry a pass: on a one-row chain, its table passes."""
    calls = []
    run_blocks = _PassPlan.run_blocks

    def counted(plan, blocks, R, *args, **kwargs):
        if R > 1:
            calls.append(R)
        return run_blocks(plan, blocks, R, *args, **kwargs)

    monkeypatch.setattr(_PassPlan, "run_blocks", counted)
    return calls


def oracle_grid():
    """(name, N) pairs for which the kernel is enumerated in the tests."""
    pairs = []
    for name in ("A", "B", "C", "D", "E", "unit22", "t1"):
        for n in (2, 3):
            pairs.append((name, n))
    return pairs


def joint_single_time():
    """Two parameter values over a single-time path model."""
    m_a = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 2.0]])
    m_b = build_discrete_model([0, 1], [0.5, 0.5], [], [[2.0, 1.0]])
    return build_joint_model(["low", "high"], [0.5, 0.5], [m_a, m_b])


def joint_two_time():
    """Two parameter values over two-time path models."""
    m_a = model_a()
    m_b = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.6, 0.4]]], [[2.0, 1.0], [1.0, 1.5]]
    )
    return build_joint_model(["a", "b"], [0.4, 0.6], [m_a, m_b])
