"""Shared model fixtures and cached oracle objects for the test suite."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from pmcmc_lab import build_discrete_model, build_joint_model, exact_target
from pmcmc_lab.csmc import conditional_system
from pmcmc_lab.errors import AllWeightsZero, PmcmcLabError
from pmcmc_lab.exact_oracle import _OutcomeTree, enumerate_conditional_outcomes, exact_pn_matrix
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
    transition rows."""
    S = draw(st.integers(1, 3)) if S is None else S
    T = draw(st.integers(1, 3)) if T is None else T
    entry = st.one_of(st.just(0.0), st.floats(0.05, 4.0))

    def prob_vector():
        v = np.array([draw(entry) for _ in range(S)])
        v[draw(st.integers(0, S - 1))] += 1.0
        return (v / v.sum()).tolist()

    mats = [[prob_vector() for _ in range(S)] for _ in range(T - 1)]
    gs = [[draw(entry) for _ in range(S)] for _ in range(T)]
    try:
        return build_discrete_model(list(range(S)), prob_vector(), mats, gs)
    except PmcmcLabError:
        assume(False)


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
