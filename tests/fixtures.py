"""Shared model fixtures and cached oracle objects for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from pmcmc_lab import build_discrete_model, build_joint_model, exact_target
from pmcmc_lab.exact_oracle import enumerate_conditional_outcomes, exact_pn_matrix


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


@lru_cache(maxsize=None)
def model(name: str):
    return _BUILDERS[name]()


@lru_cache(maxsize=None)
def target(name: str):
    return exact_target(model(name))


@lru_cache(maxsize=None)
def pn_chain(name: str, n: int):
    return exact_pn_matrix(model(name), n, target=target(name))


def tree_share(m, N: int, x) -> float:
    """E[G_T(x_T) / sum_j G_T(Z_T^j)] over the outcome tree of the pass
    pinned to slot 0: the reference for the multiset sweep's share."""
    gx = m.potential(m.T, x[-1])
    total = 0.0
    for prob, states, _ in enumerate_conditional_outcomes(m, N, [((0,) * m.T, tuple(x))]):
        total += prob * gx / sum(m.potential(m.T, z) for z in states[-1])
    return total


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
