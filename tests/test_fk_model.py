import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import model, model_a, model_t1, model_unit, target
from pmcmc_lab import build_discrete_model, exact_target, predictive_law, q_operator
from pmcmc_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NegativePotential,
    NonStochasticRow,
    PathSpaceTooLarge,
)
from pmcmc_lab.fk_model import (
    load_model,
    model_from_dict,
    pi_marginal,
    sup_potentials,
)


def test_build_accepts_single_time_uniform():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 1.0]])
    assert m.T == 1 and m.n_states == 2


def test_build_canonical_fixture():
    m = model_a()
    assert m.T == 2
    assert m.potential(2, 1) == 3.0
    assert np.allclose(m.transition(2).sum(axis=1), 1.0)


def test_build_rejects_non_stochastic_row():
    with pytest.raises(NonStochasticRow):
        build_discrete_model([0, 1], [0.5, 0.5], [[[0.6, 0.6], [0.5, 0.5]]], [[1, 1], [1, 1]])


def test_build_rejects_negative_potential():
    with pytest.raises(NegativePotential):
        build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, -0.1]])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_discrete_model([0, 1], [0.5, 0.5], [], [[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        build_discrete_model([0, 1], [0.5, 0.5], [], [[1, 1]], T=3)


def test_build_keeps_private_read_only_tables():
    # The model and its cached draw tables must not see a later edit of the
    # caller's arrays, and the model's own arrays refuse writes.
    m1 = np.array([0.5, 0.5])
    mats = np.array([[[0.75, 0.25], [0.25, 0.75]]])
    g = np.array([[1.0, 2.0], [1.0, 3.0]])
    m = build_discrete_model([0, 1], m1, mats, g)
    tables = m.tables
    m1[:] = [1.0, 0.0]
    mats[0, 0] = [0.0, 1.0]
    g[1] = [0.0, 0.0]
    assert m.to_dict() == model_a().to_dict()
    assert m.tables is tables
    np.testing.assert_array_equal(tables.m1_cdf, [[0.5, 1.0]])
    np.testing.assert_array_equal(tables.move_cdf[0], [[0.75, 1.0], [0.25, 1.0]])
    np.testing.assert_array_equal(tables.move_cols[0], [[0.75, 0.25], [1.0, 1.0]])
    np.testing.assert_array_equal(tables.potentials, [[1.0, 2.0], [1.0, 3.0]])
    for array in (m.m1, m.transitions[0], m.potentials[1], tables.m1_cdf, tables.move_cols):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.25


def test_unit_potentials_target_is_chain_law():
    m = model_unit(2, 2)
    t = exact_target(m)
    assert t.gamma_t == pytest.approx(1.0, abs=1e-14)
    for path, prob in zip(t.paths, t.probabilities):
        chain_prob = m.m1[path[0]] * m.transition(2)[path[0], path[1]]
        assert prob == pytest.approx(chain_prob, abs=1e-14)


def test_exact_target_canonical_constant():
    assert target("A").gamma_t == pytest.approx(3.25, abs=1e-14)


def test_exact_target_single_time():
    t = exact_target(model_t1())
    assert t.gamma_t == pytest.approx(2.0)
    assert t.prob((0,)) == pytest.approx(0.25)
    assert t.prob((1,)) == pytest.approx(0.75)


def test_exact_target_guard():
    m = model_unit(8, 3)
    with pytest.raises(PathSpaceTooLarge):
        exact_target(m, guard=100)


def test_q_operator_single_factor_is_the_weight():
    m = model("B")
    for p in range(1, m.T + 1):
        assert np.allclose(q_operator(m, p, p + 1), m.potential_vector(p))


def test_q_operator_canonical_values():
    m = model_a()
    assert np.allclose(q_operator(m, 1, 3), [1.5, 5.0])
    assert q_operator(m, 0, 3) == pytest.approx(3.25, rel=1e-14)


def test_q_operator_full_horizon_equals_gamma():
    for name in ("A", "B", "C", "D", "E"):
        m = model(name)
        assert q_operator(m, 0, m.T + 1) == pytest.approx(target(name).gamma_t, rel=1e-12)


def test_q_operator_rejects_bad_indices():
    m = model_a()
    for p, q in [(-1, 2), (2, 2), (1, 4), (3, 1)]:
        with pytest.raises(IndexOutOfRange):
            q_operator(m, p, q)


def test_multiplicative_chain_identity():
    # Splitting the full-horizon mass at any increasing chain of times must
    # reproduce the normalizing constant.
    import itertools

    for name in ("A", "B", "E"):
        m = model(name)
        gamma = target(name).gamma_t
        interior = range(1, m.T + 1)
        for r in range(len(list(interior)) + 1):
            for combo in itertools.combinations(interior, r):
                idx = list(combo) + [m.T + 1]
                value = q_operator(m, 0, idx[0])
                for a, b in zip(idx, idx[1:]):
                    value *= float(predictive_law(m, a) @ q_operator(m, a, b))
                assert value == pytest.approx(gamma, rel=1e-10)


def test_pi_marginals_match_path_enumeration():
    for name in ("A", "B", "D"):
        m = model(name)
        t = target(name)
        for time in range(1, m.T + 1):
            assert np.allclose(pi_marginal(m, time), t.marginal(time), atol=1e-12)
            assert pi_marginal(m, time).sum() == pytest.approx(1.0, abs=1e-10)


def test_marginal_keeps_massless_trailing_state():
    m = build_discrete_model([0, 1, 2], [0.5, 0.5, 0.0], [], [[1.0, 1.0, 1.0]])
    marginal = exact_target(m).marginal(1)
    assert marginal.tolist() == [0.5, 0.5, 0.0]


def test_sup_potentials_canonical():
    assert np.allclose(sup_potentials(model_a()), [2.0, 3.0])


def test_serialization_round_trip_is_bit_exact(tmp_path):
    m = model("B")
    path = tmp_path / "model.json"
    m.save(path)
    loaded = load_model(path)
    assert loaded.to_dict() == m.to_dict()
    # parse -> serialize -> parse is the identity on the numbers
    again = model_from_dict(json.loads(json.dumps(loaded.to_dict())))
    assert again.to_dict() == m.to_dict()


@st.composite
def small_models(draw):
    S = draw(st.integers(2, 3))
    T = draw(st.integers(1, 3))
    def vec(n):
        return [draw(st.floats(0.05, 4.0)) for _ in range(n)]
    m1 = np.array(vec(S))
    m1 /= m1.sum()
    mats = []
    for _ in range(T - 1):
        rows = []
        for _ in range(S):
            row = np.array(vec(S))
            rows.append((row / row.sum()).tolist())
        mats.append(rows)
    gs = [vec(S) for _ in range(T)]
    return build_discrete_model(list(range(S)), m1.tolist(), mats, gs)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_property_gamma_matches_backward_mass(m):
    t = exact_target(m)
    assert q_operator(m, 0, m.T + 1) == pytest.approx(t.gamma_t, rel=1e-12)
    assert t.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(small_models())
def test_property_round_trip(m):
    assert model_from_dict(json.loads(json.dumps(m.to_dict()))).to_dict() == m.to_dict()
