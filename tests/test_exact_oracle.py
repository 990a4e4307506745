import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import model, model_a, oracle_grid, pn_chain, target, tree_share
from pmcmc_lab import exact_asymptotic_variance, exact_minorization, spectral_summary, tv_curve
from pmcmc_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotReversible,
    OutcomeSpaceTooLarge,
    PmcmcLabError,
    SingularSolve,
)
from pmcmc_lab.exact_oracle import (
    FiniteChain,
    asymptotic_variance_general,
    chain_from_kernel,
    dirichlet_form,
    exact_pn_matrix,
    kernel_row,
    kernel_row_multiset,
    kernel_row_tree,
    l2_distance,
    multiset_sweep,
)
from pmcmc_lab.fk_model import build_discrete_model, exact_target


def two_state_flip(p: float) -> FiniteChain:
    kernel = np.array([[1 - p, p], [p, 1 - p]])
    return chain_from_kernel(("a", "b"), kernel, np.array([0.5, 0.5]))


def iid_chain(pi) -> FiniteChain:
    pi = np.asarray(pi, dtype=float)
    return chain_from_kernel(tuple(range(len(pi))), np.tile(pi, (len(pi), 1)), pi)


def test_single_particle_kernel_is_identity():
    m = model_a()
    chain = exact_pn_matrix(m, 1)
    assert np.allclose(chain.kernel, np.eye(chain.n_states))


def test_unit_weight_single_time_row():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 1.0]])
    row = kernel_row(m, 2, (0,))
    assert row[(0,)] == pytest.approx(0.75)
    assert row[(1,)] == pytest.approx(0.25)


def test_kernel_rows_are_stochastic_and_stationary_is_target():
    for name, n in oracle_grid():
        chain = pn_chain(name, n)
        assert np.max(np.abs(chain.kernel.sum(axis=1) - 1)) < 1e-10
        resid = np.max(np.abs(chain.stationary @ chain.kernel - chain.stationary))
        assert resid < 1e-10
        # the stationary vector recovered from the matrix matches the target
        from pmcmc_lab.exact_oracle import stationary_distribution

        pi = stationary_distribution(chain.kernel)
        assert np.max(np.abs(pi - target(name).probabilities)) < 1e-9


def test_fast_rows_match_tree_rows():
    for name in ("A", "C", "D"):
        m = model(name)
        for n in (2, 3):
            for x in target(name).paths:
                fast = kernel_row(m, n, x)
                slow = kernel_row_tree(m, n, x)
                assert set(fast) == set(slow)
                assert max(abs(fast[k] - slow[k]) for k in fast) < 1e-12


def row_vector(row: dict, paths) -> np.ndarray:
    return np.array([row.get(p, 0.0) for p in paths])


def test_matrix_rows_match_slot_faithful_and_tree_rows():
    for name, n in oracle_grid():
        m, paths = model(name), target(name).paths
        chain = pn_chain(name, n)
        for i, x in enumerate(paths):
            got = chain.kernel[i]
            assert np.max(np.abs(got - row_vector(kernel_row(m, n, x), paths))) < 1e-12
            if name in ("A", "C", "D"):
                assert np.max(np.abs(got - row_vector(kernel_row_tree(m, n, x), paths))) < 1e-12


def test_sweep_share_matches_tree_and_rows_match_multiset_rows():
    for name in ("A", "C", "D"):
        m, paths = model(name), target(name).paths
        for n in (1, 2, 3):
            got = {x: (row, share) for x, row, share in multiset_sweep(m, n, paths)}
            assert set(got) == set(paths)
            for x in paths:
                row, share = got[x]
                assert row == kernel_row_multiset(m, n, x)
                assert abs(share - tree_share(m, n, x)) < 1e-12
                # Free copies of x add to the row's entry for x, never to the share.
                assert share <= row[x] + 1e-15


def _lineage_is_refused(lineage, error):
    m = model_a()
    with pytest.raises(error):
        kernel_row(m, 3, (0, 1), lineage=lineage)
    with pytest.raises(error):
        exact_pn_matrix(m, 3, lineage=lineage)


def test_negative_lineage_slot_is_refused():
    _lineage_is_refused((0, -1), IndexOutOfRange)


def test_lineage_slot_past_n_is_refused():
    _lineage_is_refused((0, 7), IndexOutOfRange)


def test_short_lineage_is_refused():
    _lineage_is_refused((0,), DimensionMismatch)


def test_long_lineage_is_refused():
    _lineage_is_refused((0, 1, 2), DimensionMismatch)


def test_enumeration_guard():
    m = model("E")
    with pytest.raises(OutcomeSpaceTooLarge):
        kernel_row(m, 3, (0, 0, 0), guard=10)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_pn_matrix(m, 3, guard=10)


def test_multiset_guard_counts_enumerated_terms():
    # Model A, N=3, x=(0, 0): two free particles.  Time 1 draws them over
    # two types (3 terms).  Time 2 draws them over the children of the
    # parents present: {(0,)} -> 2 types (3 terms); {(0,), (1,)} -> 4 types
    # (10 terms) for each of the other two states.  Total 26.
    m = model_a()
    kernel_row_multiset(m, 3, (0, 0), guard=26)
    with pytest.raises(OutcomeSpaceTooLarge):
        kernel_row_multiset(m, 3, (0, 0), guard=25)
    # The matrix shares time 1 across all four rows and time 2 across the
    # two rows of each x_1: 3 + 23 + 23 terms, not 4 x 26.
    exact_pn_matrix(m, 3, guard=49)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_pn_matrix(m, 3, guard=48)


@st.composite
def sparse_models(draw):
    """Models with S, T <= 3, zero weights and sparse transition rows."""
    S = draw(st.integers(1, 3))
    T = draw(st.integers(1, 3))
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


def outcome(fn):
    try:
        return fn()
    except PmcmcLabError as exc:
        return exc


@settings(max_examples=100, deadline=None)
@given(sparse_models(), st.integers(1, 3))
def test_property_default_engine_matches_slot_faithful(m, N):
    def default_engine():
        chain = exact_pn_matrix(m, N)
        return chain.states, chain.kernel

    def slot_faithful():
        paths = exact_target(m).paths
        return paths, np.array([row_vector(kernel_row(m, N, x), paths) for x in paths])

    got, want = outcome(default_engine), outcome(slot_faithful)
    if isinstance(got, PmcmcLabError) or isinstance(want, PmcmcLabError):
        assert isinstance(got, PmcmcLabError) and isinstance(want, PmcmcLabError)
        return
    assert got[0] == want[0]
    assert np.max(np.abs(got[1] - want[1])) < 1e-12


def test_reversibility_and_positivity_all_fixtures():
    for name, n in oracle_grid():
        chain = pn_chain(name, n)
        flow = chain.stationary[:, None] * chain.kernel
        assert np.max(np.abs(flow - flow.T)) < 1e-10
        assert spectral_summary(chain).is_positive


def test_tv_curve_at_zero_is_complement_mass():
    chain = pn_chain("A", 2)
    for i in range(chain.n_states):
        curve = tv_curve(chain, i, 3)
        assert curve[0] == pytest.approx(1 - chain.stationary[i], rel=1e-12)


def test_tv_curve_iid_kernel_is_zero():
    chain = iid_chain([0.3, 0.7])
    curve = tv_curve(chain, 0, 5)
    assert np.all(curve[1:] < 1e-14)


def test_tv_curve_below_minorization_envelope():
    from pmcmc_lab import epsilon_bounded

    m = model_a()
    chain = pn_chain("A", 3)
    eps = epsilon_bounded(m, 3).epsilon
    for i in range(chain.n_states):
        curve = tv_curve(chain, i, 50)
        envelope = (1 - eps) ** np.arange(51)
        assert np.all(curve <= envelope + 1e-12)


def test_spectral_identity_kernel():
    chain = chain_from_kernel((0, 1), np.eye(2), np.array([0.4, 0.6]))
    s = spectral_summary(chain)
    assert s.gap_right == pytest.approx(0.0, abs=1e-12)
    assert s.gap_left == pytest.approx(2.0, abs=1e-12)


def test_spectral_two_state_flip():
    s = spectral_summary(two_state_flip(0.3))
    assert s.gap_right == pytest.approx(0.6, rel=1e-12)
    assert s.min_eigenvalue == pytest.approx(0.4, rel=1e-12)


def test_spectral_rejects_nonreversible():
    kernel = np.array([[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]])
    chain = chain_from_kernel((0, 1, 2), kernel, np.full(3, 1 / 3))
    with pytest.raises(NotReversible):
        spectral_summary(chain)


def test_variance_iid_kernel_is_static_variance():
    chain = iid_chain([0.2, 0.3, 0.5])
    f = np.array([1.0, 0.0, 2.0])
    pi = chain.stationary
    static = float((pi * f) @ f - (pi @ f) ** 2)
    assert exact_asymptotic_variance(chain, f) == pytest.approx(static, rel=1e-12)


def test_variance_two_state_flip_closed_form():
    for p in (0.1, 0.25, 0.5, 0.9):
        chain = two_state_flip(p)
        f = np.array([0.0, 1.0])
        assert exact_asymptotic_variance(chain, f) == pytest.approx(
            (1 - p) / (4 * p), rel=1e-12
        )


def test_variance_constant_function_is_zero():
    chain = pn_chain("A", 2)
    assert exact_asymptotic_variance(chain, np.ones(chain.n_states)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_variance_nonergodic_raises():
    chain = chain_from_kernel((0, 1), np.eye(2), np.array([0.5, 0.5]))
    with pytest.raises(SingularSolve):
        exact_asymptotic_variance(chain, np.array([1.0, 0.0]))


def test_general_variance_matches_reversible_solver():
    for name, n in [("A", 2), ("B", 3), ("D", 2)]:
        chain = pn_chain(name, n)
        for i in range(min(4, chain.n_states)):
            f = np.zeros(chain.n_states)
            f[i] = 1.0
            a = exact_asymptotic_variance(chain, f)
            b = asymptotic_variance_general(chain.kernel, chain.stationary, f)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_minorization_identity_and_iid():
    ident = chain_from_kernel((0, 1), np.eye(2), np.array([0.5, 0.5]))
    assert exact_minorization(ident) == 0.0
    chain = iid_chain([0.25, 0.75])
    assert exact_minorization(chain) == pytest.approx(1.0, rel=1e-14)


def test_variance_sandwich_with_exact_minorization():
    for name, n in oracle_grid():
        chain = pn_chain(name, n)
        eps = exact_minorization(chain)
        pi = chain.stationary
        for i in range(chain.n_states):
            f = np.zeros(chain.n_states)
            f[i] = 1.0
            static = float((pi * f) @ f - (pi @ f) ** 2)
            v = exact_asymptotic_variance(chain, f)
            assert v >= static - 1e-9
            assert v <= (2 / eps - 1) * static + 1e-9


def test_dirichlet_sandwich_with_exact_minorization():
    for name, n in [("A", 2), ("B", 2), ("D", 3), ("E", 2)]:
        chain = pn_chain(name, n)
        eps = exact_minorization(chain)
        pi = chain.stationary
        for i in range(chain.n_states):
            f = np.zeros(chain.n_states)
            f[i] = 1.0
            static = float((pi * f) @ f - (pi @ f) ** 2)
            e = dirichlet_form(chain, f)
            assert eps * static - 1e-10 <= e <= (2 - eps) * static + 1e-10


def test_l2_decay_envelope():
    # ||nu P^n - pi||_{L2(pi)} <= ||nu - pi|| (1 - eps)^n for point masses and
    # mixtures.
    for name, n in [("A", 2), ("A", 3), ("D", 2)]:
        chain = pn_chain(name, n)
        eps = exact_minorization(chain)
        K = chain.n_states
        nus = [np.eye(K)[i] for i in range(K)]
        nus.append(np.full(K, 1.0 / K))
        for nu in nus:
            base = l2_distance(chain, nu)
            dist = nu.copy()
            for step in range(1, 21):
                dist = dist @ chain.kernel
                assert l2_distance(chain, dist) <= base * (1 - eps) ** step + 1e-10


def test_monte_carlo_rows_match_enumeration():
    from pmcmc_lab.replicated import csmc_step_replicated

    m = model_a()
    R = 200_000
    for x in [(0, 0), (1, 1)]:
        row = kernel_row(m, 2, x)
        paths = csmc_step_replicated(m, 2, np.tile(x, (R, 1)), 1234, base=1)
        freq = np.bincount(paths[:, 0] * 2 + paths[:, 1], minlength=4) / R
        for code, key in enumerate(itertools.product((0, 1), repeat=2)):
            p = row.get(key, 0.0)
            sd = np.sqrt(max(p * (1 - p), 1e-12) / R)
            assert abs(freq[code] - p) <= 5 * sd
