import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import (
    kernel_row_tree,
    model,
    model_a,
    oracle_grid,
    pn_chain,
    reference_outcomes,
    sparse_models,
    target,
    tree_share,
)
from pmcmc_lab import c2smc_expectation_bruteforce, exact_asymptotic_variance, exact_minorization
from pmcmc_lab import spectral_summary, tv_curve
from pmcmc_lab import exact_oracle
from pmcmc_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonStochasticRow,
    NotReversible,
    OutcomeSpaceTooLarge,
    PmcmcLabError,
    SingularSolve,
    TooFewParticles,
    ZeroPotential,
    ZeroStationaryMass,
)
from pmcmc_lab.exact_oracle import (
    FiniteChain,
    _pn_matrix,
    asymptotic_variance_general,
    chain_from_kernel,
    dirichlet_form,
    enumerate_conditional_outcomes,
    exact_pn_matrix,
    final_selection_weights,
    kernel_row,
    kernel_row_multiset,
    l2_distance,
    multiset_sweep,
    stationary_distribution,
    trace_lineage,
)
from pmcmc_lab.fk_model import build_discrete_model, exact_target
from pmcmc_lab.histogram import _Plan, histogram_entries, histogram_sweep


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


def test_slot_sweep_guard_counts_built_entries():
    # Model A, N=3, x=(0, 0): time 1 builds 2^2 = 4 systems of the two free
    # slots.  At time 2 each free slot has 3 parent slots x 2 successors = 6
    # options: 4 x 6^2 = 144 entries, which merge to 16 systems.  The
    # terminal sum reads 16 systems x 3 slots.  Total 4 + 144 + 48 = 196.
    m = model_a()
    kernel_row(m, 3, (0, 0), guard=196)
    with pytest.raises(OutcomeSpaceTooLarge):
        kernel_row(m, 3, (0, 0), guard=195)
    # The lineage-pinned matrix shares time 1 across all four rows and time
    # 2 across the two rows of each x_1: 4 + 2 x 144 + 4 x 48, not 4 x 196.
    exact_pn_matrix(m, 3, lineage=(1, 2), guard=484)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_pn_matrix(m, 3, lineage=(1, 2), guard=483)


def test_slot_sweep_matches_tree_for_a_pin_off_the_transition_support():
    # x = (0, 1, 0) moves 0 -> 1, which the chain never does: at time 3 free
    # slots copy the pin's prefix (0, 1), a path no transition reaches.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.25, 0.75]]], [[1.0, 2.0]] * 3
    )
    for lineage in ((0, 0, 0), (2, 0, 1)):
        row, tree = kernel_row(m, 3, (0, 1, 0), lineage), kernel_row_tree(m, 3, (0, 1, 0), lineage)
        assert (0, 1, 1) in row
        assert set(row) == set(tree)
        assert max(abs(row[k] - tree[k]) for k in row) < 1e-12


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


@settings(max_examples=100, deadline=None)
@given(sparse_models(), st.integers(1, 3), st.data())
def test_property_lineage_pinned_matrix_matches_default_engine(m, N, data):
    # The pass's kernel does not depend on the slots that carry the
    # reference: any lineage gives the default engine's matrix, or both
    # refuse with a typed error.
    lineage = tuple(data.draw(st.lists(st.integers(0, N - 1), min_size=m.T, max_size=m.T)))
    got = outcome(lambda: exact_pn_matrix(m, N, lineage=lineage))
    want = outcome(lambda: exact_pn_matrix(m, N))
    if isinstance(got, PmcmcLabError) or isinstance(want, PmcmcLabError):
        assert isinstance(got, PmcmcLabError) and isinstance(want, PmcmcLabError)
        return
    assert got.states == want.states
    assert np.max(np.abs(got.kernel - want.kernel)) < 1e-12
    # One row against the outcome tree on the same lineage, where it fits.
    x = data.draw(st.sampled_from(got.states))
    tree = outcome(lambda: kernel_row_tree(m, N, x, lineage))
    if not isinstance(tree, OutcomeSpaceTooLarge):
        row = kernel_row(m, N, x, lineage)
        assert set(row) == set(tree)
        assert max(abs(row[k] - tree[k]) for k in row) < 1e-12


def multiset_matrix(m, N, paths, guard=10**7) -> np.ndarray:
    """The kernel over ``paths`` from the multiset sweep, row by row."""
    return np.array([row_vector(row, paths) for _, row, _ in multiset_sweep(m, N, paths, guard)])


def test_histogram_sweep_matches_multiset_on_oracle_grid():
    for name, n in oracle_grid():
        m, paths = model(name), target(name).paths
        got = histogram_sweep(m, n, paths)
        assert np.max(np.abs(got - multiset_matrix(m, n, paths))) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(sparse_models(), st.integers(1, 5))
def test_property_histogram_sweep_matches_multiset(m, N):
    try:
        paths = exact_target(m).paths
        want = multiset_matrix(m, N, paths, guard=10**5)
    except (ZeroPotential, OutcomeSpaceTooLarge):  # no path to pin; reference too large
        assume(False)
    got = histogram_sweep(m, N, paths)
    assert np.max(np.abs(got - want)) < 1e-12


def _random_model(gen, S: int, T: int):
    """S states, horizon T, with zero weights and sparse transition rows."""

    def law():
        v = gen.random(S) * (gen.random(S) < 0.6)
        v[gen.integers(S)] += 1.0
        return v / v.sum()

    weights = [3.0 * gen.random(S) * (gen.random(S) < 0.7) for _ in range(T)]
    return build_discrete_model(list(range(S)), law(), [[law() for _ in range(S)] for _ in range(T - 1)], weights)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_engine_entries_and_shares_match_multiset_on_random_models():
    # Pins off the target's support too (positive weights, zero-probability
    # moves), whose free children reach states no other particle can: the
    # sparse supports must take them in.  Columns range over every path.
    gen = np.random.default_rng(15)
    compared = 0
    for _ in range(120):
        S, T, N = (int(v) for v in (gen.integers(1, 4), gen.integers(1, 4), gen.integers(1, 5)))
        m = outcome(lambda: _random_model(gen, S, T))
        if isinstance(m, PmcmcLabError):
            continue
        every = list(itertools.product(range(S), repeat=T))
        live = [p for p in every if all(m.potentials[t][p[t]] > 0 for t in range(T))]
        dead = [p for p in every if p not in live]
        for x in dead[:1]:
            # A pin of zero weight is refused by both engines, with a type.
            assert isinstance(outcome(lambda: histogram_entries(m, N, [(x, x)])), PmcmcLabError)
            assert isinstance(outcome(lambda: list(multiset_sweep(m, N, [x]))), PmcmcLabError)
        if not live:
            continue
        got = outcome(lambda: histogram_entries(m, N, [(x, y) for x in live for y in every]))
        want = outcome(lambda: list(multiset_sweep(m, N, live, guard=10**5)))
        if isinstance(got, PmcmcLabError) or isinstance(want, PmcmcLabError):
            continue  # a refusal, typed; the engines' guards differ
        entries, shares = (v.reshape(len(live), len(every)) for v in got)
        for i, (x, row, share) in enumerate(want):
            assert x == live[i]
            assert np.max(np.abs(entries[i] - row_vector(row, every))) < 1e-12
            assert np.max(np.abs(shares[i] - share)) < 1e-12
        compared += 1
    assert compared >= 60


def test_histogram_guard_is_a_true_bound():
    # Model B at N=3: T=3 and 8 paths with 4 prefixes (x_1, x_2), so 16
    # prefix pairs, 4 with equal halves; 3 and 6 histograms at times 1
    # and 2; 2 terminal weights, whose sums of 0..2 take 1, 2, 3 values.
    # The multiset sweep needs 553 terms, within the count less one.
    m, paths = model("B"), target("B").paths
    count = _Plan(m, 3, paths).work
    transitions, grids = 16 * 3 * 6, 2 * (1 + 2)
    laws, pairs = 6 * (16 * 2 + 4 * 3), 8**2 * 2 + 8 * 3
    assert count == transitions + grids + laws + pairs
    at = _pn_matrix(m, 3, None, None, count)
    below = _pn_matrix(m, 3, None, None, count - 1)
    assert at[1:] == ("histogram", count)
    assert below[1:] == ("multiset", count)
    assert np.max(np.abs(at[0].kernel - below[0].kernel)) < 1e-12
    with pytest.raises(OutcomeSpaceTooLarge):
        histogram_sweep(m, 3, paths, guard=count - 1)


def test_histogram_count_comes_before_any_array():
    # 30 states at T=2, N=40: about 3e19 histograms at time 1 for each of
    # 900 prefix pairs, refused at once.
    S = 30
    uniform = np.full(S, 1 / S)
    m = build_discrete_model(list(range(S)), uniform, [np.tile(uniform, (S, 1))], [np.ones(S), np.ones(S)])
    paths = exact_target(m).paths
    assert _Plan(m, 40, paths).work > 10**20
    t0 = time.monotonic()
    with pytest.raises(OutcomeSpaceTooLarge):
        histogram_sweep(m, 40, paths)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_pn_matrix(m, 40, guard=10**4)
    assert time.monotonic() - t0 < 1.0


def test_histogram_sweep_particle_counts():
    m, paths = model("B"), target("B").paths
    with pytest.raises(TooFewParticles):
        histogram_sweep(m, 0, paths)
    with pytest.raises(TooFewParticles):
        exact_pn_matrix(m, 0)
    assert np.array_equal(histogram_sweep(m, 1, paths), np.eye(len(paths)))


def test_histogram_sweep_at_many_particles():
    # N=32: 31! is past int64, so the multinomial coefficients come from lgamma.
    m = model("A")
    chain = exact_pn_matrix(m, 32)
    assert np.max(np.abs(chain.kernel.sum(axis=1) - 1)) < 1e-12
    assert np.max(np.abs(chain.stationary @ chain.kernel - chain.stationary)) < 1e-12


@pytest.mark.parametrize(
    "site",
    [
        "rows_not_stochastic",
        "stationary_not_invariant",
        "spectral_zero_mass",
        "minorization_zero_mass",
        "kernel_not_square",
        "stationary_of_a_kernel_not_square",
        "l2_distance_wrong_length",
        "stationary_wrong_length",
        "fewer_states_than_kernel_rows",
    ],
)
def test_chain_checks_raise_typed_errors(site):
    absorbing = np.array([[1.0, 0.0], [0.5, 0.5]])
    cases = {
        "rows_not_stochastic": (
            NonStochasticRow,
            lambda: chain_from_kernel([(0,), (1,)], np.array([[0.5, 0.4], [0.5, 0.5]])),
        ),
        "stationary_not_invariant": (
            NonStochasticRow,
            lambda: chain_from_kernel((0, 1), absorbing, np.array([0.5, 0.5])),
        ),
        "spectral_zero_mass": (
            ZeroStationaryMass,
            lambda: spectral_summary(chain_from_kernel((0, 1), absorbing, np.array([1.0, 0.0]))),
        ),
        "minorization_zero_mass": (
            ZeroStationaryMass,
            lambda: exact_minorization(chain_from_kernel((0, 1), absorbing, np.array([1.0, 0.0]))),
        ),
        "kernel_not_square": (DimensionMismatch, lambda: chain_from_kernel((0, 1), np.full((2, 3), 1 / 3))),
        "stationary_of_a_kernel_not_square": (DimensionMismatch, lambda: stationary_distribution(np.ones((1, 2)))),
        "l2_distance_wrong_length": (DimensionMismatch, lambda: l2_distance(two_state_flip(0.3), [0.2, 0.3, 0.5])),
        "stationary_wrong_length": (DimensionMismatch, lambda: chain_from_kernel((0, 1), np.eye(2), [0.2, 0.3, 0.5])),
        "fewer_states_than_kernel_rows": (DimensionMismatch, lambda: chain_from_kernel((0,), np.eye(2), [0.5, 0.5])),
    }
    error, call = cases[site]
    with pytest.raises(error):
        call()


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


# ---------------------------------------------------------------------------
# Outcome tree
# ---------------------------------------------------------------------------


def test_outcome_tree_without_particles_is_a_typed_error():
    m, single_time = model_a(), model("C")
    for mod, N in ((m, 0), (m, -1), (single_time, 0), (single_time, -2)):
        with pytest.raises(TooFewParticles):
            list(enumerate_conditional_outcomes(mod, N, []))
    with pytest.raises(TooFewParticles):
        kernel_row_tree(m, 0, (0, 0))
    with pytest.raises(TooFewParticles):
        c2smc_expectation_bruteforce(m, 0, (0, 0), (1, 1))


def test_trace_lineage_refuses_a_terminal_outside_the_slots():
    states, ancestors = ((0, 1, 1), (1, 0, 1)), ((0, 0, 2),)
    assert trace_lineage(states, ancestors, 2) == (1, 1)
    assert trace_lineage(states, ancestors, 0) == (0, 1)
    for terminal in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            trace_lineage(states, ancestors, terminal)


def test_final_selection_weights_equal_the_per_particle_potentials():
    m = model("B")
    for _, states, _ in itertools.islice(enumerate_conditional_outcomes(m, 3, []), 200):
        g = np.array([m.potential(m.T, z) for z in states[-1]])
        assert final_selection_weights(m, states).tolist() == (g / float(g.sum())).tolist()


def test_outcome_tree_guard_counts_built_entries():
    # Model A, N=3, no pin: time 1 builds 2^3 = 8 outcomes.  At time 2 each
    # free slot has 3 parent slots x 2 successors = 6 options: 8 x 6^3 =
    # 1728 entries.  Total 8 + 1728 = 1736; no weight or move is zero, so
    # every entry is built and all 1728 are outcomes.
    m = model_a()
    assert len(list(enumerate_conditional_outcomes(m, 3, [], guard=1736))) == 1728
    with pytest.raises(OutcomeSpaceTooLarge):
        list(enumerate_conditional_outcomes(m, 3, [], guard=1735))
    # Pinned to slot 0: 2^2 = 4 outcomes at time 1, 4 x 6^2 = 144 at time 2.
    pins = [((0, 0), (0, 1))]
    assert len(list(enumerate_conditional_outcomes(m, 3, pins, guard=148))) == 144
    with pytest.raises(OutcomeSpaceTooLarge):
        list(enumerate_conditional_outcomes(m, 3, pins, guard=147))


def _until_error(outcomes):
    """The outcomes yielded, and the typed error that ended them (or None)."""
    got = []
    try:
        for item in outcomes:
            got.append(item)
    except PmcmcLabError as exc:
        return got, exc
    return got, None


@settings(max_examples=150, deadline=None)
@given(sparse_models(), st.integers(1, 4), st.data())
def test_property_outcome_tree_matches_recursive_reference(m, N, data):
    # Pinned paths of positive mass where there are any, so most pins are
    # admissible; any path otherwise.
    paths = outcome(lambda: exact_target(m).paths)
    any_path = st.lists(st.integers(0, m.n_states - 1), min_size=m.T, max_size=m.T).map(tuple)
    pins = []
    for _ in range(data.draw(st.integers(0, 2))):
        lineage = data.draw(st.lists(st.integers(0, N - 1), min_size=m.T, max_size=m.T))
        path = data.draw(any_path if isinstance(paths, PmcmcLabError) else st.sampled_from(paths) | any_path)
        pins.append((tuple(lineage), path))
    got, error = _until_error(enumerate_conditional_outcomes(m, N, pins, guard=3000))
    if isinstance(error, OutcomeSpaceTooLarge):
        return
    want, want_error = _until_error(reference_outcomes(m, N, pins))
    assert got == want
    assert type(error) is type(want_error) and str(error) == str(want_error)
    assert all(prob != 0.0 for prob, _, _ in got)
    if not pins and error is None:
        assert abs(sum(prob for prob, _, _ in got) - 1.0) < 1e-12


def test_outcome_tree_raises_after_the_outcomes_before_a_dead_system(monkeypatch):
    # N=1: the time-1 state 1 has zero weight, so the pass dies there after
    # the outcomes below state 0, in every block size.
    m = build_discrete_model([0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]]], [[1.0, 0.0], [1.0, 1.0]])
    want = _until_error(reference_outcomes(m, 1, []))
    assert len(want[0]) == 2 and want[1].time == 1
    for block in (1, 2, 8192):
        monkeypatch.setattr(exact_oracle, "_TREE_BLOCK", block)
        got = _until_error(enumerate_conditional_outcomes(m, 1, []))
        assert got[0] == want[0] and type(got[1]) is type(want[1]) and got[1].time == 1


def test_outcome_tree_blocks_do_not_change_the_results(monkeypatch):
    a, b, e = model_a(), model("B"), model("E")
    pairs = (((0, 1, 2), (2, 2, 0)), ((1, 1, 1), (0, 0, 0)))

    def results():
        return (
            list(enumerate_conditional_outcomes(a, 3, [])),
            list(enumerate_conditional_outcomes(b, 3, [((2, 0, 1), (1, 1, 0))])),
            [list(kernel_row_tree(b, 2, x, (1, 0, 1)).items()) for x in target("B").paths],
            [c2smc_expectation_bruteforce(e, 3, x, y) for x, y in pairs],
        )

    want = results()
    for block in (1, 7):
        monkeypatch.setattr(exact_oracle, "_TREE_BLOCK", block)
        assert results() == want
        assert max(len(p) for p, _, _ in exact_oracle._OutcomeTree(a, 3, []).blocks()) <= block
