import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import kernel_row_tree, model, model_a, model_t1, target
from pmcmc_lab import (
    Trajectory,
    alpha_constant,
    beta_delta_constants,
    build_joint_model,
    c2smc_expectation_bruteforce,
    c2smc_expectation_closed_form,
    exact_pn_matrix,
    icsmc_chain,
    kernel_row,
    pgibbs_step,
)
from pmcmc_lab.csmc import ChainState, conditional_system, icsmc_step, reference_pass
from pmcmc_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LineageClash,
    TooFewParticles,
    ZeroPathMass,
    ZeroPinnedPotential,
    ZeroPotential,
)
from pmcmc_lab.exact_oracle import kernel_row_multiset, multiset_sweep, slot_sweep
from pmcmc_lab.histogram import histogram_entries, histogram_sweep
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.pgibbs import theta_given_paths
from pmcmc_lab.replicated import csmc_step_replicated, icsmc_replicated, pgibbs_replicated


def test_two_particles_no_randomness():
    # With two particles both slots are pinned: the estimate is deterministic.
    m = model_a()
    x, y = (0, 0), (1, 1)
    s = conditional_system(m, 2, [((0, 0), x), ((1, 1), y)], 3)
    assert s.states[:, 0].tolist() == [[0, 1], [0, 1]]
    expected = ((1 + 2) / 2) * ((1 + 3) / 2)
    assert c2smc_expectation_bruteforce(m, 2, x, y) == pytest.approx(expected, rel=1e-14)
    assert c2smc_expectation_closed_form(m, 2, x, y) == pytest.approx(expected, rel=1e-14)


def test_lineage_clash_detected():
    m = model_a()
    with pytest.raises(LineageClash):
        conditional_system(m, 3, [((0, 0), (0, 0)), ((0, 1), (1, 1))], 0)


def test_shared_slot_allowed_when_paths_agree():
    m = model_a()
    s = conditional_system(m, 3, [((0, 0), (0, 1)), ((0, 0), (0, 1))], 1)
    assert s.states[0, 0, 0] == 0 and s.states[1, 0, 0] == 1


def test_free_particle_matches_initial_law():
    m = model_t1()
    counts = np.zeros(2)
    R = 20_000
    for seed in range(R):
        s = conditional_system(m, 3, [((0,), (0,)), ((1,), (1,))], seed)
        counts[s.states[0, 0, 2]] += 1
    freq = counts / R
    sd = np.sqrt(0.25 / R)
    assert abs(freq[0] - 0.5) < 5 * sd


def test_single_time_hand_expansion():
    m = model_t1()
    x, y = (0,), (1,)
    assert c2smc_expectation_closed_form(m, 3, x, y) == pytest.approx(2.0, rel=1e-14)
    assert c2smc_expectation_bruteforce(m, 3, x, y) == pytest.approx(2.0, rel=1e-14)


def test_unit_weights_give_unit_expectation():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]]], [[1, 1], [1, 1]]
    )
    for N in (2, 3, 5):
        assert c2smc_expectation_closed_form(m, N, (0, 0), (1, 1)) == pytest.approx(1.0)
        if N <= 3:
            assert c2smc_expectation_bruteforce(m, N, (0, 0), (1, 1)) == pytest.approx(1.0)


def _zero_first_weight():
    """Two states, T=2, with G_1 = (1, 0): state 1 cannot be pinned at time 1."""
    return build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 0.0], [1.0, 3.0]]
    )


# Every public entry point that pins a path.  The two-pin entry points pin
# the path under test as x and, in a second call, as y.  A chain of zero
# steps returns its start, so it checks the start as its first step would.
# "run_csmc", "artificial_joint_step" and "run_c2smc" name the three
# one-replicate passes of conditional_system by the kernels they step: the
# path pinned to slot 0, pinned along the slots (1,) * T, and beside a
# second pin.
_ONE_PIN = (
    "run_csmc",
    "icsmc_chain",
    "artificial_joint_step",
    "reference_pass",
    "csmc_step_replicated",
    "icsmc_replicated",
    "icsmc_chain_zero_steps",
    "icsmc_replicated_zero_steps",
    "pgibbs_replicated_zero_steps",
    "kernel_row",
    "kernel_row_tree",
    "kernel_row_multiset",
    "multiset_sweep",
    "histogram_sweep",
    "histogram_entries",
    "pgibbs_step",
    "theta_given_paths",
)
_TWO_PINS = ("run_c2smc", "c2smc_expectation_closed_form", "c2smc_expectation_bruteforce")
_PINNING = _TWO_PINS + _ONE_PIN


def _pinning_calls(entry, m, N, path):
    """Zero-argument calls of ``entry`` on model ``m`` that each pin ``path``."""
    x, T = Trajectory(path), m.T
    jm = build_joint_model((0, 1), [0.5, 0.5], [m, m])
    one = {
        "run_csmc": lambda: conditional_system(m, N, [((0,) * T, path)], 0),
        "icsmc_chain": lambda: icsmc_chain(m, N, x, 2, 0),
        "artificial_joint_step": lambda: conditional_system(m, N, [((1,) * T, path)], 0),
        "reference_pass": lambda: reference_pass(m.tables, N, [path], 0),
        "csmc_step_replicated": lambda: csmc_step_replicated(m, N, np.array([path]), 0),
        "icsmc_replicated": lambda: icsmc_replicated(m, N, path, 2, 1, 0),
        "icsmc_chain_zero_steps": lambda: icsmc_chain(m, N, x, 0, 0),
        "icsmc_replicated_zero_steps": lambda: icsmc_replicated(m, N, path, 2, 0, 0),
        "pgibbs_replicated_zero_steps": lambda: pgibbs_replicated(jm, N, 2, 0, 0, path, 0),
        "kernel_row": lambda: kernel_row(m, N, path),
        "kernel_row_tree": lambda: kernel_row_tree(m, N, path),
        "kernel_row_multiset": lambda: kernel_row_multiset(m, N, path),
        "multiset_sweep": lambda: list(multiset_sweep(m, N, [path])),
        "histogram_sweep": lambda: histogram_sweep(m, N, [path]),
        "histogram_entries": lambda: histogram_entries(m, N, [(path, path)]),
        "pgibbs_step": lambda: pgibbs_step(jm, N, ChainState(paths=[path]), 0),
        "theta_given_paths": lambda: theta_given_paths(jm, [path]),
    }
    if entry in one:
        return [one[entry]]
    two = {
        "run_c2smc": lambda a, b: conditional_system(m, N, [((0,) * T, a), ((1,) * T, b)], 0),
        "c2smc_expectation_closed_form": lambda a, b: c2smc_expectation_closed_form(m, N, a, b),
        "c2smc_expectation_bruteforce": lambda a, b: c2smc_expectation_bruteforce(m, N, a, b),
    }[entry]
    good = (0,) * T
    return [lambda: two(path, good), lambda: two(good, path)]


@pytest.mark.parametrize("entry", [e for e in _PINNING if e != "theta_given_paths"])
def test_zero_weight_pin_is_rejected(entry):
    # Particle Gibbs draws the parameter first: a path with zero weight under
    # every model has zero mass, which the parameter draw refuses.
    error = ZeroPathMass if entry.startswith("pgibbs") else ZeroPinnedPotential
    m = _zero_first_weight()
    for call in _pinning_calls(entry, m, 3, (1, 0)):
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("entry", _PINNING)
def test_wrong_length_path_is_rejected(entry):
    m = _zero_first_weight()
    for path in ((0, 0, 1), (0,)):
        for call in _pinning_calls(entry, m, 3, path):
            with pytest.raises(DimensionMismatch):
                call()


@pytest.mark.parametrize("entry", _PINNING)
def test_state_outside_alphabet_is_rejected(entry):
    m = _zero_first_weight()
    for path in ((0, 5), (0, -1), (-1, 0), (2, 0)):
        for call in _pinning_calls(entry, m, 3, path):
            with pytest.raises(IndexOutOfRange):
                call()


@pytest.mark.parametrize("entry", _PINNING)
def test_state_that_is_not_an_integer_is_rejected(entry):
    # Each used to run on the path it truncates to.
    m = _zero_first_weight()
    for path in ((0, 1.5), (0.0, 1.0), (True, False)):
        for call in _pinning_calls(entry, m, 3, path):
            with pytest.raises(IndexOutOfRange, match="is not an integer"):
                call()


def _batch_call(entry, paths, pairs):
    """A zero-argument call of ``entry`` on the batch ``paths`` (``pairs``
    for the entry that takes (x, y) pairs)."""
    m = model_a()
    jm = build_joint_model((0, 1), [0.5, 0.5], [m, m])
    return {
        "multiset_sweep": lambda: list(multiset_sweep(m, 2, paths)),
        "slot_sweep": lambda: list(slot_sweep(m, 2, paths)),
        "histogram_sweep": lambda: histogram_sweep(m, 2, paths),
        "histogram_entries": lambda: histogram_entries(m, 2, pairs),
        "reference_pass": lambda: reference_pass(m.tables, 2, paths, 0),
        "csmc_step_replicated": lambda: csmc_step_replicated(m, 3, paths, 1),
        "icsmc_step": lambda: icsmc_step(m, 2, ChainState(paths=paths), 0),
        "theta_given_paths": lambda: theta_given_paths(jm, paths),
        "pgibbs_step": lambda: pgibbs_step(jm, 2, ChainState(paths=paths), 0),
    }[entry]


@pytest.mark.parametrize(
    "entry",
    ["multiset_sweep", "histogram_sweep", "histogram_entries", "reference_pass", "theta_given_paths", "pgibbs_step"],
)
def test_paths_of_unequal_length_are_rejected(entry):
    call = _batch_call(entry, [(0, 0), (0,)], [((0, 0), (0, 0)), ((0, 0), (0,))])
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize(
    "entry",
    ["multiset_sweep", "slot_sweep", "histogram_sweep", "histogram_entries", "reference_pass",
     "csmc_step_replicated", "icsmc_step", "theta_given_paths", "pgibbs_step"],
)
def test_a_flat_path_is_not_a_batch(entry):
    # One path of length T where a batch (R, T) is due, as a tuple or an
    # array (a pair of paths where pairs are due): the tuple used to raise a
    # bare TypeError and the array to run T rows, one per state.
    for path in ((0, 1), np.array([0, 1])):
        with pytest.raises(DimensionMismatch):
            _batch_call(entry, path, (path, path))()


def test_count_engine_refuses_a_flat_pair():
    # One (x, y) pair where a batch of pairs is due: at T = 3 its paths
    # unpacked into three values, numpy's bare ValueError.
    with pytest.raises(DimensionMismatch):
        histogram_entries(model("E"), 2, ((0, 0, 0), (1, 1, 1)))


def test_count_engine_refuses_a_column_path_outside_the_alphabet():
    # The y of a pair is not pinned, but its states are read all the same.
    m = model_a()
    for y in ((0, 5), (0, -1), (2, 0)):
        with pytest.raises(IndexOutOfRange):
            histogram_entries(m, 3, [((0, 0), y)])


def test_too_few_particles_for_the_pins_is_rejected():
    # No particle at all, or the second pin's slot 1 outside [0, N).
    m = model_a()
    with pytest.raises(TooFewParticles):
        exact_pn_matrix(m, 0)
    with pytest.raises(IndexOutOfRange):
        c2smc_expectation_closed_form(m, 1, (0, 0), (1, 1))
    with pytest.raises(IndexOutOfRange):
        c2smc_expectation_bruteforce(m, 1, (0, 0), (1, 1))


def test_bounded_weight_envelope():
    # closed form <= gamma * (1 + [1-(1-2/N)^T][prod(sup G)/gamma - 1])
    from pmcmc_lab.fk_model import sup_potentials

    for name in ("A", "B", "C", "D", "E"):
        m = model(name)
        gamma = target(name).gamma_t
        ratio = float(np.prod(sup_potentials(m))) / gamma
        for N in (2, 3, 5, 9):
            envelope = gamma * (1 + (1 - (1 - 2 / N) ** m.T) * (ratio - 1))
            for x in target(name).paths:
                for y in target(name).paths[:2]:
                    v = c2smc_expectation_closed_form(m, N, x, y)
                    assert v <= envelope * (1 + 1e-12)


def test_overshoot_envelope():
    # closed form <= gamma * (1 + 2(alpha-1)/N)^T
    for name in ("A", "B", "D"):
        m = model(name)
        gamma = target(name).gamma_t
        alpha = alpha_constant(m)
        for N in (2, 3, 6):
            envelope = gamma * (1 + 2 * (alpha - 1) / N) ** m.T
            for x in target(name).paths:
                for y in target(name).paths:
                    v = c2smc_expectation_closed_form(m, N, x, y)
                    assert v <= envelope * (1 + 1e-12)


def test_alpha_is_one_for_flat_models():
    m = build_discrete_model(
        [0, 1], [0.4, 0.6], [[[0.4, 0.6], [0.4, 0.6]]], [[2, 2], [1, 1]]
    )
    # state-independent transitions and constant weights
    assert alpha_constant(m) == pytest.approx(1.0, abs=1e-14)


def test_alpha_canonical_value():
    assert alpha_constant(model_a()) == pytest.approx(40 / 26, rel=1e-12)


def test_beta_delta_canonical_values():
    mc = beta_delta_constants(model_a(), 1)
    assert mc.beta == pytest.approx(3.0)
    assert mc.delta == pytest.approx(3.0)
    assert mc.alpha <= mc.beta * mc.delta


def test_beta_one_for_state_independent_rows():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.3, 0.7], [0.3, 0.7]]], [[1, 2], [2, 1]]
    )
    mc = beta_delta_constants(m, 1)
    assert mc.beta == pytest.approx(1.0)


def test_delta_one_for_constant_weights():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[2, 2], [5, 5]]
    )
    mc = beta_delta_constants(m, 1)
    assert mc.delta == pytest.approx(1.0)


def test_delta_requires_positive_weights():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 0.0]])
    with pytest.raises(ZeroPotential):
        beta_delta_constants(m, 1)


def test_beta_infinite_on_disjoint_rows():
    from pmcmc_lab.errors import ZeroTransitionOverlap

    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.0, 1.0]]], [[1, 1], [1, 2]]
    )
    with pytest.raises(ZeroTransitionOverlap):
        beta_delta_constants(m, 1)


def test_overshoot_below_spread_product_all_lags():
    for name in ("A", "B", "D", "E"):
        m = model(name)
        alpha = alpha_constant(m)
        for lag in range(1, m.T + 1):
            mc = beta_delta_constants(m, lag)
            assert alpha <= mc.beta * mc.delta


@st.composite
def tiny_models(draw):
    S = draw(st.integers(2, 3))
    T = draw(st.integers(1, 3))
    def vec(n, lo=0.1, hi=3.0):
        return [draw(st.floats(lo, hi)) for _ in range(n)]
    m1 = np.array(vec(S)); m1 /= m1.sum()
    mats = []
    for _ in range(T - 1):
        rows = []
        for _ in range(S):
            row = np.array(vec(S)); rows.append((row / row.sum()).tolist())
        mats.append(rows)
    gs = [vec(S) for _ in range(T)]
    m = build_discrete_model(list(range(S)), m1.tolist(), mats, gs)
    paths = [draw(st.sampled_from(range(S))) for _ in range(2 * T)]
    return m, tuple(paths[:T]), tuple(paths[T:]), draw(st.sampled_from([2, 3]))


@settings(max_examples=30, deadline=None)
@given(tiny_models())
def test_property_closed_form_equals_enumeration(case):
    m, x, y, N = case
    closed = c2smc_expectation_closed_form(m, N, x, y)
    brute = c2smc_expectation_bruteforce(m, N, x, y)
    assert closed == pytest.approx(brute, rel=1e-10)
