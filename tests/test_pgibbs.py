import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import joint_single_time, joint_two_time, model, model_a, sparse_models
from pmcmc_lab import (
    SubstreamRng,
    Trajectory,
    build_joint_model,
    check_theta_chain_identities,
    check_x_chain_orderings,
    exact_gibbs_matrices,
    exact_phi_matrices,
    exact_target,
    icsmc_chain,
    pgibbs_step,
    pimh_step,
    pmmh_step,
    rho_constants,
    run_smc,
    spectral_summary,
)
from pmcmc_lab.csmc import ChainState, _row, run_chain
from pmcmc_lab.errors import (
    AssertionFailure,
    ConstantOutOfRange,
    DegenerateB,
    DimensionMismatch,
    IndexOutOfRange,
    PmcmcLabError,
    TraceTooShort,
    ZeroPathMass,
    ZeroPinnedPotential,
    ZeroPotential,
)
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.pgibbs import RhoEstimate, enumerate_joint, theta_given_paths
from pmcmc_lab.replicated import pgibbs_replicated, pimh_replicated, pmmh_replicated


def test_joint_model_validation():
    m1 = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 2.0]])
    m2 = build_discrete_model([0, 1, 2], [0.5, 0.25, 0.25], [], [[1.0, 2.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        build_joint_model(["a", "b"], [0.5, 0.5], [m1, m2])
    with pytest.raises(DimensionMismatch):
        build_joint_model(["a"], [0.9], [m1])


def test_joint_model_keeps_a_private_read_only_prior():
    jm0 = joint_two_time()
    prior = np.array([0.4, 0.6])
    jm = build_joint_model(jm0.thetas, prior, jm0.models)
    tables = jm.tables
    prior[:] = [1.0, 0.0]
    np.testing.assert_array_equal(jm.prior, [0.4, 0.6])
    with pytest.raises(ValueError, match="read-only"):
        jm.prior[0] = 1.0
    # The stacked tables are built once and carry model j's rows at j * S.
    assert jm.tables is tables
    np.testing.assert_array_equal(tables.move_cdf[0][2:], jm.models[1].tables.move_cdf[0])


def test_joint_enumeration_sums():
    jm = joint_two_time()
    enum = enumerate_joint(jm)
    assert enum.joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert enum.theta_marginal.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(enum.cond_theta.sum(axis=1), 1.0)
    assert np.allclose(enum.cond_paths.sum(axis=1), 1.0)


def test_single_parameter_gibbs_draws_iid():
    m = model_a()
    jm = build_joint_model(["only"], [1.0], [m])
    (_, gx), enum = exact_gibbs_matrices(jm)
    # every row equals the conditional: independent sampling
    for row in gx.kernel:
        assert np.allclose(row, enum.cond_paths[0])


def test_independent_joint_gives_iid_path_kernel():
    shared = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 3.0]])
    jm = build_joint_model(["a", "b"], [0.3, 0.7], [shared, shared])
    (_, gx), _ = exact_gibbs_matrices(jm)
    for row in gx.kernel:
        assert np.allclose(row, gx.stationary)


def test_gibbs_path_kernel_reversible():
    for jm in (joint_single_time(), joint_two_time()):
        (_, gx), _ = exact_gibbs_matrices(jm)
        flow = gx.stationary[:, None] * gx.kernel
        assert np.max(np.abs(flow - flow.T)) < 1e-12


def test_particle_path_kernel_reversible_and_positive():
    for jm in (joint_single_time(), joint_two_time()):
        for n in (2, 3):
            (_, px), _ = exact_phi_matrices(jm, n)
            flow = px.stationary[:, None] * px.kernel
            assert np.max(np.abs(flow - flow.T)) < 1e-10
            assert spectral_summary(px).is_positive


def test_single_particle_freezes_the_path():
    jm = joint_two_time()
    (_, px), _ = exact_phi_matrices(jm, 1)
    assert np.allclose(px.kernel, np.eye(px.n_states))


def test_particle_kernel_approaches_gibbs():
    jm = joint_two_time()
    (_, gx), _ = exact_gibbs_matrices(jm)
    gaps = []
    dists = []
    for n in (2, 4, 8, 16):
        (_, px), _ = exact_phi_matrices(jm, n)
        dists.append(np.max(np.abs(px.kernel - gx.kernel)))
        gaps.append(rho_constants(jm, n).rho_exact)
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_rho_single_parameter_equals_gap():
    m = model_a()
    jm = build_joint_model(["only"], [1.0], [m])
    from fixtures import pn_chain

    rho = rho_constants(jm, 2)
    gap = spectral_summary(pn_chain("A", 2)).gap_right
    assert rho.rho_exact == pytest.approx(gap, rel=1e-10)
    assert rho.rho_lower == pytest.approx(gap, rel=1e-10)


def test_rho_equal_gaps_collapse():
    # Two copies of the same path model: all conditional gaps coincide.
    m = model_a()
    jm = build_joint_model(["a", "b"], [0.25, 0.75], [m, m])
    rho = rho_constants(jm, 3)
    assert rho.rho_exact == pytest.approx(rho.rho_lower, rel=1e-10)


def test_rho_degenerate_conditionals():
    m = build_discrete_model([0, 1], [1.0, 0.0], [], [[1.0, 1.0]])
    jm = build_joint_model(["a"], [1.0], [m])
    with pytest.raises(DegenerateB):
        rho_constants(jm, 2)


def test_x_chain_orderings_pass_on_fixtures():
    for jm in (joint_single_time(), joint_two_time()):
        for n in (2, 3):
            report = check_x_chain_orderings(jm, n)
            assert all(v <= 1e-9 for _, v, _ in report)


def test_x_chain_orderings_catch_violations():
    jm = joint_single_time()
    with pytest.raises(AssertionFailure):
        check_x_chain_orderings(jm, 2, slack=-1.0)


def test_theta_identities_pass_on_fixtures():
    for jm in (joint_single_time(), joint_two_time()):
        for n in (2, 3):
            for j in range(jm.J):
                f = np.zeros(jm.J)
                f[j] = 1.0
                report = check_theta_chain_identities(jm, n, f)
                assert all(v <= 1e-9 for _, v, _ in report)


def test_theta_identities_constant_function_vacuous():
    jm = joint_single_time()
    report = check_theta_chain_identities(jm, 2, np.ones(jm.J))
    assert all(v <= 1e-10 for _, v, _ in report)


def test_single_time_gap_transfer():
    # Gap(particle path chain) >= eps * Gap(ideal path chain) with the
    # single-time constant built from the normalised weight supremum.
    from pmcmc_lab import epsilon_isir
    from pmcmc_lab.fk_model import exact_target, sup_potentials

    jm = joint_single_time()
    g_bar = max(
        float(np.prod(sup_potentials(m))) / exact_target(m).gamma_t for m in jm.models
    )
    (_, gx), _ = exact_gibbs_matrices(jm)
    beta = spectral_summary(gx).gap_right
    for n in (2, 3, 4):
        (_, px), _ = exact_phi_matrices(jm, n)
        beta_n = spectral_summary(px).gap_right
        assert beta_n >= epsilon_isir(g_bar, n).epsilon * beta - 1e-12


def test_pgibbs_step_single_parameter_reduces_to_pinned_pass():
    m = model_a()
    jm = build_joint_model(["only"], [1.0], [m])
    state = pgibbs_step(jm, 3, ChainState(paths=[(0, 0)]), 5)
    assert state.thetas.tolist() == [0]
    assert state.paths.shape == (1, 2)


def test_pgibbs_long_run_matches_joint_law():
    from pmcmc_lab.replicated import pgibbs_replicated

    jm = joint_two_time()
    enum = enumerate_joint(jm)
    R, steps = 100_000, 15
    thetas, paths = pgibbs_replicated(jm, 3, R, steps, 2024, x0=(0, 0), theta0=0)
    code = thetas * 4 + paths[:, 0] * 2 + paths[:, 1]
    freq = np.bincount(code, minlength=8) / R
    joint = np.array(
        [enum.joint[j, enum.path_index((a, b))] for j in range(2) for a in (0, 1) for b in (0, 1)]
    )
    sd = np.sqrt(joint * (1 - joint) / R)
    assert np.max(np.abs(freq - joint) / sd) < 5


def test_pimh_constant_weights_always_accept():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.6, 0.4], [0.3, 0.7]]], [[2, 2], [1, 1]]
    )
    rng = SubstreamRng(5)
    s = run_smc(m, 4, rng, base=0)
    state = ChainState(paths=s.paths(), log_gammas=s.log_gamma())
    for step in range(1, 30):
        state = pimh_step(m, 4, state, rng, base=step)
        assert state.accepted[0]


def test_pimh_acceptance_matches_enumerated_expectation():
    # Stationary acceptance rate against the exact two-binomial enumeration.
    from math import comb

    from pmcmc_lab.replicated import pimh_replicated

    m = model_a()
    N = 16
    # Exact law of the estimate under the plain pass: counts of state 0 at
    # both times.
    g1 = np.array([1.0, 2.0])
    g2 = np.array([1.0, 3.0])
    m2 = np.array([[0.75, 0.25], [0.25, 0.75]])
    values = {}
    for k1 in range(N + 1):
        p1 = comb(N, k1) * 0.5**N
        mean1 = (k1 * g1[0] + (N - k1) * g1[1]) / N
        w0 = k1 * g1[0] / (k1 * g1[0] + (N - k1) * g1[1])
        q0 = w0 * m2[0, 0] + (1 - w0) * m2[1, 0]
        for k2 in range(N + 1):
            p2 = comb(N, k2) * q0**k2 * (1 - q0) ** (N - k2)
            mean2 = (k2 * g2[0] + (N - k2) * g2[1]) / N
            v = mean1 * mean2
            values[round(v, 12)] = values.get(round(v, 12), 0.0) + p1 * p2
    vals = np.array(sorted(values))
    probs = np.array([values[v] for v in sorted(values)])
    stat = vals * probs  # the stationary law of the estimate tilts by value
    stat = stat / stat.sum()
    accept = float(
        sum(
            stat[i] * probs[j] * min(1.0, vals[j] / vals[i])
            for i in range(len(vals))
            for j in range(len(vals))
        )
    )
    R, steps = 20_000, 10
    _, rate, _ = pimh_replicated(m, N, R, steps, 99)
    sd = np.sqrt(accept * (1 - accept) / (R * steps))
    assert abs(rate - accept) < 6 * sd


def test_pimh_stationary_histogram():
    from fixtures import target
    from pmcmc_lab.replicated import pimh_replicated

    m = model_a()
    t = target("A")
    R = 200_000
    paths, _, _ = pimh_replicated(m, 16, R, 25, 7)
    freq = np.bincount(paths[:, 0] * 2 + paths[:, 1], minlength=4) / R
    exact = np.array([t.prob((a, b)) for a in (0, 1) for b in (0, 1)])
    sd = np.sqrt(exact * (1 - exact) / R)
    assert np.max(np.abs(freq - exact) / sd) < 5


def test_pmmh_identity_proposal_keeps_theta():
    jm = joint_two_time()
    rng = SubstreamRng(3)
    s = run_smc(jm.models[0], 4, rng, base=0)
    state = ChainState(thetas=np.zeros(1, int), log_gammas=s.log_gamma())
    q = np.eye(2)
    for step in range(1, 20):
        state = pmmh_step(jm, 4, q, state, rng, base=step)
        assert state.thetas[0] == 0


def test_pmmh_theta_marginal():
    from pmcmc_lab.replicated import pmmh_replicated

    jm = joint_two_time()
    enum = enumerate_joint(jm)
    R, steps = 50_000, 20
    thetas, _ = pmmh_replicated(jm, 8, np.full((2, 2), 0.5), R, steps, 5)
    freq = np.bincount(thetas, minlength=2) / R
    sd = np.sqrt(enum.theta_marginal * (1 - enum.theta_marginal) / R)
    assert np.max(np.abs(freq - enum.theta_marginal) / sd) < 5


def test_pmmh_exact_constant_substitution_is_marginal_chain():
    # With constant weights per parameter the estimate is deterministic and
    # the acceptance reduces to the exact marginal ratio.
    m_a = build_discrete_model([0, 1], [0.5, 0.5], [], [[2.0, 2.0]])
    m_b = build_discrete_model([0, 1], [0.5, 0.5], [], [[3.0, 3.0]])
    jm = build_joint_model(["a", "b"], [0.5, 0.5], [m_a, m_b])
    enum = enumerate_joint(jm)
    from pmcmc_lab.replicated import pmmh_replicated

    thetas, rate = pmmh_replicated(jm, 3, np.full((2, 2), 0.5), 30_000, 12, 8)
    freq = np.bincount(thetas, minlength=2) / len(thetas)
    sd = np.sqrt(enum.theta_marginal * (1 - enum.theta_marginal) / len(thetas))
    assert np.max(np.abs(freq - enum.theta_marginal) / sd) < 5
    # acceptance: with gamma_b/gamma_a = 1.5 and uniform proposal, the exact
    # stationary acceptance is 1 - (prob at b) * (propose a) * (1 - 2/3)
    expect = 1.0 - enum.theta_marginal[1] * 0.5 * (1 - 2 / 3)
    assert rate == pytest.approx(expect, abs=0.02)


def test_theta_given_paths_matches_enumeration():
    for jm in (joint_single_time(), joint_two_time()):
        enum = enumerate_joint(jm)
        got = theta_given_paths(jm, np.array(enum.paths))
        assert np.max(np.abs(got - enum.cond_theta)) <= 1e-12


def test_pgibbs_zero_mass_path_raises_typed_error():
    # Diagonal transitions: the path (0, 1) has zero mass under both values.
    diag = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 1.0], [1.0, 2.0]]
    )
    jm = build_joint_model(["a", "b"], [0.5, 0.5], [diag, diag])
    with pytest.raises(PmcmcLabError, match="zero mass"):
        pgibbs_step(jm, 2, ChainState(paths=[(0, 1)]), 1)
    with pytest.raises(PmcmcLabError, match="zero mass"):
        pgibbs_replicated(jm, 2, 4, 1, 1, (0, 1), 0)


@pytest.mark.parametrize("theta0", [-1, 2, 7, 0.5])
@pytest.mark.parametrize("n_steps", [0, 2])
def test_pgibbs_replicated_refuses_a_start_parameter_outside_the_model(theta0, n_steps):
    with pytest.raises(IndexOutOfRange):
        pgibbs_replicated(joint_two_time(), 2, 2, n_steps, 0, (0, 0), theta0)


@pytest.mark.parametrize("exact, lower", [(0.5, -0.1), (0.3, 0.5), (1.2, 0.5)])
def test_weighted_gap_constant_out_of_range_is_typed(exact, lower):
    with pytest.raises(ConstantOutOfRange):
        RhoEstimate(rho_exact=exact, rho_lower=lower)


def test_replicated_acceptance_rates_need_a_step():
    jm = joint_two_time()
    q = np.full((2, 2), 0.5)
    for n_steps in (0, -1):
        with pytest.raises(TraceTooShort, match="n_steps >= 1"):
            pimh_replicated(model_a(), 2, 3, n_steps, 1)
        with pytest.raises(TraceTooShort, match="n_steps >= 1"):
            pmmh_replicated(jm, 2, q, 3, n_steps, 1)


def test_pimh_step_loop_is_row_zero_of_pimh_replicated():
    from fixtures import model

    m = model("E")
    rng = SubstreamRng(21)
    s = run_smc(m, 3, rng, base=0)
    state = ChainState(paths=s.paths(), log_gammas=s.log_gamma())
    for step in range(1, 16):
        state = pimh_step(m, 3, state, rng, base=step)
    paths, _, lg = pimh_replicated(m, 3, 5, 15, 21)
    assert state.paths[0].tolist() == paths[0].tolist()
    assert state.log_gammas[0] == lg[0]


def test_pgibbs_and_pmmh_steps_are_row_zero_of_their_batched_chains():
    jm = joint_two_time()
    state = ChainState(paths=[(0, 0)], thetas=np.zeros(1, int))
    for step in range(1, 13):
        state = pgibbs_step(jm, 3, state, 8, base=step)
    thetas, paths = pgibbs_replicated(jm, 3, 5, 12, 8, (0, 0), 0)
    assert (state.thetas[0], state.paths[0].tolist()) == (thetas[0], paths[0].tolist())

    q = np.full((2, 2), 0.5)
    rng = SubstreamRng(9)
    state = ChainState(thetas=np.zeros(1, int), log_gammas=run_smc(jm.models[0], 4, rng).log_gamma())
    for step in range(1, 13):
        state = pmmh_step(jm, 4, q, state, rng, base=step)
    thetas, _ = pmmh_replicated(jm, 4, q, 5, 12, 9)
    assert state.thetas[0] == thetas[0]


def test_every_sampler_steps_through_a_module_level_step():
    import functools

    from pmcmc_lab import csmc, pgibbs

    m, jm = model_a(), joint_two_time()
    # Each binds the pass plan it built once into the move behind its public
    # step; PIMH and PMMH share one move.
    samplers = [
        (csmc._icsmc_move, csmc.icsmc_sampler(m, 3, (0, 0), 2)),
        (pgibbs._mh_move, pgibbs.pimh_sampler(m, 3, 2, 1)),
        (pgibbs._mh_move, pgibbs.pmmh_sampler(jm, 3, np.full((2, 2), 0.5), 2, 1)),
        (pgibbs._pgibbs_move, pgibbs.pgibbs_sampler(jm, 3, (0, 0), 0, 2)),
    ]
    for move, sampler in samplers:
        assert isinstance(sampler.move, functools.partial)
        assert sampler.move.func is move


def test_icsmc_step_on_one_row_is_row_zero_of_icsmc_replicated():
    from pmcmc_lab.csmc import icsmc_step
    from pmcmc_lab.replicated import icsmc_replicated

    m = model_a()
    state, rng = ChainState(paths=[(0, 1)]), SubstreamRng(4)
    for step in range(1, 9):
        state = icsmc_step(m, 3, state, rng, base=step)
    assert state.paths[0].tolist() == icsmc_replicated(m, 3, (0, 1), 5, 8, 4)[0].tolist()


@pytest.mark.parametrize(
    "case, error",
    [
        ("pimh_short_estimates", DimensionMismatch),
        ("pimh_long_paths", DimensionMismatch),
        ("pimh_path_rows", DimensionMismatch),
        ("pmmh_short_estimates", DimensionMismatch),
        ("pmmh_negative_theta", IndexOutOfRange),
        ("pmmh_theta_past_J", IndexOutOfRange),
        ("pmmh_malformed_proposal", DimensionMismatch),
        ("pgibbs_state_outside_alphabet", IndexOutOfRange),
        ("pgibbs_short_path", DimensionMismatch),
        ("icsmc_state_outside_alphabet", IndexOutOfRange),
    ],
)
def test_steps_refuse_malformed_states(case, error):
    from pmcmc_lab.csmc import icsmc_step

    m, jm, q = model_a(), joint_two_time(), np.full((2, 2), 0.5)
    lg = np.zeros(2)
    call = {
        "pimh_short_estimates": lambda: pimh_step(m, 2, ChainState(paths=[(0, 0), (1, 1)], log_gammas=lg[:1]), 0),
        "pimh_long_paths": lambda: pimh_step(m, 2, ChainState(paths=[(0, 0, 1), (1, 1, 0)], log_gammas=lg), 0),
        "pimh_path_rows": lambda: pimh_step(m, 2, ChainState(paths=[0, 1], log_gammas=lg), 0),
        "pmmh_short_estimates": lambda: pmmh_step(jm, 2, q, ChainState(thetas=[0, 1], log_gammas=lg[:1]), 0),
        "pmmh_negative_theta": lambda: pmmh_step(jm, 2, q, ChainState(thetas=[0, -1], log_gammas=lg), 0),
        "pmmh_theta_past_J": lambda: pmmh_step(jm, 2, q, ChainState(thetas=[2, 0], log_gammas=lg), 0),
        "pmmh_malformed_proposal": lambda: pmmh_step(jm, 2, q[:1], ChainState(thetas=[0, 1], log_gammas=lg), 0),
        "pgibbs_state_outside_alphabet": lambda: pgibbs_step(jm, 2, ChainState(paths=[(0, 2)]), 0),
        "pgibbs_short_path": lambda: pgibbs_step(jm, 2, ChainState(paths=[(0,)]), 0),
        "icsmc_state_outside_alphabet": lambda: icsmc_step(m, 2, ChainState(paths=[(0, 0), (0, 5)]), 0),
    }[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("case, error", [
    ("particle_pass_negative_rows", DimensionMismatch),
    ("particle_pass_float_N", DimensionMismatch),
    ("icsmc_sampler_negative_R", DimensionMismatch),
    ("pimh_sampler_negative_R", DimensionMismatch),
    ("pimh_sampler_float_R", DimensionMismatch),
    ("pmmh_sampler_negative_R", DimensionMismatch),
    ("pgibbs_sampler_negative_R", DimensionMismatch),
    ("icsmc_replicated_negative_R", DimensionMismatch),
    ("pgibbs_replicated_negative_R", DimensionMismatch),
    ("smc_replicated_negative_R", DimensionMismatch),
    ("icsmc_chain_float_N", DimensionMismatch),
    ("pmmh_step_float_theta", IndexOutOfRange),
    ("icsmc_step_no_paths", DimensionMismatch),
    ("icsmc_step_scalar_paths", DimensionMismatch),
    ("pgibbs_step_no_paths", DimensionMismatch),
    ("pgibbs_step_scalar_paths", DimensionMismatch),
    ("pimh_step_ragged_paths", DimensionMismatch),
])
def test_bad_sizes_and_indices_are_typed_refusals(case, error):
    # A row count or N that numpy would refuse with a bare error, or that a
    # cast would round, is refused before any array is built; so is a state
    # whose paths are missing, a scalar or ragged.
    from pmcmc_lab import Trajectory, icsmc_chain
    from pmcmc_lab.csmc import icsmc_sampler, icsmc_step
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler
    from pmcmc_lab.replicated import icsmc_replicated, smc_replicated
    from pmcmc_lab.smc_core import particle_pass

    m, jm, q, lg = model_a(), joint_two_time(), np.full((2, 2), 0.5), np.zeros(2)
    call = {
        "particle_pass_negative_rows": lambda: particle_pass(m.tables, 3, 0, rows=-1),
        "particle_pass_float_N": lambda: particle_pass(m.tables, 3.0, 0),
        "icsmc_sampler_negative_R": lambda: icsmc_sampler(m, 3, (0, 1), -1),
        "pimh_sampler_negative_R": lambda: pimh_sampler(m, 3, -1, 0),
        "pimh_sampler_float_R": lambda: pimh_sampler(m, 3, 1.0, 0),
        "pmmh_sampler_negative_R": lambda: pmmh_sampler(jm, 3, q, -1, 0),
        "pgibbs_sampler_negative_R": lambda: pgibbs_sampler(jm, 3, (0, 1), 0, -1),
        "icsmc_replicated_negative_R": lambda: icsmc_replicated(m, 3, (0, 1), -1, 2, 0),
        "pgibbs_replicated_negative_R": lambda: pgibbs_replicated(jm, 3, -1, 2, 0, (0, 1), 0),
        "smc_replicated_negative_R": lambda: smc_replicated(m, 3, -1, 0),
        "icsmc_chain_float_N": lambda: icsmc_chain(m, 3.0, Trajectory((0, 1)), 2, 0),
        "pmmh_step_float_theta": lambda: pmmh_step(jm, 3, q, ChainState(thetas=[0.7], log_gammas=[0.0]), 0),
        "icsmc_step_no_paths": lambda: icsmc_step(m, 3, ChainState(), 0),
        "icsmc_step_scalar_paths": lambda: icsmc_step(m, 3, ChainState(paths=0), 0),
        "pgibbs_step_no_paths": lambda: pgibbs_step(jm, 3, ChainState(), 0),
        "pgibbs_step_scalar_paths": lambda: pgibbs_step(jm, 3, ChainState(paths=0), 0),
        "pimh_step_ragged_paths": lambda: pimh_step(m, 3, ChainState(paths=[(0, 0), (0, 0, 1)], log_gammas=lg), 0),
    }[case]
    with pytest.raises(error):
        call()


def test_samplers_run_on_no_rows():
    # The row-count check refuses negative counts only: at R = 0 every
    # sampler still steps, on no rows.
    from pmcmc_lab.csmc import icsmc_sampler
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler

    m, jm, q = model_a(), joint_two_time(), np.full((2, 2), 0.5)
    for sampler in (icsmc_sampler(m, 3, (0, 1), 0), pimh_sampler(m, 3, 0, 1), pmmh_sampler(jm, 3, q, 0, 1),
                    pgibbs_sampler(jm, 3, (0, 1), 0, 0)):
        states = list(run_chain(sampler, 3, 1))
        assert len(states) == 3
        assert all(f is None or len(f) == 0 for s in states for f in s)


def _bound_and_public(kind, m, jm, R):
    """The sampler of ``kind`` on R rows, and its public step with the
    sampler's arguments bound."""
    import functools

    from pmcmc_lab import csmc, pgibbs

    q = np.full((2, 2), 0.5)
    return {
        "icsmc": lambda: (csmc.icsmc_sampler(m, 3, (0,) * m.T, R), functools.partial(csmc.icsmc_step, m, 3)),
        "pimh": lambda: (pgibbs.pimh_sampler(m, 3, R, 7), functools.partial(pgibbs.pimh_step, m, 3)),
        "pmmh": lambda: (pgibbs.pmmh_sampler(jm, 3, q, R, 7), functools.partial(pgibbs.pmmh_step, jm, 3, q)),
        "pgibbs": lambda: (pgibbs.pgibbs_sampler(jm, 3, (0, 0), 1, R), functools.partial(pgibbs.pgibbs_step, jm, 3)),
    }[kind]()


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("kind, name", [
    ("icsmc", "A"), ("icsmc", "E"), ("pimh", "A"), ("pimh", "E"), ("pmmh", "J"), ("pgibbs", "J"),
])
def test_sampler_bound_plan_steps_as_the_public_step(kind, name, R):
    # The plan a sampler builds once gives, step for step, the states of
    # the public step, which builds a one-off plan per call.
    m = model("A" if name == "J" else name)
    sampler, public = _bound_and_public(kind, m, joint_two_time(), R)
    state, rng = sampler.start, SubstreamRng(11)
    for base, bound in enumerate(run_chain(sampler, 12, rng), 1):
        state = public(state, rng, base)
        for got, want in zip(bound, state):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["icsmc", "pgibbs"])
def test_sampler_bound_plan_checks_the_pinned_state(kind):
    # A bound step refuses a state as the public step does: outside the
    # alphabet, or of zero weight (which particle Gibbs refuses as a path of
    # zero mass under every parameter value).
    m = build_discrete_model([0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 0.0], [1.0, 3.0]])
    jm = build_joint_model(["a", "b"], [0.5, 0.5], [m, m])
    sampler, public = _bound_and_public(kind, m, jm, 2)
    zero_weight = ZeroPinnedPotential if kind == "icsmc" else ZeroPathMass
    for paths, error in (([(0, 2), (0, 0)], IndexOutOfRange), ([(0, 0), (1, 0)], zero_weight)):
        state = sampler.start._replace(paths=np.array(paths))
        for step in (sampler.step, public):
            with pytest.raises(error):
                step(state, 0, 1)


def test_icsmc_chain_builds_its_pin_layout_once(monkeypatch):
    from pmcmc_lab import smc_core

    calls = []

    def counted(*args):
        calls.append(args)
        return layout(*args)

    layout = smc_core._pin_layout
    monkeypatch.setattr(smc_core, "_pin_layout", counted)
    icsmc_chain(model_a(), 4, Trajectory((0, 1)), 50, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["icsmc", "pimh", "pmmh", "pgibbs"])
def test_sampler_bound_plan_refuses_another_row_count(kind):
    # A plan is built for the sampler's R rows; a state of other rows is a
    # typed refusal, not a numpy broadcast.
    sampler, _ = _bound_and_public(kind, model_a(), joint_two_time(), 2)
    state = sampler.start._replace(**{
        field: np.concatenate([value, value[:1]]) for field, value in sampler.start._asdict().items()
        if value is not None
    })
    with pytest.raises(DimensionMismatch):
        sampler.step(state, 0, 1)


# ---------------------------------------------------------------------------
# Row blocks of R-row steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["icsmc", "pimh", "pmmh", "pgibbs"])
def test_a_blocked_step_equals_the_unblocked_step(monkeypatch, kind):
    # At 7 rows per block, 23 rows step as 3 whole blocks and a ragged one
    # of 2, each reading its rows of every uniform block.  The start states
    # (the PIMH and PMMH start passes run on row blocks too) and the states
    # of every step are those of one 23-row call, bit for bit.
    from pmcmc_lab import csmc

    def run():
        sampler, _ = _bound_and_public(kind, model_a(), joint_two_time(), 23)
        rng = _ReadCounter(9)
        return sampler, [sampler.start, *run_chain(sampler, 4, rng)], rng.block

    sampler, want, reads = run()
    assert reads == 4 * len(sampler.reads)
    monkeypatch.setattr(csmc, "_ROW_BLOCK", 7 * sampler.table.size)
    _, got, reads = run()
    assert reads == 4 * 4 * len(sampler.reads)
    _assert_same_states(got, want)


@pytest.mark.parametrize("kind, field", [
    ("icsmc", "accepted"), ("pimh", "accepted"), ("pimh", "log_gammas"), ("pmmh", "accepted"), ("pgibbs", "accepted"),
])
def test_a_blocked_step_refuses_fields_of_other_row_counts(monkeypatch, kind, field):
    # A field one row longer than the paths (or, for PMMH, the parameters)
    # would be cut into blocks of equal rows and slip through; the step
    # refuses the state before any block.
    from pmcmc_lab import csmc

    sampler, _ = _bound_and_public(kind, model_a(), joint_two_time(), 23)
    monkeypatch.setattr(csmc, "_ROW_BLOCK", 7 * sampler.table.size)
    value = getattr(sampler.start, field)
    state = sampler.start._replace(**{field: np.zeros(24, bool if value is None else value.dtype)})
    rng = _ReadCounter(9)
    with pytest.raises(DimensionMismatch):
        sampler.step(state, rng, 1)
    assert rng.block == 0


# ---------------------------------------------------------------------------
# The table route of one-row chains
# ---------------------------------------------------------------------------


def _sparse_joint():
    """Two three-time models with zero initial, transition and weight
    entries: of the eight paths of live states, two have positive mass."""
    m1 = [0.0, 0.6, 0.4]
    moves = [[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]], [[0.0, 1.0, 0.0], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]]
    first = build_discrete_model([0, 1, 2], m1, moves, [[1.0, 2.0, 0.0], [1.5, 0.0, 1.0], [0.0, 1.0, 2.0]])
    second = build_discrete_model([0, 1, 2], m1, moves, [[2.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]])
    return build_joint_model([0, 1], [0.3, 0.7], [first, second])


def _dying_model():
    """A pass of one particle dies at time 2 with probability 0.9 * 0.1."""
    return build_discrete_model([0, 1], [0.5, 0.5], [[[0.1, 0.9], [0.1, 0.9]]], [[1.0, 2.0], [0.0, 1.0]])


def _one_row_sampler(kind, N):
    from fixtures import model_b
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler

    jm = joint_two_time()
    return {
        "pimh": lambda: pimh_sampler(model_b(), N, 1, 17),
        "pmmh": lambda: pmmh_sampler(jm, N, [[0.3, 0.7], [0.6, 0.4]], 1, 17),
        "pgibbs": lambda: pgibbs_sampler(jm, N, (0, 1), 1, 1),
        "pgibbs_sparse": lambda: pgibbs_sampler(_sparse_joint(), N, (1, 0, 1), 0, 1),
    }[kind]()


def _step_by_step(sampler, n_steps, seed):
    """The states of a hand loop of ``sampler.step`` over bases 1..n_steps;
    an error ends the loop, and is returned after the states before it."""
    states, state, rng = [], sampler.start, SubstreamRng(seed)
    try:
        for base in range(1, n_steps + 1):
            state = sampler.step(state, rng, base)
            states.append(state)
    except PmcmcLabError as error:
        return states, error
    return states, None


def _counted_bases(sampler):
    """``sampler`` with the base of each step it takes one row at a time
    recorded, and the list they are recorded in."""
    bases = []

    class Counted(type(sampler)):
        def step(self, state, rng, base=0):
            bases.append(base)
            return super().step(state, rng, base)

    return Counted(*sampler), bases


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert (a is None) == (b is None)
            if b is not None:
                assert np.array_equal(a, b)


@pytest.mark.parametrize("kind, N, past", [
    ("pimh", 4, False), ("pimh", 64, False), ("pimh", 400, True),
    ("pmmh", 4, False), ("pmmh", 64, False), ("pmmh", 300, True),
    ("pgibbs", 3, False), ("pgibbs", 64, False), ("pgibbs", 200, True),
    ("pgibbs_sparse", 3, False),
])
def test_one_row_run_chain_steps_as_a_hand_loop_of_the_step(monkeypatch, kind, N, past):
    # Inside the table work the chain runs as tables, one pass per chunk,
    # over more than one chunk here; past it, one row at a time.  Both give
    # the states of the step, bit for bit.
    from fixtures import counted_table_passes
    from pmcmc_lab import csmc

    sampler = _one_row_sampler(kind, N)
    assert (sampler.table.work > csmc._TABLE_WORK) == past
    n_steps = 12 if past else csmc._CHUNK // sampler.table.work + 3
    calls = counted_table_passes(monkeypatch)
    got = list(run_chain(sampler, n_steps, 5))
    want, error = _step_by_step(sampler, n_steps, 5)
    assert error is None
    _assert_same_states(got, want)
    assert len(calls) == (0 if past else 2)


def test_replicated_chains_at_one_row_take_the_table_route():
    from fixtures import model_b
    from pmcmc_lab.csmc import icsmc_sampler
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler
    from pmcmc_lab.replicated import icsmc_replicated

    m, jm, q = model_b(), joint_two_time(), [[0.3, 0.7], [0.6, 0.4]]

    def last(sampler):
        states, _ = _step_by_step(sampler, 30, 3)
        return states[-1], sum(int(s.accepted[0]) for s in states if s.accepted is not None)

    state, accepted = last(pimh_sampler(m, 4, 1, 3))
    paths, rate, lg = pimh_replicated(m, 4, 1, 30, 3)
    assert np.array_equal(paths, state.paths) and np.array_equal(lg, state.log_gammas) and rate == accepted / 30
    state, accepted = last(pmmh_sampler(jm, 4, q, 1, 3))
    thetas, rate = pmmh_replicated(jm, 4, q, 1, 30, 3)
    assert np.array_equal(thetas, state.thetas) and rate == accepted / 30
    state, _ = last(pgibbs_sampler(jm, 3, (0, 1), 0, 1))
    thetas, paths = pgibbs_replicated(jm, 3, 1, 30, 3, (0, 1), 0)
    assert np.array_equal(thetas, state.thetas) and np.array_equal(paths, state.paths)
    state, _ = last(icsmc_sampler(m, 3, (0, 1, 0), 1))
    assert np.array_equal(icsmc_replicated(m, 3, (0, 1, 0), 1, 30, 3), state.paths)


def _row_0(states):
    return [_row(state, 0) for state in states]


def test_a_dying_pimh_proposal_is_rejected_on_every_route():
    # Step 37's proposal pass dies at time 2: its estimate is 0, and the
    # move is rejected, keeping step 36's state and log estimate.  The table
    # route, a hand loop of the step and row 0 of three rows all give it.
    from pmcmc_lab.pgibbs import pimh_sampler

    sampler = pimh_sampler(_dying_model(), 1, 1, 7)
    got = list(run_chain(sampler, 60, 7))
    want, error = _step_by_step(sampler, 60, 7)
    assert error is None
    _assert_same_states(got, want)
    _assert_same_states(_row_0(run_chain(pimh_sampler(_dying_model(), 1, 3, 7), 60, 7)), want)
    before, dead = got[35], got[36]
    assert not dead.accepted[0] and np.isfinite(before.log_gammas[0])
    assert np.array_equal(dead.paths, before.paths) and dead.log_gammas[0] == before.log_gammas[0]


def test_pmmh_never_proposing_a_dying_parameter_does_not_raise():
    # The table runs every parameter value at every step, so its passes die
    # under the second model; those rows estimate 0, the chain never
    # proposes them, and no step runs a second time.
    from pmcmc_lab.pgibbs import pmmh_sampler

    jm = build_joint_model([0, 1], [0.5, 0.5], [model_a(), _dying_model()])
    sampler = pmmh_sampler(jm, 1, [[1.0, 0.0], [0.5, 0.5]], 1, 4)
    counted, bases = _counted_bases(sampler)
    got = list(run_chain(counted, 50, 4))
    assert bases == []
    want, error = _step_by_step(sampler, 50, 4)
    assert error is None
    _assert_same_states(got, want)


@settings(max_examples=50, deadline=None)
@given(sparse_models(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_property_every_route_gives_the_same_chain_on_sparse_models(m, N, seed, data):
    # On models with zero weights and sparse rows, where PIMH and PMMH
    # proposal passes die, each sampler's table route, a hand loop of its
    # step and row 0 of three rows give the same states, and nothing
    # raises.  PMMH and particle Gibbs run a joint model of the drawn model
    # and a second one on its alphabet and horizon.
    from pmcmc_lab import csmc
    from pmcmc_lab.csmc import icsmc_sampler
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler

    try:
        x0 = data.draw(st.sampled_from(exact_target(m).paths))
    except ZeroPotential:  # no path of positive mass to start from
        assume(False)
    jm = build_joint_model([0, 1], [0.5, 0.5], [m, data.draw(sparse_models(m.n_states, m.T))])
    samplers = (
        lambda R: icsmc_sampler(m, N, x0, R),
        lambda R: pimh_sampler(m, N, R, seed),
        lambda R: pmmh_sampler(jm, N, [[0.5, 0.5], [0.5, 0.5]], R, seed),
        lambda R: pgibbs_sampler(jm, N, x0, 0, R),
    )
    for make in samplers:
        sampler = make(1)
        assert sampler.table.work <= csmc._TABLE_WORK
        want, error = _step_by_step(sampler, 40, seed)
        assert error is None
        _assert_same_states(list(run_chain(sampler, 40, seed)), want)
        _assert_same_states(_row_0(run_chain(make(3), 40, seed)), want)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("prior, q", [
    ([0.4, 0.6], [[0.5, 0.5], [0.0, 1.0]]),
    ([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]]),
])
def test_pmmh_zero_prior_or_proposal_entry_rejects_without_a_warning(prior, q, R):
    # A zero entry weighs a proposal at log 0 = -inf: the move to the second
    # value is rejected, and numpy warns of no divide by zero.
    from pmcmc_lab.pgibbs import pmmh_sampler

    jm = build_joint_model(["a", "b"], prior, joint_two_time().models)
    states = list(run_chain(pmmh_sampler(jm, 3, q, R, 5), 40, 5))
    assert all((s.thetas == 0).all() for s in states)
    assert any(s.accepted.any() for s in states)


@pytest.mark.parametrize("n_steps", [2.5, 3.0])
def test_chains_refuse_a_step_count_that_is_not_an_integer(n_steps):
    from pmcmc_lab.pgibbs import pimh_sampler

    sampler = pimh_sampler(model_a(), 2, 1, 0)
    with pytest.raises(TraceTooShort):
        run_chain(sampler, n_steps, 0)
    with pytest.raises(TraceTooShort):
        icsmc_chain(model_a(), 2, Trajectory((0, 0)), n_steps, 0)
    assert len(list(run_chain(sampler, np.int64(2), 0))) == 2


@pytest.mark.parametrize("R", [1, 3, 23])
def test_pmmh_starts_at_the_first_parameter_of_positive_prior_mass(monkeypatch, R):
    # With no prior mass on the first value the chains start at the second,
    # with a start pass under its model, and stay there: from it the
    # proposal is a point mass on itself.  The start runs on the sampler's
    # plan of the joint tables, in row blocks of 7 rows (23 rows take 4),
    # and equals one pass of the second model alone, row for row.
    from pmcmc_lab import csmc
    from pmcmc_lab.pgibbs import _start_pass, pmmh_sampler
    from pmcmc_lab.smc_core import _PassPlan, particle_pass

    jm = build_joint_model(["a", "b"], [0.0, 1.0], joint_two_time().models)
    monkeypatch.setattr(csmc, "_ROW_BLOCK", 7 * 3 * jm.T)
    want = particle_pass(jm.models[1].tables, 3, 5, rows=R)
    rng = _ReadCounter(5)
    sampler = pmmh_sampler(jm, 3, [[0.5, 0.5], [0.0, 1.0]], R, rng)
    assert rng.block == -(-R // 7) * (len(sampler.reads) - 2)  # the pass's reads: no parameter or accept block
    assert sampler.start.thetas.tolist() == [1] * R
    assert np.array_equal(sampler.start.log_gammas, want.log_gamma())
    start = _start_pass(_PassPlan(jm.tables, 3, R), 5, np.ones(R, dtype=int))
    assert np.array_equal(start.paths, want.paths())
    states = list(run_chain(sampler, 40, 5))
    assert all((s.thetas == 1).all() for s in states)
    assert any(s.accepted.any() for s in states)


class _ReadCounter(SubstreamRng):
    """Counts the uniform reads of each path: numpy's generator, one block
    at a time (``_block``), or one vectorised read over steps (``_blocks``)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.block = self.blocks = 0

    def _block(self, counter, shape):
        self.block += 1
        return super()._block(counter, shape)

    def _blocks(self, reads, bases):
        self.blocks += 1
        return super()._blocks(reads, bases)


@pytest.mark.parametrize("kind, N, span", [
    # steps per chunk _CHUNK // (rows N T); a span is _CHUNK // (N T) steps
    # rounded down to whole chunks, at least one.
    ("icsmc", 4, 1024),   # 4 rows of 8: chunks of 256 steps
    ("pimh", 4, 682),     # 1 row of 12: one chunk of 682 steps
    ("pimh", 40, 68),     # 1 row of 120: one chunk of 68 steps
    ("pmmh", 4, 1024),    # 2 rows of 8: chunks of 512 steps
    ("pgibbs", 3, 1364),  # 4 rows of 6: chunks of 341 steps
    # Blocks of 63 and 64 uniforms read the same way.
    ("icsmc", 64, 64),    # 4 rows of 128: chunks of 16 steps
    ("pimh", 64, 42),     # 1 row of 192: one chunk of 42 steps
])
def test_a_one_row_table_chain_reads_its_uniforms_once_per_span(kind, N, span):
    # Over more than two spans, the chain's uniforms come from one read per
    # span: one vectorised Philox evaluation, with no block from numpy's
    # generator.  The states are the hand loop's.
    from pmcmc_lab.csmc import icsmc_sampler

    sampler = icsmc_sampler(model_a(), N, (1, 0), 1) if kind == "icsmc" else _one_row_sampler(kind, N)
    n_steps = 2 * span + 5
    rng = _ReadCounter(5)
    got = list(run_chain(sampler, n_steps, rng))
    assert (rng.blocks, rng.block) == (3, 0)
    want, error = _step_by_step(sampler, n_steps, 5)
    assert error is None
    _assert_same_states(got, want)


@pytest.mark.parametrize("kind, rows, reads", [
    ("icsmc", 2, 4), ("pimh", 3, 7), ("pmmh", 2, 6), ("pgibbs", 2, 5),  # R rows: 2T pass blocks and the sampler's
    ("icsmc", 160, 4), ("pimh", 400, 7), ("pmmh", 300, 6), ("pgibbs", 200, 5),  # one row past the table work
])
def test_chains_off_the_table_route_read_through_the_generator(kind, rows, reads):
    from fixtures import model_b
    from pmcmc_lab.csmc import icsmc_sampler
    from pmcmc_lab.pgibbs import pgibbs_sampler, pimh_sampler, pmmh_sampler

    R, N = (rows, 4) if rows < 10 else (1, rows)
    jm = joint_two_time()
    sampler = {
        "icsmc": lambda: icsmc_sampler(model_a(), N, (1, 0), R),
        "pimh": lambda: pimh_sampler(model_b(), N, R, 17),
        "pmmh": lambda: pmmh_sampler(jm, N, [[0.3, 0.7], [0.6, 0.4]], R, 17),
        "pgibbs": lambda: pgibbs_sampler(jm, N, (0, 1), 1, R),
    }[kind]()
    rng = _ReadCounter(5)
    assert len(list(run_chain(sampler, 12, rng))) == 12
    assert (rng.blocks, rng.block) == (0, 12 * reads)


def test_a_pmmh_table_that_dies_in_some_chunks_walks_every_chunk_once(monkeypatch):
    # Under the second model a pass of 256 particles dies at time 2 with
    # probability 0.995^256 (about 0.28), so the table of a chunk of 8 steps
    # has a dead row in most chunks, not in all.  The chain never proposes
    # that model: a dead row estimates 0, and the walk goes on through every
    # chunk, with no step run a second time.  Under the first model a few
    # rare states of weight 1000 make the estimate, and so the accept step,
    # depend on the state a chunk starts from (about half the moves are
    # rejected).
    from pmcmc_lab import csmc
    from pmcmc_lab.pgibbs import pmmh_sampler
    from pmcmc_lab.smc_core import _PassPlan

    rare = build_discrete_model([0, 1], [0.998, 0.002], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 1000.0], [1.0, 3.0]])
    dying = build_discrete_model([0, 1], [0.5, 0.5], [[[0.005, 0.995], [0.005, 0.995]]], [[1.0, 1.0], [1.0, 0.0]])
    jm = build_joint_model([0, 1], [0.5, 0.5], [rare, dying])
    sampler = pmmh_sampler(jm, 256, [[1.0, 0.0], [0.5, 0.5]], 1, 4)
    assert csmc._CHUNK // sampler.table.work == 8
    dead, run_blocks = [], _PassPlan.run_blocks

    def recorded(plan, blocks, R, *args, **kwargs):
        p = run_blocks(plan, blocks, R, *args, **kwargs)
        dead.append(bool(np.isneginf(p.log_gamma()).any()))
        return p

    monkeypatch.setattr(_PassPlan, "run_blocks", recorded)
    counted, bases = _counted_bases(sampler)
    rng = _ReadCounter(4)
    got = list(run_chain(counted, 160, rng))
    assert bases == [] and len(dead) == 20 and any(dead) and not all(dead)
    want, error = _step_by_step(sampler, 160, 4)
    assert error is None
    _assert_same_states(got, want)
    assert not all(s.accepted.all() for s in got)
    # Spans of 16 steps, each read once, and nothing through numpy's generator.
    assert (rng.blocks, rng.block) == (10, 0)
