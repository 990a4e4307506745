import numpy as np
import pytest

from fixtures import joint_single_time, joint_two_time, model_a
from pmcmc_lab import (
    SubstreamRng,
    Trajectory,
    build_joint_model,
    check_theta_chain_identities,
    check_x_chain_orderings,
    exact_gibbs_matrices,
    exact_phi_matrices,
    gamma_hat,
    pgibbs_step,
    pimh_step,
    pmmh_step,
    rho_constants,
    run_smc,
    spectral_summary,
)
from pmcmc_lab.csmc import select_path as select
from pmcmc_lab.errors import (
    AssertionFailure,
    ConstantOutOfRange,
    DegenerateB,
    DimensionMismatch,
    IndexOutOfRange,
    PmcmcLabError,
    TraceTooShort,
)
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.pgibbs import PimhState, PmmhState, RhoEstimate, enumerate_joint, theta_given_paths
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
    theta, x = pgibbs_step(jm, 3, Trajectory((0, 0)), 5)
    assert theta == 0
    assert len(x) == 2


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
    state = PimhState(path=select(s), log_gamma_hat=gamma_hat(s).log_value)
    for step in range(1, 30):
        state, accepted = pimh_step(m, 4, state, rng, base=step)
        assert accepted


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
    state = PmmhState(theta_idx=0, log_gamma_hat=gamma_hat(s).log_value)
    q = np.eye(2)
    for step in range(1, 20):
        state, _ = pmmh_step(jm, 4, q, state, rng, base=step)
        assert state.theta_idx == 0


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
        pgibbs_step(jm, 2, Trajectory((0, 1)), 1)
    with pytest.raises(PmcmcLabError, match="zero mass"):
        pgibbs_replicated(jm, 2, 4, 1, 1, (0, 1), 0)


@pytest.mark.parametrize("theta0", [-1, 2, 7])
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
    state = PimhState(path=select(s), log_gamma_hat=gamma_hat(s).log_value)
    for step in range(1, 16):
        state, _ = pimh_step(m, 3, state, rng, base=step)
    paths, _, lg = pimh_replicated(m, 3, 5, 15, 21)
    assert state.path.points == tuple(int(v) for v in paths[0])
    assert state.log_gamma_hat == lg[0]


def test_pgibbs_and_pmmh_steps_are_row_zero_of_their_batched_chains():
    jm = joint_two_time()
    theta, x = 0, Trajectory((0, 0))
    for step in range(1, 13):
        theta, x = pgibbs_step(jm, 3, x, 8, base=step)
    thetas, paths = pgibbs_replicated(jm, 3, 5, 12, 8, (0, 0), 0)
    assert (theta, x.points) == (int(thetas[0]), tuple(int(v) for v in paths[0]))

    q = np.full((2, 2), 0.5)
    rng = SubstreamRng(9)
    state = PmmhState(theta_idx=0, log_gamma_hat=gamma_hat(run_smc(jm.models[0], 4, rng)).log_value)
    for step in range(1, 13):
        state, _ = pmmh_step(jm, 4, q, state, rng, base=step)
    thetas, _ = pmmh_replicated(jm, 4, q, 5, 12, 9)
    assert state.theta_idx == int(thetas[0])
