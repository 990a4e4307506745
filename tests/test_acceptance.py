"""Acceptance suite: every quantitative guarantee the package advertises,
checked at its stated tolerance.  One printed line per criterion."""

import itertools
import time

import numpy as np

from fixtures import (
    grid_model,
    joint_single_time,
    joint_two_time,
    model,
    model_a,
    oracle_grid,
    pn_chain,
    target,
)
from pmcmc_lab import (
    alpha_constant,
    beta_delta_constants,
    c2smc_expectation_bruteforce,
    c2smc_expectation_closed_form,
    check_theta_chain_identities,
    check_x_chain_orderings,
    epsilon_bounded,
    epsilon_mixing,
    exact_asymptotic_variance,
    exact_minorization,
    gamma_hat_sup,
    pimh_epsilon,
    rho_constants,
    spectral_summary,
    tuning_c_star,
    tv_curve,
)
from pmcmc_lab.bounds import mixing_floor
from pmcmc_lab.exact_oracle import (
    enumerate_conditional_outcomes,
    exact_pn_matrix,
    final_selection_weights,
    kernel_row,
)
from pmcmc_lab.harness import (
    ExperimentConfig,
    run_experiment,
    sticky_control_model,
    sticky_experiment,
    _sticky_set,
)
from pmcmc_lab.replicated import csmc_step_replicated


def _ok(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def test_criterion_01_closed_form_equals_enumeration():
    t0 = time.monotonic()
    worst = 0.0
    for T in (1, 2, 3):
        for S in (2, 3):
            m = grid_model(T, S)
            paths = list(itertools.product(range(S), repeat=T))
            for N in (2, 3):
                for x in paths:
                    for y in paths:
                        closed = c2smc_expectation_closed_form(m, N, x, y)
                        brute = c2smc_expectation_bruteforce(m, N, x, y)
                        worst = max(worst, abs(closed - brute) / abs(brute))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    _ok(1, f"closed form = enumeration (worst rel {worst:.1e}, {elapsed:.1f}s)")


def test_closed_form_equals_enumeration_beyond_three_particles():
    # At N = 2, 3 the free factor N - 2 is 0 or 1; here its powers are checked.
    worst = 0.0
    for T, S, N in ((1, 2, 4), (1, 3, 5), (2, 2, 4), (2, 2, 5), (2, 3, 4)):
        m = grid_model(T, S)
        paths = list(itertools.product(range(S), repeat=T))
        for x in paths:
            for y in paths:
                closed = c2smc_expectation_closed_form(m, N, x, y)
                brute = c2smc_expectation_bruteforce(m, N, x, y)
                worst = max(worst, abs(closed - brute) / abs(brute))
    assert worst <= 1e-10


def test_criterion_02_reversible_positive():
    worst_db = 0.0
    worst_eig = 0.0
    for name, n in oracle_grid():
        chain = pn_chain(name, n)
        flow = chain.stationary[:, None] * chain.kernel
        worst_db = max(worst_db, float(np.max(np.abs(flow - flow.T))))
        worst_eig = min(worst_eig, spectral_summary(chain).min_eigenvalue)
    assert worst_db <= 1e-10
    assert worst_eig >= -1e-10
    _ok(2, f"kernels reversible (max DB {worst_db:.1e}) and positive (min eig {worst_eig:.1e})")


def test_criterion_03_minorization_tv_variance():
    slack = 1e-9
    for name, n in oracle_grid():
        m = model(name)
        chain = pn_chain(name, n)
        eps = epsilon_bounded(m, n).epsilon
        assert exact_minorization(chain) >= eps - slack
        envelope = (1 - eps) ** np.arange(51)
        for i in range(chain.n_states):
            assert np.all(tv_curve(chain, i, 50) <= envelope + slack)
        pi = chain.stationary
        for i in range(chain.n_states):
            f = np.zeros(chain.n_states)
            f[i] = 1.0
            static = float((pi * f) @ f - (pi @ f) ** 2)
            v = exact_asymptotic_variance(chain, f)
            assert static - slack <= v <= (2 / eps - 1) * static + slack
    _ok(3, "exact minorization, TV curves and variance sandwich within bounds")


def test_criterion_04_linear_schedule_floor():
    for alpha in (1.0, 1.5, 2.0):
        for C in (1, 2, 5):
            floor = mixing_floor(alpha, C)
            for T in range(1, 51):
                N = C * T + 1
                assert epsilon_mixing(alpha, N, T).epsilon >= floor
    _ok(4, "linear particle schedule keeps the constant above exp(-(2a-1)/C)")


def _exact_epsilon(T: int, N: int) -> float:
    # At T=5, N=11 the count engine needs 3.4e6 law entries, within the
    # default guard.
    return exact_minorization(exact_pn_matrix(grid_model(T, 2), N))


def test_linear_schedule_keeps_exact_minorization():
    # N = C T + 1: the exact constant stays above the closed form, and the
    # closed form above its horizon-free floor.
    t0 = time.monotonic()
    exact = {}
    for C in (1, 2):
        for T in range(1, 6):
            N = C * T + 1
            alpha = alpha_constant(grid_model(T, 2))
            bound = epsilon_mixing(alpha, N, T).epsilon
            exact[C, T] = _exact_epsilon(T, N)
            assert exact[C, T] >= bound >= mixing_floor(alpha, C)
    levels = [exact[2, T] for T in range(2, 6)]
    assert np.allclose(levels, [0.626, 0.579, 0.549, 0.525], atol=1e-3)
    assert time.monotonic() - t0 < 5.0
    _ok(4, f"exact constant under N = 2T + 1 levels off: {np.round(levels, 3).tolist()}")


def test_fixed_particle_count_exact_minorization_falls_with_horizon():
    levels = [_exact_epsilon(T, 5) for T in range(1, 6)]
    assert all(a > b for a, b in zip(levels, levels[1:]))
    assert np.allclose(levels, [0.880, 0.626, 0.452, 0.317, 0.218], atol=1e-3)
    _ok(4, f"exact constant at N=5 falls with T: {np.round(levels, 3).tolist()}")


def test_criterion_05_tuning_constants():
    c_star, eps_star = tuning_c_star(1.0)
    assert 1.301 <= c_star <= 1.303
    assert 0.4635 <= eps_star <= 0.4645
    _ok(5, f"schedule optimum C*={c_star:.4f}, level {eps_star:.4f}")


def test_criterion_06_overshoot_below_spread_product():
    for name in ("A", "B", "C", "D", "E", "unit22", "t1"):
        m = model(name)
        alpha = alpha_constant(m)
        for lag in range(1, m.T + 1):
            mc = beta_delta_constants(m, lag)
            assert alpha <= mc.beta * mc.delta
    _ok(6, "overshoot constant below overlap x spread on every fixture and lag")


def test_criterion_07_selection_identity_and_pin_lineage():
    m = model_a()
    t = target("A")
    worst = 0.0
    for N in (2, 3):
        for i_vec in itertools.product(range(1, N), repeat=2):
            for x in t.paths:
                lhs = {}
                for prob, states, anc in enumerate_conditional_outcomes(m, N, [((0, 0), x)]):
                    w = final_selection_weights(m, states)
                    if anc[0][i_vec[1]] != i_vec[0]:
                        continue
                    y = (states[0][i_vec[0]], states[1][i_vec[1]])
                    lhs[y] = lhs.get(y, 0.0) + prob * float(w[i_vec[-1]])
                for y in t.paths:
                    e_inv = 0.0
                    for prob, states, _ in enumerate_conditional_outcomes(
                        m, N, [((0, 0), x), (i_vec, y)]
                    ):
                        gh = 1.0
                        for time_idx in (1, 2):
                            gh *= sum(m.potential(time_idx, z) for z in states[time_idx - 1]) / N
                        e_inv += prob / gh
                    rhs = t.gamma_t / N**2 * t.prob(y) * e_inv
                    worst = max(worst, abs(lhs.get(y, 0.0) - rhs))
    assert worst <= 1e-10

    worst_k = 0.0
    for N, lineages in [(2, [(0, 0), (1, 1), (0, 1), (1, 0)]), (3, [(2, 2), (1, 2)])]:
        for x in t.paths:
            base = kernel_row(m, N, x)
            for k in lineages:
                row = kernel_row(m, N, x, lineage=k)
                assert set(row) == set(base)
                worst_k = max(worst_k, max(abs(row[key] - base[key]) for key in base))
    assert worst_k <= 1e-12
    _ok(7, f"selection identity ({worst:.1e}) and pin-lineage invariance ({worst_k:.1e})")


def test_criterion_08_x_chain_orderings():
    for jm in (joint_single_time(), joint_two_time()):
        for n in (2, 3):
            report = check_x_chain_orderings(jm, n, slack=1e-9)
            assert all(v <= 1e-9 for _, v, _ in report)
            rho = rho_constants(jm, n)
            assert rho.rho_exact >= rho.rho_lower - 1e-12
    _ok(8, "Dirichlet/gap/variance orderings hold on both joint fixtures")


def test_criterion_09_theta_chain_identities():
    for jm in (joint_single_time(), joint_two_time()):
        for n in (2, 3):
            for j in range(jm.J):
                f = np.zeros(jm.J)
                f[j] = 1.0
                report = check_theta_chain_identities(jm, n, f)
                entries = dict((name, v) for name, v, _ in report)
                assert all(v <= 1e-9 for v in entries.values())
                assert entries["rho_vs_uniform_bound"] <= 1e-9
    _ok(9, "parameter-chain shift identity, variance split and rho bound hold")


def test_criterion_10_sticky_levels():
    t0 = time.monotonic()
    K, N = 16, 2
    rows = sticky_experiment(K, N)
    stays = [r[1] for r in rows]
    assert all(b > a for a, b in zip(stays, stays[1:]))
    assert stays[-1] > 0.9
    control = sticky_control_model(K)
    eps = epsilon_bounded(control, N).epsilon
    for n in range(1, K + 1):
        row = kernel_row(control, N, (n - 1, 2 * n - 1))
        stay = sum(p for path, p in row.items() if path in set(_sticky_set(n)))
        assert stay <= 1 - eps
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(10, f"sticky levels: stay({K})={stays[-1]:.3f} > 0.9, control capped ({elapsed:.1f}s)")


def test_criterion_11_independence_sampler_contrast():
    m = model_a()
    gamma = target("A").gamma_t
    sup_values = {gamma_hat_sup(m, n) for n in range(2, 1025)}
    assert len(sup_values) == 1
    check = pimh_epsilon(gamma, sup_values.pop())
    eps_prev = 0.0
    for n in range(2, 1025):
        eps = epsilon_bounded(m, n).epsilon
        assert eps > eps_prev
        eps_prev = eps
    assert eps_prev > 0.99
    _ok(
        11,
        f"independence-sampler constant fixed at {check.epsilon:.4f} while the "
        f"pinned-pass constant climbs to {eps_prev:.4f}",
    )


def test_criterion_12_monte_carlo_consistency(tmp_path):
    m = model_a()
    R = 1_000_000
    for x in [(0, 0), (1, 1)]:
        row = kernel_row(m, 2, x)
        paths = csmc_step_replicated(m, 2, np.tile(x, (R, 1)), 2718, base=1)
        freq = np.bincount(paths[:, 0] * 2 + paths[:, 1], minlength=4) / R
        for code, key in enumerate(itertools.product((0, 1), repeat=2)):
            p = row.get(key, 0.0)
            sd = np.sqrt(max(p * (1 - p), 1e-12) / R)
            assert abs(freq[code] - p) <= 5 * sd

    model_path = tmp_path / "model.json"
    m.save(model_path)
    bodies = []
    for d in ("r1", "r2"):
        cfg = ExperimentConfig(
            kind="icsmc", model_path=str(model_path), N=3, iterations=50,
            seed=1234, output_dir=str(tmp_path / d),
        )
        out = run_experiment(cfg)
        bodies.append((out / "trace_0.csv").read_bytes())
    assert bodies[0] == bodies[1]
    _ok(12, "simulation matches enumeration at 5 sigma; seeded runs byte-identical")
