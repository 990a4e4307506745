import math

import numpy as np
import pytest

from fixtures import model, model_a, model_t1, pn_chain, target
from pmcmc_lab import (
    epsilon_bounded,
    epsilon_isir,
    epsilon_mixing,
    gamma_hat_sup,
    minorized_chain_bounds,
    pimh_epsilon,
    tuning_c_star,
)
from pmcmc_lab.bounds import (
    BoundSource,
    dirichlet_sandwich,
    lambert_w,
    mixing_floor,
    report_rows,
)
from pmcmc_lab.errors import ConstantOutOfRange, EpsilonOutOfRange, TooFewParticles
from pmcmc_lab.exact_oracle import exact_minorization
from pmcmc_lab.fk_model import build_discrete_model, sup_potentials


def test_report_consistency_fields():
    r = minorized_chain_bounds(0.25)
    assert r.tv_rate == pytest.approx(0.75)
    assert r.variance_upper_factor == pytest.approx(7.0)
    assert r.variance_lower_factor == pytest.approx(0.25 / 1.75)
    assert r.source is BoundSource.SUPPLIED


def test_too_few_particles_is_a_typed_error():
    m = model_a()
    for bound in (
        lambda: epsilon_bounded(m, 1),
        lambda: epsilon_mixing(1.5, 1, 2),
        lambda: epsilon_isir(1.5, 1),
        lambda: gamma_hat_sup(m, 0),
    ):
        with pytest.raises(TooFewParticles):
            bound()


def test_out_of_range_constants_are_typed_errors():
    for bound in (
        lambda: epsilon_mixing(0.5, 3, 2),
        lambda: tuning_c_star(0.5),
        lambda: epsilon_isir(0.5, 3),
        lambda: pimh_epsilon(2.0, 1.0),
        lambda: pimh_epsilon(0.0, 1.0),
        lambda: mixing_floor(0.5, 1.3),
        lambda: mixing_floor(1.2, 0.0),
        lambda: mixing_floor(1.2, -1.0),
        lambda: epsilon_mixing(1.2, 3, 0),
        lambda: epsilon_mixing(1.2, 3, -1),
        # NaN fails every range check.
        lambda: epsilon_mixing(math.nan, 3, 2),
        lambda: tuning_c_star(math.nan),
        lambda: epsilon_isir(math.nan, 3),
        lambda: mixing_floor(math.nan, 1.3),
        lambda: mixing_floor(1.2, math.nan),
        # The principal branch starts at -1/e.
        lambda: lambert_w(-1.0),
        lambda: lambert_w(math.nan),
    ):
        with pytest.raises(ConstantOutOfRange):
            bound()


def test_report_rejects_out_of_range():
    with pytest.raises(EpsilonOutOfRange):
        minorized_chain_bounds(0.0)
    with pytest.raises(EpsilonOutOfRange):
        minorized_chain_bounds(1.5)


def test_epsilon_one_means_exact_sampling():
    r = minorized_chain_bounds(1.0)
    assert r.tv_rate == 0.0
    assert r.variance_upper_factor == pytest.approx(1.0)
    assert r.variance_lower_factor == pytest.approx(1.0)


def test_dirichlet_sandwich_values():
    assert dirichlet_sandwich(0.5) == (0.5, 1.5)
    assert minorized_chain_bounds(0.464).variance_upper_factor == pytest.approx(
        2 / 0.464 - 1
    )


def test_bounded_constant_flat_weights():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.6, 0.4], [0.3, 0.7]]], [[1, 1], [2, 2]]
    )
    for N in (2, 5, 11):
        assert epsilon_bounded(m, N).epsilon == pytest.approx((1 - 1 / N) ** 2)


def test_bounded_constant_canonical_value():
    assert epsilon_bounded(model_a(), 10).epsilon == pytest.approx(0.620872641509434)


def test_bounded_constant_increases_to_one():
    m = model_a()
    values = [epsilon_bounded(m, 2**k).epsilon for k in range(1, 15)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999


def test_rate_deficit_times_particles_stays_bounded():
    # N (1 - eps_N) converges; its limit is T (2 prod(sup G)/gamma - 1).
    m = model_a()
    ratio = float(np.prod(sup_potentials(m))) / target("A").gamma_t
    limit = m.T * (2 * ratio - 1)
    values = [2**k * (1 - epsilon_bounded(m, 2**k).epsilon) for k in range(1, 15)]
    assert all(v <= limit * (1 + 1e-9) for v in values)
    assert values[-1] == pytest.approx(limit, rel=1e-2)


def test_mixing_constant_flat_alpha():
    for N in (2, 4, 9):
        assert epsilon_mixing(1.0, N, 3).epsilon == pytest.approx((1 - 1 / N) ** 3)


def test_mixing_constant_canonical_value():
    eps = epsilon_mixing(40 / 26, 32, 2).epsilon
    assert eps == pytest.approx((0.96875 / (1 + 2 * (40 / 26 - 1) / 32)) ** 2)
    assert eps == pytest.approx(0.8784, abs=5e-4)


def test_mixing_floor_under_linear_schedule():
    for alpha in (1.0, 1.5, 2.0):
        for C in (1, 2, 5):
            for T in range(1, 51):
                N = C * T + 1
                eps = epsilon_mixing(alpha, N, T).epsilon
                assert eps >= mixing_floor(alpha, C)


def test_mixing_monotone_in_particles():
    values = [epsilon_mixing(1.7, n, 4).epsilon for n in range(2, 200)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_isir_flat_weight():
    for N in (2, 3, 10):
        assert epsilon_isir(1.0, N).epsilon == pytest.approx((N - 1) / N)


def test_isir_small_case():
    assert epsilon_isir(2.0, 2).epsilon == pytest.approx(0.25)


def test_isir_variance_factor_identity():
    # 2/eps - 1 must equal the direct form 2(1 + (2G-1)/(N-1)) - 1.
    for g_bar in (1.0, 1.5, 2.0, 5.0, 20.0):
        for N in (2, 3, 8, 33):
            r = epsilon_isir(g_bar, N)
            direct = 2 * (1 + (2 * g_bar - 1) / (N - 1)) - 1
            assert r.variance_upper_factor == pytest.approx(direct, rel=1e-14)


def test_single_time_bounded_equals_isir():
    m = model_t1()
    gamma = target("t1").gamma_t
    g_bar = float(sup_potentials(m)[0]) / gamma
    for N in (2, 3, 7, 40):
        a = epsilon_bounded(m, N).epsilon
        b = epsilon_isir(g_bar, N).epsilon
        assert a == pytest.approx(b, rel=1e-14)


def test_lambert_w_residual():
    x = -1 / (2 * math.e)
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) < 1e-14
    assert w == pytest.approx(-0.2320, abs=1e-4)
    assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w(1e6) == pytest.approx(11.38335808614, rel=1e-11)


@pytest.mark.parametrize("x", [-1 / math.e, 1e-12, 1.0, math.e, 1e6, 1e300])
def test_lambert_w_over_its_domain(x):
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) < 1e-14 * max(1.0, abs(x))
    assert w >= -1.0


def test_tuning_constants():
    c1, eps1 = tuning_c_star(1.0)
    assert 1.301 <= c1 <= 1.303
    assert 0.4635 <= eps1 <= 0.4645
    c2, eps2 = tuning_c_star(2.0)
    assert c2 == pytest.approx(3 * c1, rel=1e-12)
    assert eps2 == pytest.approx(eps1, rel=1e-12)


def test_estimate_sup_flat_weights():
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.6, 0.4], [0.3, 0.7]]], [[2, 2], [3, 3]]
    )
    for N in (1, 2, 7):
        assert gamma_hat_sup(m, N) == pytest.approx(6.0)
        assert pimh_epsilon(6.0, gamma_hat_sup(m, N)).epsilon == pytest.approx(1.0)


def test_estimate_sup_canonical():
    m = model_a()
    for N in (1, 2, 8, 100):
        assert gamma_hat_sup(m, N) == pytest.approx(6.0)
    r = pimh_epsilon(target("A").gamma_t, 6.0)
    assert r.epsilon == pytest.approx(3.25 / 6)


def test_estimate_sup_depends_on_particles_when_bridging_pays():
    # Best weights sit on states that do not communicate: keeping one bridge
    # particle behind trades current mean for future reach, so the supremum
    # grows with the particle count.
    m = build_discrete_model(
        [0, 1, 2],
        [1 / 3, 1 / 3, 1 / 3],
        [[[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
        [[10.0, 1.0, 1.0], [1.0, 1.0, 10.0]],
    )
    v1 = gamma_hat_sup(m, 1)
    v4 = gamma_hat_sup(m, 4)
    assert v4 > v1
    assert v1 == pytest.approx(10.0)  # best single path: 10 then 1, or 1 then 10
    # N=4: three particles on the high state, one bridging through state 1,
    # then everyone moves to the high terminal state.
    assert v4 == pytest.approx(((3 * 10 + 1) / 4) * 10.0)


def test_minorization_bounds_hold_on_enumerated_kernels():
    from fixtures import oracle_grid

    for name, n in oracle_grid():
        m = model(name)
        exact = exact_minorization(pn_chain(name, n))
        assert exact >= epsilon_bounded(m, n).epsilon - 1e-12
        from pmcmc_lab import alpha_constant

        assert exact >= epsilon_mixing(alpha_constant(m), n, m.T).epsilon - 1e-12


def test_report_rows_shape():
    rows = report_rows([minorized_chain_bounds(0.5), epsilon_isir(2.0, 4)])
    assert rows[0][0] == "source"
    assert len(rows) == 3
    assert rows[2][0] == "ISIR"
