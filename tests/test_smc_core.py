import itertools

import numpy as np
import pytest

from fixtures import model, model_a, model_unit, target
from pmcmc_lab import SubstreamRng, gamma_hat, multinomial_resample, run_smc
from pmcmc_lab.errors import AllWeightsZero, DegenerateEstimate
from pmcmc_lab.exact_oracle import (
    enumerate_conditional_outcomes,
    exact_gamma_hat_expectation,
)
from pmcmc_lab.fk_model import GenerativeFK, build_discrete_model
from pmcmc_lab.replicated import smc_replicated


def test_resample_degenerate_weight():
    rng = SubstreamRng(0).stream(0)
    out = multinomial_resample([1.0, 0.0, 0.0], 5, rng)
    assert list(out) == [0] * 5


def test_resample_all_zero_raises():
    with pytest.raises(AllWeightsZero):
        multinomial_resample([0.0, 0.0], 1, SubstreamRng(0).stream(0))


def test_resample_empirical_frequency():
    rng = SubstreamRng(123).stream(0)
    draws = multinomial_resample([1.0, 1.0], 10**6, rng)
    freq = np.mean(draws == 0)
    assert 0.498 <= freq <= 0.502


class _TopUniform:
    """Stands in for a generator whose uniforms sit just below one."""

    def random(self, count):
        return np.full(count, np.nextafter(1.0, 0.0))


def test_resample_never_selects_trailing_zero_weight():
    # Ten 0.1 weights sum to 1 - 2**-53 in floating point; a normalised CDF
    # then ends below the largest uniform and the clamp picks index 10.
    out = multinomial_resample([0.1] * 10 + [0.0], 3, _TopUniform())
    assert list(out) == [9, 9, 9]


def test_resample_negative_weights_rejected():
    with pytest.raises(ValueError):
        multinomial_resample([1.0, -0.5], 1, SubstreamRng(0).stream(0))


def test_run_smc_single_particle_is_a_chain_draw():
    m = model("B")
    system = run_smc(m, 1, 7)
    assert system.N == 1
    assert all(row == (0,) for row in system.ancestors)
    assert system.final_index == 0


def test_run_smc_reproducible_and_ancestors_valid():
    m = model_a()
    s1 = run_smc(m, 16, 42)
    s2 = run_smc(m, 16, 42)
    assert s1.states == s2.states and s1.ancestors == s2.ancestors
    assert s1.final_index == s2.final_index
    assert all(0 <= a < 16 for row in s1.ancestors for a in row)


def test_log_potentials_recompute_exactly():
    m = model("D")
    s = run_smc(m, 8, 3)
    for t in range(1, s.T + 1):
        for i in range(s.N):
            assert s.log_potentials[t - 1, i] == m.log_potential(t, s.states[t - 1][i])


def test_ancestor_uniformity_under_unit_weights():
    # With unit weights every ancestor index is uniform; per-cell 6-sigma test
    # over the ancestors of many independent runs.
    m = model_unit(2, 2)
    N, runs = 4, 2000
    rng = SubstreamRng(11)
    counts = np.zeros(N)
    for base in range(runs):
        system = run_smc(m, N, rng, base=base)
        for a in system.ancestors[0]:
            counts[a] += 1
    draws = runs * N
    p = 1.0 / N
    sd = np.sqrt(p * (1 - p) * draws)
    assert np.max(np.abs(counts - draws * p)) < 6 * sd


def test_gamma_hat_constant_weights():
    m = model_unit(3, 2)
    s = run_smc(m, 5, 9)
    assert gamma_hat(s).value == pytest.approx(1.0, rel=1e-12)


def test_gamma_hat_single_time_mean():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 3.0]])
    rng = SubstreamRng(1)
    # Force the two particles into both states by searching seeds.
    for seed in range(50):
        s = run_smc(m, 2, seed)
        if set(s.states[0]) == {0, 1}:
            assert gamma_hat(s).value == pytest.approx(2.0, rel=1e-14)
            break
    else:  # pragma: no cover
        pytest.fail("no seed produced both states")


def test_gamma_hat_log_space_matches_direct_product():
    m = model("E")
    for seed in range(5):
        s = run_smc(m, 6, seed)
        direct = 1.0
        for t in range(1, s.T + 1):
            direct *= np.mean([m.potential(t, z) for z in s.states[t - 1]])
        assert gamma_hat(s).value == pytest.approx(direct, rel=1e-12)


def test_gamma_hat_degenerate_slice():
    from pmcmc_lab.smc_core import ParticleSystem

    s = ParticleSystem(
        states=((0, 0),),
        ancestors=(),
        final_index=0,
        log_potentials=np.array([[-np.inf, -np.inf]]),
    )
    with pytest.raises(DegenerateEstimate):
        gamma_hat(s)


def test_all_weights_zero_carries_time_index():
    # State 1 carries zero weight at time 1; a run whose particles all start
    # there must fail with the offending time attached.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [1.0, 1.0]]
    )
    for seed in range(200):
        system = None
        try:
            system = run_smc(m, 3, seed)
        except AllWeightsZero as err:
            assert err.time == 1
            return
        assert 0 in system.states[0]
    pytest.fail("no seed stranded every particle in the zero-weight state")


@pytest.mark.parametrize("name,N", [("A", 2), ("A", 5), ("B", 2), ("B", 5), ("D", 2), ("unit31", 5)])
def test_estimator_unbiased_by_exact_enumeration(name, N):
    e = exact_gamma_hat_expectation(model(name), N)
    assert e == pytest.approx(target(name).gamma_t, rel=1e-10)


def test_estimator_unbiased_empirically():
    m = model_a()
    R = 100_000
    _, lg = smc_replicated(m, 64, R, 42)
    vals = np.exp(lg)
    z = (vals.mean() - 3.25) / (vals.std(ddof=1) / np.sqrt(R))
    assert abs(z) < 3.0


def _system_pmf(m, N, relabel=None):
    """Exact pmf of (states, ancestors, final) with optional slot relabeling."""
    out = {}
    perm = relabel or tuple(range(N))
    inv = {s: i for i, s in enumerate(perm)}
    for prob, states, anc in enumerate_conditional_outcomes(m, N, []):
        g = np.array([m.potential(m.T, z) for z in states[-1]])
        w = g / g.sum()
        for k in range(N):
            if w[k] == 0:
                continue
            new_states = tuple(tuple(row[perm[i]] for i in range(N)) for row in states)
            new_anc = tuple(
                tuple(inv[row[perm[i]]] for i in range(N)) for row in anc
            )
            key = (new_states, new_anc, inv[k])
            out[key] = out.get(key, 0.0) + prob * float(w[k])
    return out


@pytest.mark.parametrize("N", [2, 3])
def test_particle_relabeling_invariance(N):
    # Relabeling the particle slots leaves the full system law unchanged.
    m = model_a()
    base = _system_pmf(m, N)
    for perm in itertools.permutations(range(N)):
        if perm == tuple(range(N)):
            continue
        relabeled = _system_pmf(m, N, relabel=perm)
        assert set(relabeled) == set(base)
        worst = max(abs(relabeled[k] - base[k]) for k in base)
        assert worst < 1e-12


def test_generative_model_runs():
    rng_model = GenerativeFK(
        T=3,
        sample_initial=lambda rng: float(rng.normal()),
        sample_transition=lambda t, z, rng: 0.5 * z + float(rng.normal()),
        potential=lambda t, z: float(np.exp(-0.5 * z * z)),
    )
    s = run_smc(rng_model, 32, 5)
    assert s.T == 3 and s.N == 32
    assert np.isfinite(gamma_hat(s).log_value)


def test_system_csv_round_trip(tmp_path):
    m = model_a()
    s = run_smc(m, 4, 1)
    path = tmp_path / "system.csv"
    s.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,i,state,ancestor,logG"
    assert len(lines) == 1 + s.T * s.N
