import itertools

import numpy as np
import pytest

from fixtures import model, model_a, model_unit, pinned_pass, target
from pmcmc_lab import SubstreamRng, multinomial_resample, run_smc, select_path
from pmcmc_lab.errors import (
    AllWeightsZero,
    DegenerateEstimate,
    NegativePotential,
    OutcomeSpaceTooLarge,
    TooFewParticles,
)
from pmcmc_lab.exact_oracle import (
    enumerate_conditional_outcomes,
    exact_gamma_hat_expectation,
)
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.replicated import smc_replicated
from pmcmc_lab.smc_core import BatchedPass, PassTables, _draw_moves, categorical, categorical_cdf, particle_pass


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


class _ZeroUniform:
    """Stands in for a generator whose uniforms are exactly zero."""

    def random(self, count):
        return np.zeros(count)


def _draw_table(rows):
    """Transition rows ``rows`` (M, S), normalised, as the first M table rows
    of the two-time models that carry them, S rows per model: the stored
    laws (M, S) and the cumulative row and column tables of the move."""
    M, S = rows.shape
    law = rows / rows.sum(axis=1, keepdims=True)
    padded = np.concatenate([law, np.tile(law[:1], (-M % S, 1))])
    models = [
        build_discrete_model(list(range(S)), law[0], [block], [np.ones(S)] * 2)
        for block in padded.reshape(-1, S, S)
    ]
    tables = PassTables.build(models)
    laws = np.concatenate([m.transitions[0] for m in models])[:M]
    return laws, tables.move_cdf[0], tables.move_cols[0]


@pytest.mark.parametrize("gen", [_ZeroUniform(), _TopUniform()])
@pytest.mark.parametrize(
    "weights",
    [
        [0.1] * 10 + [0.0],
        [0.0, 1.0],
        [0.0, 0.0, 2.0, 1.0],
        [1.0, 0.0, 0.0, 3.0],
        [2.0, 0.0, 5.0, 0.0, 0.0],
        [0.0] * 20 + [1.0, 0.0, 3.0] + [0.0] * 20,
        [0.0] * 5 + [1.0] + [0.0] * 9 + [2.0, 0.0],
        [0.0, 3.0] + [0.0] * 30 + [1.0],
        [0.0] * 100 + [1.0] + [0.0] * 100 + [2.0] + [0.0] * 54,
    ],
)
def test_categorical_never_selects_zero_weight(weights, gen):
    # Leading, interior and trailing zero weights under the extreme uniforms
    # 0.0 and nextafter(1, 0); rows drawn several times each (the resampling
    # shape), one distribution per draw (the move shape), and enough draws
    # for every search strategy of categorical_cdf and the table draw.
    w = np.array([weights, weights[::-1]])
    cdf = w.cumsum(axis=1)
    many = categorical(w, gen.random((2, 4)))
    single = categorical(w[:, None, :], gen.random((2, 1, 1)))[:, :, 0]
    outs = [many, single, multinomial_resample(weights, 3, gen)[None]]
    for count in (1, 5, 3000):
        outs.append(categorical_cdf(cdf, gen.random((2, count))))
    _, move_cdf, move_cols = _draw_table(w)
    for count in (1, 5, 3000):
        rows = np.repeat([[0], [1]], count, axis=1)
        outs.append(_draw_moves(move_cdf, move_cols, rows, gen.random((2, count))))
    for out in outs:
        assert np.all(np.take_along_axis(w[: len(out)], out.astype(int), axis=1) > 0)


def test_resample_negative_weights_rejected():
    with pytest.raises(NegativePotential):
        multinomial_resample([1.0, -0.5], 1, SubstreamRng(0).stream(0))


def test_run_smc_single_particle_is_a_chain_draw():
    m = model("B")
    system = run_smc(m, 1, 7)
    assert system.states.shape[2] == 1
    assert all(row == (0,) for row in system.ancestors[:, 0])
    assert system.final[0] == 0


def test_run_smc_reproducible_and_ancestors_valid():
    m = model_a()
    s1 = run_smc(m, 16, 42)
    s2 = run_smc(m, 16, 42)
    assert np.array_equal(s1.states, s2.states) and np.array_equal(s1.ancestors, s2.ancestors)
    assert s1.final[0] == s2.final[0]
    assert all(0 <= a < 16 for row in s1.ancestors[:, 0] for a in row)


def test_log_potentials_recompute_exactly():
    m = model("D")
    s = run_smc(m, 8, 3)
    T, _, N = s.states.shape
    for t in range(1, T + 1):
        for i in range(N):
            assert s.log_potentials[t - 1, 0, i] == m.log_potential(t, s.states[t - 1, 0, i])


def test_ancestor_uniformity_under_unit_weights():
    # With unit weights every ancestor index is uniform; per-cell 6-sigma test
    # over the ancestors of many independent runs.
    m = model_unit(2, 2)
    N, runs = 4, 2000
    rng = SubstreamRng(11)
    counts = np.zeros(N)
    for base in range(runs):
        system = run_smc(m, N, rng, base=base)
        for a in system.ancestors[0, 0]:
            counts[a] += 1
    draws = runs * N
    p = 1.0 / N
    sd = np.sqrt(p * (1 - p) * draws)
    assert np.max(np.abs(counts - draws * p)) < 6 * sd


def test_gamma_hat_constant_weights():
    m = model_unit(3, 2)
    s = run_smc(m, 5, 9)
    assert np.exp(s.log_gamma()[0]) == pytest.approx(1.0, rel=1e-12)


def test_gamma_hat_single_time_mean():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 3.0]])
    rng = SubstreamRng(1)
    # Force the two particles into both states by searching seeds.
    for seed in range(50):
        s = run_smc(m, 2, seed)
        if set(s.states[0, 0].tolist()) == {0, 1}:
            assert np.exp(s.log_gamma()[0]) == pytest.approx(2.0, rel=1e-14)
            break
    else:  # pragma: no cover
        pytest.fail("no seed produced both states")


def test_gamma_hat_log_space_matches_direct_product():
    m = model("E")
    for seed in range(5):
        s = run_smc(m, 6, seed)
        direct = 1.0
        for t in range(1, len(s.states) + 1):
            direct *= np.mean([m.potential(t, z) for z in s.states[t - 1, 0]])
        assert np.exp(s.log_gamma()[0]) == pytest.approx(direct, rel=1e-12)


def test_gamma_hat_degenerate_slice():
    s = BatchedPass(
        states=np.zeros((1, 1, 2), dtype=int),
        ancestors=np.empty((0, 1, 2), dtype=int),
        weights=np.array([[[0.0, 0.0]]]),
        final=np.zeros(1, dtype=int),
    )
    with pytest.raises(DegenerateEstimate):
        s.log_gamma()


def test_all_weights_zero_carries_time_index():
    # State 1 carries zero weight at time 1; a run whose particles all start
    # there must fail with the offending time attached, and so must the
    # exact expectation of the estimate, as that run has probability 1/8.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [1.0, 1.0]]
    )
    with pytest.raises(AllWeightsZero) as err:
        exact_gamma_hat_expectation(m, 3)
    assert err.value.time == 1
    for seed in range(200):
        system = None
        try:
            system = run_smc(m, 3, seed)
        except AllWeightsZero as err:
            assert err.time == 1
            return
        assert 0 in system.states[0]
    pytest.fail("no seed stranded every particle in the zero-weight state")


# Model E at N = 12 and 20 has 3^N particle configurations, but only
# C(N+2, 2) histograms: 91 and 231.
@pytest.mark.parametrize(
    "name,N", [("A", 2), ("A", 5), ("B", 2), ("B", 5), ("D", 2), ("unit31", 5), ("E", 12), ("E", 20)]
)
def test_estimator_unbiased_by_exact_enumeration(name, N):
    e = exact_gamma_hat_expectation(model(name), N)
    assert e == pytest.approx(target(name).gamma_t, rel=1e-10)


def test_estimator_expectation_guard_counts_the_gathered_entries():
    # Model A at N=3: H = C(4, 3) = 4 histograms over S = 2 states.  The
    # time-1 law builds S (N+1) = 8 powers and H = 4 entries, the one
    # transition H S (N+1) = 32 powers and the H^2 = 16 entries of its law.
    exact_gamma_hat_expectation(model("A"), 3, guard=60)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_gamma_hat_expectation(model("A"), 3, guard=59)


def test_pass_without_particles_is_a_typed_error():
    with pytest.raises(TooFewParticles):
        particle_pass(model_a().tables, 0, 0)
    with pytest.raises(TooFewParticles):
        run_smc(model_a(), 0, 0)
    with pytest.raises(TooFewParticles):
        exact_gamma_hat_expectation(model_a(), 0)


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


@pytest.mark.parametrize("K", [1, 2, 3, 16, 17, 32, 33, 64, 65, 100, 256])
def test_categorical_is_a_row_wise_searchsorted(K):
    # Few draws are compared in one pass (one row searched in one call),
    # many are counted sum by sum or bisected; every strategy, the raw-weight
    # wrapper and the table draw must equal searchsorted(side="right") on the
    # raw cumulative sums, capped.
    gen = np.random.default_rng(K)
    w = gen.random((40, K)) * (gen.random((40, K)) < 0.6)
    w[:, gen.integers(K)] += 0.5
    laws, move_cdf, move_cols = _draw_table(w)
    for count in (1, 9, 400):
        u = gen.random((40, count))
        u[:, :2] = [0.0, np.nextafter(1.0, 0.0)][:count]
        got = categorical(w, u)
        assert np.array_equal(categorical_cdf(w.cumsum(axis=1), u), got)
        assert got.dtype.kind == "i"
        # The table draw reads one row per uniform: row r for draw (r, k).
        rows = np.repeat(np.arange(40)[:, None], count, axis=1)
        table = _draw_moves(move_cdf, move_cols, rows, u)
        # One row of sums against one row of uniforms, (1, K) and (1, count).
        one_row = np.concatenate([categorical_cdf(wr[None].cumsum(axis=1), ur[None]) for wr, ur in zip(w, u)])
        for out, weights in ((got, w), (table, laws), (one_row, w)):
            for row, (wr, ur) in enumerate(zip(weights, u)):
                cdf = np.cumsum(wr)
                want = np.minimum(np.searchsorted(cdf, ur * cdf[-1], side="right"), K - 1)
                assert list(out[row]) == list(want)


# At N = 65 and 100 one row searches its 64 or 99 inner sums in one call,
# while 7 rows count them one by one or bisect.
@pytest.mark.parametrize("name,N", [("A", 1), ("A", 4), ("B", 2), ("E", 5), ("A", 65), ("E", 100)])
def test_run_smc_is_row_zero_of_the_batched_pass(name, N):
    m = model(name)
    for base in (0, 3):
        paths, lg = smc_replicated(m, N, 7, 11, base=base)
        s = run_smc(m, N, 11, base=base)
        assert select_path(s).points == tuple(int(v) for v in paths[0])
        assert s.log_gamma()[0] == lg[0]


class _CountingRng(SubstreamRng):
    """Counts the substreams opened, as generators or as uniform blocks."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def stream(self, *coords):
        self.calls += 1
        return super().stream(*coords)

    def uniforms(self, *coords, shape):
        self.calls += 1
        return super().uniforms(*coords, shape=shape)


def test_stream_calls_per_pass_do_not_grow_with_particles():
    m = model("E")
    calls = []
    for N in (2, 64):
        rng = _CountingRng(3)
        run_smc(m, N, rng)
        pinned_pass(m, N, (0, 0, 0), rng, base=1)
        calls.append(rng.calls)
    assert calls[0] == calls[1] == 2 * 2 * m.T


def test_system_csv_round_trip(tmp_path):
    m = model_a()
    s = run_smc(m, 4, 1)
    path = tmp_path / "system.csv"
    s.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,t,i,state,ancestor,logG"
    assert len(lines) == 1 + s.states.size
