import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import model, model_a, model_unit, pinned_pass, sparse_models, target
from pmcmc_lab import SubstreamRng, exact_target, multinomial_resample, run_smc, select_path
from pmcmc_lab.errors import (
    AllWeightsZero,
    IndexOutOfRange,
    NegativePotential,
    OutcomeSpaceTooLarge,
    TooFewParticles,
    ZeroPinnedPotential,
)
from pmcmc_lab.csmc import icsmc_sampler
from pmcmc_lab.exact_oracle import (
    enumerate_conditional_outcomes,
    exact_gamma_hat_expectation,
    kernel_row_multiset,
)
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.harness import sticky_example_model
from pmcmc_lab.histogram import histogram_entries
from pmcmc_lab.replicated import smc_replicated
from pmcmc_lab.pgibbs import _joint_mass, build_joint_model
from pmcmc_lab.smc_core import (
    BatchedPass,
    PassTables,
    _draw_moves,
    _fold,
    _PassPlan,
    _path_rows,
    categorical_cdf,
    particle_pass,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: kernel_row_multiset(m, 2, (0.5, 1.5)),
        lambda m: kernel_row_multiset(m, 2, (True, False)),
        lambda m: icsmc_sampler(m, 3, (0.7, 1.2), 1),
        lambda m: histogram_entries(m, 3, [((0.2, 1.9), (0, 1))]),
    ],
    ids=["float-tuple", "bool-tuple", "sampler-start", "entry-pair"],
)
def test_a_path_state_that_is_not_an_integer_is_refused(call):
    # Each was read as the path it truncates to, (0, 1) or (1, 0); arrays
    # and every pinning entry: test_c2smc.
    with pytest.raises(IndexOutOfRange, match="is not an integer"):
        call(model_a())


def test_integer_path_arrays_pass_as_they_are():
    rows = np.array([[0, 1], [1, 1]])
    assert _path_rows(rows, 2) is rows
    assert _path_rows(rows.astype(np.int8), 2).tolist() == rows.tolist()
    assert _path_rows([(np.int32(0), 1)], 2).tolist() == [[0, 1]]
    assert _path_rows([], 2).shape == (0, 2)


def test_resample_degenerate_weight():
    rng = SubstreamRng(0).stream(0)
    out = multinomial_resample([1.0, 0.0, 0.0], 5, rng)
    assert list(out) == [0] * 5


def test_resample_all_zero_raises():
    with pytest.raises(AllWeightsZero):
        multinomial_resample([0.0, 0.0], 1, SubstreamRng(0).stream(0))


def test_resample_zero_count_draws_nothing():
    out = multinomial_resample([0.5, 0.5], 0, SubstreamRng(0).stream(0))
    assert out.shape == (0,) and out.dtype.kind == "i"


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
    many = categorical_cdf(cdf, gen.random((2, 4)))
    single = categorical_cdf(cdf[:, None, :], gen.random((2, 1, 1)))[:, :, 0]
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
    # A time whose weights all vanish estimates 0: log -inf, with no numpy
    # divide warning (the suite fails on one).
    assert s.log_gamma().tolist() == [-np.inf]


def test_all_weights_zero_carries_time_index():
    # State 1 carries zero weight at time 1; a run whose particles all start
    # there must fail with the offending time attached.  The exact
    # expectation of the estimate counts that run (probability 1/8) as an
    # estimate of 0, and stays gamma_T = 0.5.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [1.0, 1.0]]
    )
    gamma = exact_target(m).gamma_t
    assert gamma == pytest.approx(0.5) and exact_gamma_hat_expectation(m, 3) == pytest.approx(gamma, rel=1e-12)
    for seed in range(200):
        system = None
        try:
            system = run_smc(m, 3, seed)
        except AllWeightsZero as err:
            assert err.time == 1
            return
        assert 0 in system.states[0]
    pytest.fail("no seed stranded every particle in the zero-weight state")


def test_all_weights_zero_reports_a_later_time():
    # Time 3 keeps each time-2 state and state 1 weighs nothing there, so a
    # run dies at time 3 exactly when both of its time-2 particles sit in
    # state 1 (one run in four), and the error must name time 3, not 1.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
        [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
    )
    times = []
    for seed in range(40):
        try:
            run_smc(m, 2, seed)
        except AllWeightsZero as err:
            times.append(err.time)
    assert times and set(times) == {3}


def test_particle_pass_refuses_a_pass_with_one_dying_row():
    # The model above at seed 0: of three rows only the last dies, at time
    # 3.  A plan's run estimates that row 0 (log -inf) and raises nothing;
    # the public pass raises and names the time, and its first row alone,
    # which lives, does not raise.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
        [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
    )
    lg = _PassPlan(m.tables, 2, 3).run(0).log_gamma()
    assert np.isfinite(lg[:2]).all() and lg[2] == -np.inf
    with pytest.raises(AllWeightsZero) as err:
        particle_pass(m.tables, 2, 0, rows=3)
    assert err.value.time == 3
    assert particle_pass(m.tables, 2, 0).log_gamma()[0] == lg[0]


# Model E at N = 12 and 20 has 3^N particle configurations, but only
# C(N+2, 2) histograms: 91 and 231.
@pytest.mark.parametrize(
    "name,N", [("A", 2), ("A", 5), ("B", 2), ("B", 5), ("D", 2), ("unit31", 5), ("E", 12), ("E", 20)]
)
def test_estimator_unbiased_by_exact_enumeration(name, N):
    e = exact_gamma_hat_expectation(model(name), N)
    assert e == pytest.approx(target(name).gamma_t, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(sparse_models(), st.integers(1, 4))
def test_property_estimator_unbiased_with_dead_passes(m, N):
    # On models with zero weights a pass can die; it estimates 0, and the
    # estimate stays unbiased.
    gamma = exact_target(m).gamma_t
    assert exact_gamma_hat_expectation(m, N) == pytest.approx(gamma, rel=1e-12)


def test_estimator_expectation_guard_counts_the_gathered_entries():
    # Model A at N=3: H = C(4, 3) = 4 histograms over S = 2 states.  The
    # time-1 law builds S (N+1) = 8 powers and H = 4 entries, the one
    # transition H S (N+1) = 32 powers and the H^2 = 16 entries of its law.
    exact_gamma_hat_expectation(model("A"), 3, guard=60)
    with pytest.raises(OutcomeSpaceTooLarge):
        exact_gamma_hat_expectation(model("A"), 3, guard=59)


def test_two_batched_pins_are_checked_against_zero_weights():
    # State 1 carries zero weight at time 2, so every pin is gathered and
    # checked, one (T, R) path per pin on R rows.
    m = build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 2.0], [1.0, 0.0]]
    )
    pins = [((0, 0), np.array([[0, 1, 0], [0, 0, 0]])), ((1, 1), np.array([[1, 1, 0], [0, 0, 0]]))]
    p = particle_pass(m.tables, 3, 0, rows=3, pins=pins)
    assert (p.states[:, :, 1] == pins[1][1]).all()
    pins[1] = ((1, 1), np.array([[1, 1, 0], [0, 1, 0]]))
    with pytest.raises(ZeroPinnedPotential):
        particle_pass(m.tables, 3, 0, rows=3, pins=pins)


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
    # One row of sums against one row of draws is searched in one call, more
    # rows are counted sum by sum or bisected, and K = 1 has no sum to count;
    # every strategy and the table draw must equal searchsorted(side="right")
    # on the raw cumulative sums, capped.
    gen = np.random.default_rng(K)
    w = gen.random((40, K)) * (gen.random((40, K)) < 0.6)
    w[:, gen.integers(K)] += 0.5
    laws, move_cdf, move_cols = _draw_table(w)
    for count in (1, 9, 400):
        u = gen.random((40, count))
        u[:, :2] = [0.0, np.nextafter(1.0, 0.0)][:count]
        got = categorical_cdf(w.cumsum(axis=1), u)
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


# numpy's add.reduce sums a row of fewer than 8 terms left to right and longer
# rows pairwise, so N = 1-9 covers both sides of the column rule of _fold.
@pytest.mark.parametrize("N", range(1, 10))
@pytest.mark.parametrize("R", [1, 2, 50])
def test_fold_gives_numpys_bits(N, R):
    gen = np.random.default_rng(100 * N + R)
    for T in (1, 3):
        w = gen.random((T, R, N)) * 10.0 ** gen.integers(-3, 4, (T, R, N))
        w *= gen.random((T, R, N)) < 0.7  # zero weights, whole rows too
        for a in (w, w[0]):  # the (T, R) totals and the (R, N) scans of a pass
            pairs = [
                (_fold(np.add, a), np.add.reduce(a, axis=-1)),
                (_fold(np.add, a, scan=True), a.cumsum(axis=-1)),
                (_fold(np.multiply, a), np.prod(a, axis=-1)),
            ]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_model(gen, S: int, T: int):
    def law():
        w = gen.random(S) * (gen.random(S) < 0.7)
        w[gen.integers(S)] += 0.5
        return w / w.sum()

    m = [[law() for _ in range(S)] for _ in range(T - 1)]
    g = [gen.random(S) * 10.0 ** gen.integers(-3, 4, S) for _ in range(T)]
    return build_discrete_model(list(range(S)), law(), m, g)


@pytest.mark.parametrize("T", [1, 3, 7, 9])
def test_joint_mass_is_the_product_over_time(T):
    # The products over time run left to right, as np.prod's do, on both
    # sides of the column rule and on one path as on many.
    gen = np.random.default_rng(T)
    jm = build_joint_model(["a", "b", "c"], [0.2, 0.3, 0.5], [_random_model(gen, 3, T) for _ in range(3)])
    m1, potentials, transitions = jm.mass_tables
    t = np.arange(T)
    for R in (1, 40):
        x = gen.integers(0, 3, (R, T))
        want = m1[:, x[:, 0]] * np.prod(potentials[:, t, x], axis=-1)
        if T > 1:
            want = want * np.prod(transitions[:, t[:-1], x[:, :-1], x[:, 1:]], axis=-1)
        want = jm.prior[:, None] * want
        assert np.array_equal(_joint_mass(jm, x).view(np.int64), want.view(np.int64))


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


# No draw of the one-state model has an inner sum; the move draws of the
# sticky model at K = 33 (67 states) search 66 sums, past _COLUMNS.
@pytest.mark.parametrize("name", ["one_state", "sticky33"])
@pytest.mark.parametrize("N", [1, 2, 5, 70])
@pytest.mark.parametrize("pinned", [False, True])
def test_passes_at_both_ends_of_the_alphabet(name, N, pinned):
    if name == "one_state":
        m = build_discrete_model([0], [1.0], [[[1.0]]], [[1.0], [2.0]])
    else:
        m = sticky_example_model(33)
    T = m.T
    pins = [((0,) * T, particle_pass(m.tables, N, 5).paths()[0])] if pinned else None
    one = particle_pass(m.tables, N, 9, base=2, pins=pins)
    many = particle_pass(m.tables, N, 9, base=2, rows=6, pins=pins)
    assert np.array_equal(many.paths()[0], one.paths()[0])
    assert many.log_gamma()[0] == one.log_gamma()[0]
    for p in (one, many):
        for t in range(1, T):
            parents = np.take_along_axis(p.states[t - 1], p.ancestors[t - 1], axis=-1)
            assert np.all(m.transitions[t - 1][parents, p.states[t]] > 0)


class _CountingRng(SubstreamRng):
    """Counts the substreams opened, as generators or as uniform blocks."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def stream(self, *coords):
        self.calls += 1
        return super().stream(*coords)

    def _block(self, counter, shape):
        # Every uniform block of a pass or a step is read here.
        self.calls += 1
        return super()._block(counter, shape)


def test_stream_calls_per_pass_do_not_grow_with_particles():
    m = model("E")
    calls = []
    for N in (2, 64):
        rng = _CountingRng(3)
        run_smc(m, N, rng)
        pinned_pass(m, N, (0, 0, 0), rng, base=1)
        calls.append(rng.calls)
    assert calls[0] == calls[1] == 2 * 2 * m.T


@pytest.mark.parametrize("lineages", [[], [(0, 0, 0)], [(2, 0, 1)]])
def test_a_plan_reuses_its_arrays_with_the_bits_of_a_fresh_plan(lineages):
    # A plan keeps one set of pass arrays, grown once to the most rows run;
    # a run on fewer rows after more, or on more again, writes every entry
    # a fresh plan's run would, pinned or free, with no stale value kept.
    from fixtures import model_b

    tables, rng = model_b().tables, SubstreamRng(3)
    plan = _PassPlan(tables, 4, 5, lineages)
    buffers = None
    for R, base in ((5, 1), (2, 2), (3, 3), (5, 4)):
        paths = [np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 0, 0]][:R]).T] * len(lineages)
        got = plan.run_blocks(rng.step_blocks(plan.reads, base, R), R, paths)
        buffers = buffers or plan._buffers
        assert all(a is b for a, b in zip(plan._buffers, buffers))
        want = _PassPlan(tables, 4, R, lineages).run(rng, base, paths)
        for name in ("states", "ancestors", "weights", "final", "totals"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.log_gamma(), want.log_gamma())
