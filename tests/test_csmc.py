import numpy as np
import pytest

from fixtures import counted_table_passes, model, model_a, model_t1, model_unit, pinned_pass, target
from pmcmc_lab import SubstreamRng, Trajectory, csmc, icsmc_chain, run_smc, select_path
from pmcmc_lab.csmc import conditional_system, icsmc_sampler, reference_pass, run_chain
from pmcmc_lab.errors import DimensionMismatch, IndexOutOfRange, TooFewParticles, TraceTooShort, ZeroPinnedPotential
from pmcmc_lab.exact_oracle import kernel_row, trace_lineage
from pmcmc_lab.fk_model import build_discrete_model
from pmcmc_lab.replicated import csmc_step_replicated, icsmc_replicated
from pmcmc_lab.bounds import epsilon_bounded
from pmcmc_lab.smc_core import PassTables


def test_pinned_particle_occupies_slot_zero():
    m = model("B")
    x = (0, 1, 0)
    s = pinned_pass(m, 4, x, 3)
    for t in range(m.T):
        assert s.states[t, 0, 0] == x[t]
    for row in s.ancestors[:, 0]:
        assert row[0] == 0


def test_single_particle_replays_the_pin():
    m = model_a()
    x = (1, 0)
    s = pinned_pass(m, 1, x, 5)
    assert select_path(s).points == x


def test_zero_weight_pin_rejected():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 0.0]])
    with pytest.raises(ZeroPinnedPotential):
        pinned_pass(m, 2, (1,), 0)


def test_free_particle_initial_law():
    # N=2, T=1: the free particle is a fresh draw from the initial law.
    m = model_t1()
    R = 20_000
    rng = SubstreamRng(17)
    counts = np.zeros(2)
    for step in range(R):
        s = pinned_pass(m, 2, (0,), rng, base=step)
        counts[s.states[0, 0, 1]] += 1
    sd = np.sqrt(0.25 / R)
    assert abs(counts[0] / R - 0.5) < 5 * sd


def test_select_path_traces_ancestors():
    m = model_a()
    s = pinned_pass(m, 3, (0, 0), 9)
    traj = select_path(s)
    i = traj.lineage
    assert [s.states[t, 0, i[t]] for t in range(m.T)] == list(traj.points)
    assert i[-1] == s.final[0]
    assert s.ancestors[0, 0, i[1]] == i[0]


@pytest.mark.parametrize("N", [1, 3, 17])
def test_select_path_is_the_oracle_lineage_of_replicate_zero(N):
    m = model("E")
    x = target("E").paths[-1]
    slot_ids = np.broadcast_to(np.arange(N), (m.T, N))
    lineage = (0, N - 1, N // 2)
    for base in range(12):
        passes = (
            run_smc(m, N, 31, base=base),
            pinned_pass(m, N, x, 31, base=base),
            conditional_system(m, N, [(lineage, x)], 31, base=base),
        )
        for p in passes:
            traj = select_path(p)
            final = int(p.final[0])
            assert traj.lineage == trace_lineage(slot_ids, p.ancestors[:, 0], final)
            assert traj.points == trace_lineage(p.states[:, 0], p.ancestors[:, 0], final)


def test_select_path_identity_on_pinned_lineage():
    m = model_a()
    x = (1, 1)
    for seed in range(30):
        s = pinned_pass(m, 2, x, seed)
        if s.final[0] == 0:
            assert select_path(s).points == x
            return
    pytest.fail("terminal selection never chose the pinned slot")


def test_empirical_step_matches_enumerated_kernel():
    m = model_a()
    R = 200_000
    x = (0, 1)
    paths = csmc_step_replicated(m, 3, np.tile(x, (R, 1)), 31, base=1)
    row = kernel_row(m, 3, x)
    codes = paths[:, 0] * 2 + paths[:, 1]
    freq = np.bincount(codes, minlength=4) / R
    for code, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        p = row.get((a, b), 0.0)
        sd = np.sqrt(p * (1 - p) / R)
        assert abs(freq[code] - p) < 5 * sd


def test_chain_trace_shapes_and_stats():
    m = model("B")
    x0 = Trajectory((0, 0, 0))
    trace = icsmc_chain(m, 4, x0, 25, 3)
    assert trace.states.shape == (26, 3)
    assert len(trace.log_gamma_hats) == 25
    assert all(0 <= r <= 3 for r in trace.retained)
    # retained counts recomputed from the states
    for j in range(25):
        expect = int(np.sum(trace.states[j] == trace.states[j + 1]))
        assert trace.retained[j] == expect


def test_chain_zero_iterations():
    m = model_a()
    trace = icsmc_chain(m, 3, Trajectory((0, 0)), 0, 1)
    assert trace.states.shape == (1, 2)
    assert trace.n_iterations == 0


def test_pin_is_checked_under_its_replicate_model():
    # State 1 at time 1 has zero weight under the second model only.
    first = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 2.0]])
    second = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 0.0]])
    tables = PassTables.build((first, second))
    paths = [(0,), (1,)]
    reference_pass(tables, 2, paths, 0, which=[1, 0])
    with pytest.raises(ZeroPinnedPotential):
        reference_pass(tables, 2, paths, 0, which=[0, 1])


def test_chain_requires_positive_pin_mass():
    m = build_discrete_model([0, 1], [0.5, 0.5], [], [[1.0, 0.0]])
    with pytest.raises(ZeroPinnedPotential):
        icsmc_chain(m, 2, Trajectory((1,)), 5, 0)


def test_single_time_unit_weight_pin_survival():
    # Under unit weights with two particles the pinned slot wins the terminal
    # draw with probability exactly one half.
    m = model_unit(1, 2)
    rng = SubstreamRng(29)
    wins = 0
    R = 20_000
    for step in range(R):
        s = pinned_pass(m, 2, (0,), rng, base=step)
        wins += select_path(s).lineage[-1] == 0
    sd = np.sqrt(0.25 / R)
    assert abs(wins / R - 0.5) < 5 * sd


def test_single_time_unit_weight_retention_rate():
    # T=1, N=2, unit weights: the pinned path survives with probability 1/2.
    m = model_unit(1, 2)
    R = 100_000
    paths = csmc_step_replicated(m, 2, np.zeros((R, 1), dtype=int), 5, base=1)
    keep = np.mean(paths[:, 0] == 0)
    # P(new = 0) = 1/2 (keep) + 1/2 * 1/2 (fresh draw lands on 0) = 3/4
    sd = np.sqrt(0.75 * 0.25 / R)
    assert abs(keep - 0.75) < 5 * sd


def test_tv_contraction_at_iteration_five():
    # Exact target vs the empirical law after 5 steps stays under the
    # minorization envelope (1-eps)^5 plus sampling slack.
    m = model_a()
    N, R = 8, 100_000
    fin = icsmc_replicated(m, N, (0, 0), R, 5, 17)
    t = target("A")
    codes = fin[:, 0] * 2 + fin[:, 1]
    freq = np.bincount(codes, minlength=4) / R
    exact = np.array([t.prob((a, b)) for a in (0, 1) for b in (0, 1)])
    tv_emp = 0.5 * np.abs(freq - exact).sum()
    eps = epsilon_bounded(m, N).epsilon
    slack = 4 * np.sqrt(1.0 / R)
    assert tv_emp <= (1 - eps) ** 5 + slack


def test_chain_and_replicated_agree_in_law():
    # The scalar chain and the replicated stepper must hit the same kernel:
    # compare one-step frequencies from the same start.
    m = model_a()
    x = (1, 0)
    row = kernel_row(m, 2, x)
    R = 100_000
    paths = csmc_step_replicated(m, 2, np.tile(x, (R, 1)), 7, base=1)
    freq = np.bincount(paths[:, 0] * 2 + paths[:, 1], minlength=4) / R
    scalar_counts = np.zeros(4)
    n_scalar = 4000
    rng = SubstreamRng(23)
    for step in range(n_scalar):
        s = pinned_pass(m, 2, x, rng, base=step)
        p = select_path(s).points
        scalar_counts[p[0] * 2 + p[1]] += 1
    scalar_freq = scalar_counts / n_scalar
    for code, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        p = row.get((a, b), 0.0)
        assert abs(freq[code] - p) < 5 * np.sqrt(max(p * (1 - p), 1e-12) / R)
        assert abs(scalar_freq[code] - p) < 5 * np.sqrt(max(p * (1 - p), 1e-12) / n_scalar)


@pytest.mark.parametrize("k", [(0, 0), (1, 1), (1, 0), (2, 2)])
def test_arbitrary_pin_lineage_same_kernel(k):
    m = model_a()
    N = 3
    base_row = kernel_row(m, N, (0, 1))
    other = kernel_row(m, N, (0, 1), lineage=k)
    assert set(other) == set(base_row)
    assert max(abs(other[key] - base_row[key]) for key in base_row) < 1e-12


def test_artificial_joint_step_runs_and_single_particle_identity():
    m = model_a()
    out = select_path(conditional_system(m, 3, [((1, 2), (0, 1))], 5))
    assert len(out) == 2
    out1 = select_path(conditional_system(m, 1, [((0, 0), (0, 1))], 5))
    assert out1.points == (0, 1)


def test_trace_csv_has_expected_columns(tmp_path):
    m = model_a()
    trace = icsmc_chain(m, 3, Trajectory((0, 0)), 5, 1)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,log_gamma_hat,retained_count,state_1,state_2"
    assert len(lines) == 7


@pytest.mark.parametrize("name,N", [("A", 1), ("A", 3), ("B", 2), ("E", 6)])
def test_run_csmc_is_row_zero_of_the_batched_step(name, N):
    m = model(name)
    x = target(name).paths[-1]
    for base in (1, 4):
        paths = csmc_step_replicated(m, N, np.tile(x, (5, 1)), 13, base=base)
        s = pinned_pass(m, N, x, 13, base=base)
        assert select_path(s).points == tuple(int(v) for v in paths[0])


def test_icsmc_chain_ends_on_row_zero_of_the_batched_chains():
    m = model("E")
    x0 = target("E").paths[0]
    # Every state and estimate of the one-row chain, not only its last
    # state, is row 0 of six chains run at the same seed: a one-row draw
    # that differs now and then would otherwise pass.  At N = 65 and 100 one
    # row searches its 64 or 99 inner sums in one call, while 6 rows count
    # them one by one or bisect.
    for N in (3, 65, 100):
        trace = icsmc_chain(m, N, Trajectory(x0), 40, 19)
        steps = list(run_chain(icsmc_sampler(m, N, x0, 6), 40, 19))
        assert trace.states.tolist() == [list(x0)] + [s.paths[0].tolist() for s in steps]
        assert trace.log_gamma_hats.tolist() == [s.log_gammas[0] for s in steps]
        final = icsmc_replicated(m, N, x0, 6, 40, 19)
        assert tuple(trace.states[-1]) == tuple(final[0])


def _sparse_model():
    """Three times, three states, with zero initial mass (state 0), zero
    transition mass and a zero weight at every time; (0, 2, 1) has positive
    weights and zero mass."""
    return build_discrete_model(
        [0, 1, 2],
        [0.0, 0.6, 0.4],
        [[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]], [[0.0, 1.0, 0.0], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]],
        [[1.0, 2.0, 0.0], [1.5, 0.0, 1.0], [0.0, 1.0, 2.0]],
    )


def _run_chain_trace(m, N, x0, n_iter, seed):
    """States and log estimates of the one-row chain stepped one row at a
    time, a hand loop of the sampler's step."""
    sampler, rng, states, lgh = icsmc_sampler(m, N, x0, 1), SubstreamRng(seed), [list(x0)], []
    state = sampler.start
    for base in range(1, n_iter + 1):
        state = sampler.step(state, rng, base)
        states.append(state.paths[0].tolist())
        lgh.append(state.log_gammas[0])
    return states, lgh


@pytest.mark.parametrize("name", ["A", "E", "sparse"])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_table_route_gives_the_run_chain_trace(monkeypatch, name, N):
    # One full table chunk and part of a second; the sparse model starts at
    # a path of zero mass and so walks paths no stationary chain visits.
    m, x0 = (_sparse_model(), (0, 2, 1)) if name == "sparse" else (model(name), target(name).paths[0])
    live = m.tables.potentials > 0
    work = int(np.prod(live.sum(axis=1))) * N * m.T
    assert work <= csmc._TABLE_WORK
    calls = counted_table_passes(monkeypatch)
    for n_iter in (0, csmc._CHUNK // work + 3):
        trace = icsmc_chain(m, N, Trajectory(x0), n_iter, 23)
        states, lgh = _run_chain_trace(m, N, x0, n_iter, 23)
        assert trace.states.tolist() == states
        assert trace.log_gamma_hats.tolist() == lgh
        assert trace.retained.tolist() == [sum(a == b for a, b in zip(u, v)) for u, v in zip(states, states[1:])]
    assert len(calls) == 2  # one pass per chunk; n_iter = 0 has no step to tabulate


def test_chain_past_the_table_work_steps_one_row(monkeypatch):
    m, x0, N = model_a(), (1, 0), 160  # |Y| N T = 4 * 160 * 2 = 1280
    assert 4 * N * m.T > csmc._TABLE_WORK
    calls = counted_table_passes(monkeypatch)
    trace = icsmc_chain(m, N, Trajectory(x0), 30, 5)
    states, lgh = _run_chain_trace(m, N, x0, 30, 5)
    assert trace.states.tolist() == states and trace.log_gamma_hats.tolist() == lgh
    assert not calls


def test_a_start_path_outside_the_alphabet_is_named():
    # The first state outside [0, S) is the one named, not a state inside it.
    with pytest.raises(IndexOutOfRange, match=r"^state 5 outside \[0, 2\)$"):
        icsmc_sampler(model_a(), 3, (0, 5), 1)


@pytest.mark.parametrize("N", [3, 160])
def test_chain_errors_keep_their_order_on_both_routes(N):
    # Too few particles first, then the start path, then the step count.
    m, bad, good = model_a(), Trajectory((0, 0, 0)), Trajectory((0, 0))
    with pytest.raises(TooFewParticles):
        icsmc_chain(m, 0, bad, -1, 0)
    with pytest.raises(DimensionMismatch):
        icsmc_chain(m, N, bad, -1, 0)
    with pytest.raises(TraceTooShort):
        icsmc_chain(m, N, good, -1, 0)
