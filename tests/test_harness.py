import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fixtures import joint_two_time, model_a, model_c, tree_share
from pmcmc_lab import SubstreamRng, batch_means_variance, run_experiment, sticky_experiment
from pmcmc_lab.cli import main as cli_main
from pmcmc_lab.errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    NonStochasticRow,
    OutcomeSpaceTooLarge,
    PmcmcLabError,
    TooFewParticles,
    TraceTooShort,
)
from pmcmc_lab.harness import (
    KINDS,
    RESIDUAL_FLOOR,
    ExperimentConfig,
    _level_pairs,
    _sticky_set,
    load_config,
    sticky_control_model,
    sticky_control_rows,
    sticky_example_model,
)
from pmcmc_lab.bounds import epsilon_bounded
from pmcmc_lab.csmc import ChainState
from pmcmc_lab.pgibbs import pmmh_step
from pmcmc_lab.replicated import pmmh_replicated
from pmcmc_lab.exact_oracle import (
    chain_from_kernel,
    exact_asymptotic_variance,
    kernel_row,
    kernel_row_multiset,
)
from pmcmc_lab.histogram import _Plan


def _write_model(tmp_path):
    path = tmp_path / "model.json"
    model_a().save(path)
    return str(path)


def _write_joint(tmp_path):
    jm = joint_two_time()
    doc = {
        "T": 2,
        "alphabet": [0, 1],
        "thetas": list(jm.thetas),
        "prior": jm.prior.tolist(),
        "models": [
            {"m1": m.m1.tolist(), "m": [mat.tolist() for mat in m.transitions],
             "g": [g.tolist() for g in m.potentials]}
            for m in jm.models
        ],
    }
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nonsense")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bounds", N=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bounds", replicates=0)
    # The pgibbs kind writes one trace from the config seed; a replicate
    # count it would not honour, but the manifest would record, is refused.
    with pytest.raises(ConfigError, match="replicates"):
        ExperimentConfig(kind="pgibbs", replicates=2)


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"kind": "bounds", "bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_bounds_experiment_monotone_sweep(tmp_path):
    cfg = ExperimentConfig(
        kind="bounds",
        model_path=_write_model(tmp_path),
        N=[2, 4, 8, 16],
        output_dir=str(tmp_path / "out"),
    )
    out = run_experiment(cfg)
    rows = (out / "bounds.csv").read_text().strip().splitlines()
    eps = [float(r.split(",")[3]) for r in rows[1:] if r.startswith("BoundedPotentials")]
    assert len(eps) == 4
    assert all(b > a for a, b in zip(eps, eps[1:]))
    assert (out / "manifest.json").exists()


def test_oracle_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(
        kind="oracle", model_path=_write_model(tmp_path), N=2,
        output_dir=str(tmp_path / "out"),
    )
    out = run_experiment(cfg)
    kernel_rows = (out / "kernel.csv").read_text().strip().splitlines()[1:]
    sums = {}
    for row in kernel_rows:
        x, _, p = row.split(",")
        sums[x] = sums.get(x, 0.0) + float(p)
    assert all(abs(s - 1.0) < 1e-10 for s in sums.values())
    assert (out / "tv_curve.csv").exists()
    assert (out / "spectral.csv").exists()


@pytest.mark.parametrize(
    "label, N, engine", [("A", 6, "histogram"), ("sticky", 3, "multiset")]
)
def test_oracle_manifest_names_the_exact_engine(tmp_path, label, N, engine):
    # Sticky K=25 has 51 states and 50 paths: at N=3 the count engine needs
    # 1.1e7 law entries (625 prefix pairs, 325 histograms at time 1, 50
    # terminal weights), past the guard; the multiset sweep takes about half
    # a second.
    path = tmp_path / "model.json"
    (model_a() if label == "A" else sticky_example_model(25)).save(path)
    cfg = ExperimentConfig(kind="oracle", model_path=str(path), N=N, output_dir=str(tmp_path / "out"))
    manifest = json.loads((run_experiment(cfg) / "manifest.json").read_text())
    assert manifest["exact_engine"] == engine
    assert (manifest["histogram_work"] <= manifest["guard"]) == (engine == "histogram")


def test_chain_experiment_reproducible_bodies(tmp_path):
    model_path = _write_model(tmp_path)
    outs = []
    for d in ("run1", "run2"):
        cfg = ExperimentConfig(
            kind="icsmc", model_path=model_path, N=3, iterations=40,
            replicates=2, seed=99, output_dir=str(tmp_path / d),
        )
        out = run_experiment(cfg)
        outs.append(
            [(out / f"trace_{r}.csv").read_bytes() for r in range(2)]
        )
    assert outs[0] == outs[1]
    # distinct replicates do differ
    assert outs[0][0] != outs[0][1]


def test_pgibbs_experiment_report(tmp_path):
    cfg = ExperimentConfig(
        kind="pgibbs", model_path=_write_joint(tmp_path), N=2, iterations=5,
        output_dir=str(tmp_path / "out"),
    )
    out = run_experiment(cfg)
    report = (out / "ordering_report.csv").read_text().strip().splitlines()
    assert report[0] == "inequality,worst_violation,witness"
    assert all(float(line.split(",")[1]) <= 1e-9 for line in report[1:])
    # Residuals of the exact identities are rounding noise, written as 0.0.
    assert RESIDUAL_FLOOR < 1e-10
    for line in report[1:]:
        name, violation, _ = line.split(",")
        if name.startswith("shift_identity") or name == "variance_decomposition":
            assert violation == "0.0"
        else:
            assert float(violation) == 0.0 or abs(float(violation)) >= RESIDUAL_FLOOR


@pytest.mark.parametrize(
    "q, error",
    [
        ([[1.0]], DimensionMismatch),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], DimensionMismatch),
        ([[2.0, -1.0], [0.5, 0.5]], NonStochasticRow),
        ([[0.5, 0.4], [0.5, 0.5]], NonStochasticRow),
        ([[0.9, 0.9], [0.5, 0.5]], NonStochasticRow),
    ],
)
def test_pmmh_refuses_a_malformed_proposal(tmp_path, q, error):
    # A proposal that is not a (J, J) row-stochastic matrix would run: a
    # 1 x 1 matrix never leaves the first value, and unnormalised rows enter
    # the acceptance ratio as they are.
    jm = joint_two_time()
    with pytest.raises(error):
        pmmh_step(jm, 2, q, ChainState(thetas=np.zeros(1, int), log_gammas=np.zeros(1)), 1, base=1)
    with pytest.raises(error):
        pmmh_replicated(jm, 2, q, 3, 2, 1)
    cfg = ExperimentConfig(
        kind="pmmh", model_path=_write_joint(tmp_path), N=2, iterations=3,
        output_dir=str(tmp_path / "out"), params={"proposal_q": q},
    )
    with pytest.raises(error):
        run_experiment(cfg)


def test_pimh_pmmh_experiments_run(tmp_path):
    cfg = ExperimentConfig(
        kind="pimh", model_path=_write_model(tmp_path), N=4, iterations=30,
        output_dir=str(tmp_path / "o1"),
    )
    out = run_experiment(cfg)
    assert (out / "pimh_0_summary.csv").exists()
    cfg = ExperimentConfig(
        kind="pmmh", model_path=_write_joint(tmp_path), N=4, iterations=30,
        output_dir=str(tmp_path / "o2"),
    )
    out = run_experiment(cfg)
    lines = (out / "pmmh_0.csv").read_text().strip().splitlines()
    assert len(lines) == 31


def test_sticky_models_validate():
    m = sticky_example_model(8)
    assert m.T == 2 and m.n_states == 17
    c = sticky_control_model(8)
    assert float(max(c.potentials[1])) == 2.0


def test_sticky_experiment_rows(tmp_path):
    rows = sticky_experiment(6, 2, n_grid=[1, 3, 6])
    assert [r[0] for r in rows] == [1, 3, 6]
    stays = [r[1] for r in rows]
    assert all(0 < s < 1 for s in stays)
    assert stays[0] < stays[-1]


def test_sticky_experiment_cli_kind(tmp_path):
    cfg = ExperimentConfig(
        kind="sticky", N=2, output_dir=str(tmp_path / "out"),
        params={"K": 12},
    )
    out = run_experiment(cfg)
    lines = (out / "sticky.csv").read_text().strip().splitlines()
    assert lines[0] == "n,stay_probability,suff_expectation"
    assert len(lines) == 13
    # the bounded-weight control never concentrates: its stay probability
    # sits under the minorization envelope (needs K >= 10 for the margin)
    ctrl = (out / "sticky_control.csv").read_text().strip().splitlines()
    assert ctrl[0] == "n,stay_probability,stay_bound"
    eps = epsilon_bounded(sticky_control_model(12), 2).epsilon
    for line in ctrl[1:]:
        _, stay, bound = line.split(",")
        assert float(stay) <= float(bound) + 1e-12
        assert float(stay) <= 1.0 - eps + 1e-12


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("K", range(2, 17))
def test_sticky_control_stays_under_its_minorization_bound(K, N):
    # P(x, A^c) >= eps pi(A^c) gives stay <= 1 - eps (1 - pi(A_n)); the
    # tighter 1 - eps does not hold for small K (K=4, N=2: 0.84 > 0.81).
    eps = epsilon_bounded(sticky_control_model(K), N).epsilon
    rows = sticky_control_rows(K, N)
    assert [n for n, *_ in rows] == list(range(1, K + 1))
    for n, stay, bound in rows:
        assert bound == pytest.approx(1.0 - eps * (1.0 - 1.0 / K), rel=1e-12)
        assert stay <= bound + 1e-12


@pytest.mark.parametrize("initial_law", ["geometric", "poisson", "uniform"])
@pytest.mark.parametrize("K,N", [(4, 2), (6, 3), (10, 3)])
def test_sticky_rows_match_slot_faithful_rows_and_outcome_tree(K, N, initial_law):
    model = sticky_example_model(K, initial_law=initial_law)
    rows = sticky_experiment(K, N, initial_law=initial_law)
    assert [n for n, *_ in rows] == list(range(1, K + 1))
    for n, stay, share in rows:
        x = (n - 1, 2 * n - 1)
        row = kernel_row(model, N, x)
        want = sum(p for path, p in row.items() if path in (x, (n - 1, 2 * n)))
        assert abs(stay - want) < 1e-12
        assert abs(share - tree_share(model, N, x)) < 1e-12


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("K", [4, 6])
def test_sticky_control_stays_match_slot_faithful_and_multiset_rows(K, N):
    control = sticky_control_model(K)
    rows = sticky_control_rows(K, N)
    assert [n for n, *_ in rows] == list(range(1, K + 1))
    for n, stay, _ in rows:
        x = (n - 1, 2 * n - 1)
        for row in (kernel_row(control, N, x), kernel_row_multiset(control, N, x)):
            assert abs(stay - sum(p for path, p in row.items() if path in _sticky_set(n))) < 1e-12


@pytest.mark.parametrize("rows, K, N", [(sticky_experiment, 16, 6), (sticky_control_rows, 16, 8)])
def test_sticky_rows_past_the_guard_are_refused_at_once(rows, K, N):
    # The work is counted before any array is built: 1.2e8 law entries for
    # the experiment at N=6 (16 levels, 15504 histograms at time 1), 9.6e7
    # for the control at N=8 (2 terminal weights, 170544 histograms).
    t0 = time.monotonic()
    with pytest.raises(OutcomeSpaceTooLarge):
        rows(K, N)
    assert time.monotonic() - t0 < 1.0


def test_sticky_manifest_names_the_exact_engine(tmp_path):
    cfg = ExperimentConfig(kind="sticky", N=3, output_dir=str(tmp_path / "out"), params={"K": 16})
    manifest = json.loads((run_experiment(cfg) / "manifest.json").read_text())
    assert manifest["exact_engine"] == "histogram"
    assert manifest["guard"] == 10**7
    xs, ys = _level_pairs(range(1, 17))
    assert manifest["histogram_work"] == {
        "sticky.csv": _Plan(sticky_example_model(16), 3, xs, ys).work,
        "sticky_control.csv": _Plan(sticky_control_model(16), 3, xs, ys).work,
    }
    assert 0 < manifest["histogram_work"]["sticky_control.csv"] < manifest["histogram_work"]["sticky.csv"] <= 10**7


@pytest.mark.parametrize("rows", [sticky_experiment, sticky_control_rows])
def test_sticky_rows_name_a_level_outside_the_model(rows):
    # Level 7 at K=4 would read the states 13 and 14 of a 9-state model.
    with pytest.raises(ConfigError, match=r"level 7 outside \[1, 4\]"):
        rows(4, 3, n_grid=[2, 7])


def test_sticky_experiment_runs_past_the_old_estimated_guards():
    # Both were refused by the slot-faithful and outcome-tree estimates; the
    # multiset sweep's counted terms stay far below its guard.
    assert [n for n, *_ in sticky_experiment(4, 6)] == [1, 2, 3, 4]
    rows = sticky_experiment(6, 5, n_grid=[2, 6])
    assert [n for n, *_ in rows] == [2, 6]
    assert all(0 < share < stay < 1 for _, stay, share in rows)


def test_batch_means_iid_case():
    # The estimator itself is chi-square over batch_count-1 degrees of
    # freedom: allow three of its own standard deviations.
    rng = SubstreamRng(5).stream(0)
    values = rng.normal(size=100_000)
    est = batch_means_variance(values, batch_count=64)
    assert est == pytest.approx(1.0, abs=3 * np.sqrt(2 / 63))


def test_batch_means_two_state_flip():
    # flip chain with p = 0.25: asymptotic variance of the indicator is
    # (1-p)/(4p) = 0.75; batch means at one million samples within 10%.
    p = 0.25
    rng = SubstreamRng(7).stream(0)
    flips = rng.random(1_000_000) < p
    states = (np.cumsum(flips) % 2).astype(float)
    est = batch_means_variance(states, batch_count=64)
    exact = exact_asymptotic_variance(
        chain_from_kernel((0, 1), np.array([[1 - p, p], [p, 1 - p]]), np.array([0.5, 0.5])),
        np.array([0.0, 1.0]),
    )
    assert exact == pytest.approx(0.75, rel=1e-12)
    assert abs(est - exact) / exact < 0.10


def test_batch_means_constant_trace_is_zero():
    assert batch_means_variance(np.ones(1000), batch_count=8) == 0.0


def test_batch_means_too_short():
    with pytest.raises(TraceTooShort):
        batch_means_variance(np.ones(100), batch_count=64)


def test_batch_means_refuses_a_trace_that_is_not_1d():
    with pytest.raises(DimensionMismatch):
        batch_means_variance(np.ones((1000, 2)), batch_count=8)


@pytest.mark.parametrize(
    "case, error",
    [
        ("pimh_replicated_no_rows", TraceTooShort),
        ("pmmh_replicated_no_rows", TraceTooShort),
        ("icsmc_chain_negative_steps", TraceTooShort),
        ("tv_curve_start_past_the_states", IndexOutOfRange),
        ("tv_curve_negative_start", IndexOutOfRange),
        ("batch_means_no_batches", TraceTooShort),
        ("batch_means_one_batch", TraceTooShort),
        ("asymptotic_variance_short_f", DimensionMismatch),
        ("resample_negative_count", TooFewParticles),
        ("chain_index_not_a_state", IndexOutOfRange),
        ("target_index_not_a_path", IndexOutOfRange),
        ("joint_path_index_not_a_path", IndexOutOfRange),
        ("tv_curve_negative_length", TraceTooShort),
        ("tv_curve_length_below_minus_one", TraceTooShort),
        ("sticky_model_without_levels", ConfigError),
        ("sticky_model_negative_levels", ConfigError),
        ("sticky_experiment_level_past_k", ConfigError),
        ("sticky_experiment_level_zero", ConfigError),
        ("sticky_control_level_past_k", ConfigError),
    ],
)
def test_public_functions_raise_typed_errors(case, error):
    from pmcmc_lab import Trajectory, exact_pn_matrix, exact_target, icsmc_chain, multinomial_resample, tv_curve
    from pmcmc_lab.pgibbs import enumerate_joint
    from pmcmc_lab.replicated import pimh_replicated

    m = model_a()
    call = {
        "pimh_replicated_no_rows": lambda: pimh_replicated(m, 2, 0, 3, 1),
        "pmmh_replicated_no_rows": lambda: pmmh_replicated(joint_two_time(), 2, np.full((2, 2), 0.5), 0, 3, 1),
        "icsmc_chain_negative_steps": lambda: icsmc_chain(m, 2, Trajectory((0, 0)), -1, 1),
        "tv_curve_start_past_the_states": lambda: tv_curve(exact_pn_matrix(m, 2), 4, 3),
        "tv_curve_negative_start": lambda: tv_curve(exact_pn_matrix(m, 2), -1, 3),
        "batch_means_no_batches": lambda: batch_means_variance(np.arange(10.0), batch_count=0),
        "batch_means_one_batch": lambda: batch_means_variance(np.arange(10.0), batch_count=1),
        "asymptotic_variance_short_f": lambda: exact_asymptotic_variance(exact_pn_matrix(m, 2), [1.0, 0.0]),
        "resample_negative_count": lambda: multinomial_resample([0.5, 0.5], -1, SubstreamRng(0).stream(0)),
        "chain_index_not_a_state": lambda: exact_pn_matrix(m, 2).index((5, 5)),
        "target_index_not_a_path": lambda: exact_target(m).index((5, 5)),
        "joint_path_index_not_a_path": lambda: enumerate_joint(joint_two_time()).path_index((5, 5)),
        "tv_curve_negative_length": lambda: tv_curve(exact_pn_matrix(m, 2), 0, -1),
        "tv_curve_length_below_minus_one": lambda: tv_curve(exact_pn_matrix(m, 2), 0, -2),
        "sticky_model_without_levels": lambda: sticky_example_model(0),
        "sticky_model_negative_levels": lambda: sticky_example_model(-1),
        "sticky_experiment_level_past_k": lambda: sticky_experiment(4, 3, n_grid=[7]),
        "sticky_experiment_level_zero": lambda: sticky_experiment(4, 3, n_grid=[0]),
        "sticky_control_level_past_k": lambda: sticky_control_rows(4, 3, n_grid=[1, 7]),
    }[case]
    with pytest.raises(error):
        call()
    assert issubclass(error, PmcmcLabError)


@pytest.mark.parametrize(
    "case, error",
    [
        ("exact_pn_matrix", DimensionMismatch),
        ("kernel_row", DimensionMismatch),
        ("kernel_row_multiset", DimensionMismatch),
        ("exact_gamma_hat_expectation", DimensionMismatch),
        ("sticky_experiment", DimensionMismatch),
        ("tv_curve_start", IndexOutOfRange),
        ("tv_curve_length", TraceTooShort),
        ("batch_means_variance", TraceTooShort),
        ("trace_lineage", IndexOutOfRange),
        ("multinomial_resample", TooFewParticles),
        ("beta_delta_constants", IndexOutOfRange),
        ("sticky_example_model", ConfigError),
    ],
)
def test_a_size_that_is_not_an_integer_is_a_typed_refusal(case, error):
    # A particle count N is checked as a pass checks it (DimensionMismatch);
    # any other size raises its own range error.  The same size as a numpy
    # integer runs.
    from pmcmc_lab import beta_delta_constants, exact_pn_matrix, kernel_row, multinomial_resample, tv_curve
    from pmcmc_lab.exact_oracle import exact_gamma_hat_expectation, kernel_row_multiset, trace_lineage

    m = model_a()
    call = {
        "exact_pn_matrix": lambda k: exact_pn_matrix(m, k(2)),
        "kernel_row": lambda k: kernel_row(m, k(2), (0, 0)),
        "kernel_row_multiset": lambda k: kernel_row_multiset(m, k(2), (0, 0)),
        "exact_gamma_hat_expectation": lambda k: exact_gamma_hat_expectation(m, k(2)),
        "sticky_experiment": lambda k: sticky_experiment(2, k(2)),
        "tv_curve_start": lambda k: tv_curve(exact_pn_matrix(m, 2), k(1), 3),
        "tv_curve_length": lambda k: tv_curve(exact_pn_matrix(m, 2), 1, k(2)),
        "batch_means_variance": lambda k: batch_means_variance(np.arange(10.0), k(2)),
        "trace_lineage": lambda k: trace_lineage(((0, 1), (1, 0)), ((0, 1),), k(0)),
        "multinomial_resample": lambda k: multinomial_resample([1.0, 2.0], k(2), SubstreamRng(0).stream(0)),
        "beta_delta_constants": lambda k: beta_delta_constants(m, k(1)),
        "sticky_example_model": lambda k: sticky_example_model(k(2)),
    }[case]
    call(np.int64)
    with pytest.raises(error):
        call(lambda n: n + 0.5)


@pytest.mark.parametrize("chain", ["icsmc", "pimh", "pmmh", "pgibbs"])
def test_replicated_chains_refuse_a_negative_step_count(chain):
    # run_chain, the one step loop of every sampler, refuses it.
    from pmcmc_lab.replicated import icsmc_replicated, pgibbs_replicated, pimh_replicated

    m, jm = model_a(), joint_two_time()
    call = {
        "icsmc": lambda: icsmc_replicated(m, 2, (0, 0), 2, -3, 0),
        "pimh": lambda: pimh_replicated(m, 2, 2, -1, 0),
        "pmmh": lambda: pmmh_replicated(jm, 2, np.full((2, 2), 0.5), 2, -1, 0),
        "pgibbs": lambda: pgibbs_replicated(jm, 2, 2, -1, 0, (0, 0), 0),
    }[chain]
    with pytest.raises(TraceTooShort):
        call()


def test_batch_means_on_chain_trace():
    from pmcmc_lab import Trajectory, icsmc_chain

    trace = icsmc_chain(model_a(), 4, Trajectory((0, 0)), 600, 3)
    est = batch_means_variance(trace.states[:, 1].astype(float), batch_count=16)
    assert est >= 0.0


def test_empirical_variance_within_sandwich():
    # Long pinned-pass chains: batch-means estimates of the asymptotic
    # variance stay inside [var_pi, (2/eps - 1) var_pi] and reproduce the
    # enumerated value, up to the estimator's own noise (averaged over four
    # chains, run as the four rows of one driver call; row 0 is the
    # one-row chain at this seed).
    from fixtures import pn_chain, target
    from pmcmc_lab import epsilon_bounded
    from pmcmc_lab.csmc import icsmc_sampler, run_chain

    m = model_a()
    n_iter, batches, chains = 20_000, 64, 4
    values = np.empty((n_iter, chains))
    for j, state in enumerate(run_chain(icsmc_sampler(m, 3, (1, 1), chains), n_iter, 0)):
        values[j] = state.paths[:, 1] == 1
    ests = [batch_means_variance(values[:, r], batch_count=batches) for r in range(chains)]
    est = float(np.mean(ests))
    t = target("A")
    p = sum(t.prob(path) for path in t.paths if path[1] == 1)
    var_pi = p * (1 - p)
    eps = epsilon_bounded(m, 3).epsilon
    chain = pn_chain("A", 3)
    f = np.array([1.0 if path[1] == 1 else 0.0 for path in chain.states])
    exact = exact_asymptotic_variance(chain, f)
    noise = 3 * exact * np.sqrt(2 / (batches - 1)) / np.sqrt(len(ests))
    assert var_pi - noise <= est <= (2 / eps - 1) * var_pi + noise
    assert abs(est - exact) <= noise


def test_sticky_stay_non_increasing_in_particles():
    rows2 = sticky_experiment(10, 2)
    rows3 = sticky_experiment(10, 3)
    for (n2, s2, _), (n3, s3, _) in zip(rows2, rows3):
        assert n2 == n3
        assert s3 <= s2 + 1e-12


def test_cli_bounds_and_exit_codes(tmp_path, capsys):
    model_path = _write_model(tmp_path)
    cfg = {"kind": "bounds", "model_path": model_path, "N": [2, 4], "output_dir": str(tmp_path / "o")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
    # wrong subcommand for the kind
    assert cli_main(["sticky", "--config", str(cfg_path)]) == 1
    # missing config file
    assert cli_main(["bounds", "--config", str(tmp_path / "nope.json")]) == 1
    # one particle is too few for the minorization constants
    cfg["N"] = [1, 2]
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 1
    assert "at least two particles" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    [
        "N_not_a_number",
        "iterations_a_string",
        "replicates_a_float",
        "params_a_list",
        "seed_negative",
        "seed_override_negative",
        "icsmc_with_two_N",
        "model_invalid_json",
        "model_missing_m1",
    ],
)
def test_cli_refuses_a_malformed_config_or_model(tmp_path, capsys, case):
    model_path = _write_model(tmp_path)
    cfg = {"kind": "icsmc", "model_path": model_path, "N": 2, "iterations": 5,
           "output_dir": str(tmp_path / "o")}
    broken = tmp_path / "broken.json"
    changes = {
        "N_not_a_number": {"N": "abc"},
        "iterations_a_string": {"iterations": "5"},
        "replicates_a_float": {"replicates": 1.5},
        "params_a_list": {"params": []},
        "seed_negative": {"seed": -1},
        "seed_override_negative": {},
        "icsmc_with_two_N": {"N": [2, 4]},
        "model_invalid_json": {"model_path": str(broken)},
        "model_missing_m1": {"model_path": str(broken)},
    }
    broken.write_text(
        "{not json" if case == "model_invalid_json"
        else json.dumps({"T": 1, "alphabet": [0, 1], "m": [], "g": [[1.0, 1.0]]})
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, **changes[case]}))
    capsys.readouterr()
    seed = ["--seed", "-1"] if case == "seed_override_negative" else []
    assert cli_main(["simulate", "--config", str(cfg_path)] + seed) == 1
    assert capsys.readouterr().err.startswith("pmcmc-lab: ")
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize(
    "params",
    [
        pytest.param({"K": "abc"}, id="K_a_string"),
        pytest.param({"K": 0}, id="K_zero"),
        pytest.param({"K": True}, id="K_a_bool"),
        pytest.param({"K": 3.0}, id="K_a_float"),
        pytest.param({"K": 3, "n_grid": "x"}, id="n_grid_a_string"),
        pytest.param({"K": 3, "n_grid": [0]}, id="n_grid_below_one"),
        pytest.param({"K": 3, "n_grid": [4]}, id="n_grid_above_K"),
        pytest.param({"K": 3, "n_grid": [1, True]}, id="n_grid_with_a_bool"),
        pytest.param({"K": 3, "n_grid": [2.0]}, id="n_grid_with_a_float"),
    ],
)
def test_cli_refuses_malformed_sticky_params(tmp_path, capsys, params):
    # K is an int >= 1 and n_grid a list of ints in [1, K]; anything else is
    # a config error (exit 1), not a traceback.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "sticky", "N": 2, "params": params}))
    capsys.readouterr()
    assert cli_main(["sticky", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("pmcmc-lab: sticky param ")
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_cli_seed_and_out_overrides(tmp_path):
    model_path = _write_model(tmp_path)
    cfg = {"kind": "icsmc", "model_path": model_path, "N": 2, "iterations": 10,
           "seed": 1, "output_dir": str(tmp_path / "ignored")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trace_0.csv").read_bytes() == (
        tmp_path / "b" / "trace_0.csv"
    ).read_bytes()


def test_isir_kind_writes_a_reproducible_trace(tmp_path):
    path = tmp_path / "c.json"
    model_c().save(path)
    bodies = []
    for d in ("run1", "run2"):
        cfg = ExperimentConfig(kind="isir", model_path=str(path), N=3, iterations=30,
                               seed=5, output_dir=str(tmp_path / d))
        bodies.append((run_experiment(cfg) / "trace_0.csv").read_bytes())
    assert bodies[0] == bodies[1]
    lines = bodies[0].decode().splitlines()
    assert lines[0] == "iteration,log_gamma_hat,retained_count,state_1"
    assert len(lines) == 32  # the header, the start state and 30 steps


def test_isir_kind_refuses_a_multi_time_model(tmp_path):
    cfg = {"kind": "isir", "model_path": _write_model(tmp_path), "N": 3, "iterations": 5,
           "output_dir": str(tmp_path / "o")}
    with pytest.raises(ConfigError, match="single-time"):
        run_experiment(ExperimentConfig(**cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 1


def test_every_kind_runs_under_its_own_subcommand_only(tmp_path, capsys):
    model_path, joint_path = _write_model(tmp_path), _write_joint(tmp_path)
    single_path = tmp_path / "c.json"
    model_c().save(single_path)
    # kind -> (config extras, a CSV the run must write, non-empty)
    runs = {
        "icsmc": ({"model_path": model_path, "N": 2, "iterations": 5}, "trace_0.csv"),
        "isir": ({"model_path": str(single_path), "N": 2, "iterations": 5}, "trace_0.csv"),
        "pimh": ({"model_path": model_path, "N": 2, "iterations": 5}, "pimh_0.csv"),
        "pmmh": ({"model_path": joint_path, "N": 2, "iterations": 5}, "pmmh_0.csv"),
        "oracle": ({"model_path": model_path, "N": 2}, "kernel.csv"),
        "bounds": ({"model_path": model_path, "N": [2, 3]}, "bounds.csv"),
        "pgibbs": ({"model_path": joint_path, "N": 2, "iterations": 5}, "pgibbs_trace.csv"),
        "sticky": ({"N": 2, "params": {"K": 2}}, "sticky.csv"),
    }
    assert set(runs) == set(KINDS)
    subcommands = {sub for sub, _ in KINDS.values()}
    for kind, (extras, csv_name) in runs.items():
        out = tmp_path / kind
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps({"kind": kind, "output_dir": str(out), **extras}))
        own = KINDS[kind][0]
        assert cli_main([own, "--config", str(cfg_path)]) == 0, kind
        assert (out / csv_name).stat().st_size > 0
        for sub in sorted(subcommands - {own}):
            capsys.readouterr()
            assert cli_main([sub, "--config", str(cfg_path)]) == 1, (kind, sub)
            assert "not valid for subcommand" in capsys.readouterr().err


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pmcmc_lab.cli", "bounds", "--config", "missing.json"],
        capture_output=True,
    )
    assert proc.returncode == 1


def test_a_failing_property_is_reported_as_a_failed_test(tmp_path):
    # The run's warning filters are the project's, and the failing property
    # takes hypothesis's failure report (its patch writer) through this
    # directory's conftest, as a property of the suite does.
    root = Path(__file__).parent.parent
    (tmp_path / "conftest.py").write_text((root / "tests" / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 3\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
