import json
import subprocess
import sys

import numpy as np
import pytest

from fixtures import joint_two_time, model_a, tree_share
from pmcmc_lab import SubstreamRng, batch_means_variance, run_experiment, sticky_experiment
from pmcmc_lab.cli import main as cli_main
from pmcmc_lab.errors import ConfigError, TraceTooShort
from pmcmc_lab.harness import (
    ExperimentConfig,
    load_config,
    sticky_control_model,
    sticky_control_rows,
    sticky_example_model,
)
from pmcmc_lab.bounds import epsilon_bounded
from pmcmc_lab.exact_oracle import (
    chain_from_kernel,
    exact_asymptotic_variance,
    kernel_row,
)


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
    "label, N, engine", [("A", 6, "histogram"), ("sticky", 5, "multiset")]
)
def test_oracle_manifest_names_the_exact_engine(tmp_path, label, N, engine):
    # Sticky K=4 has 9 states: at N=5 the histogram sweep would need
    # 2 * 8^2 * C(13, 9)^2 = 6.5e7 transition entries, past the guard.
    path = tmp_path / "model.json"
    (model_a() if label == "A" else sticky_example_model(4)).save(path)
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


def test_batch_means_on_chain_trace():
    from pmcmc_lab import Trajectory, icsmc_chain

    trace = icsmc_chain(model_a(), 4, Trajectory((0, 0)), 600, 3)
    est = batch_means_variance(trace, f=lambda tr: float(tr.points[1]), batch_count=16)
    assert est >= 0.0


def test_empirical_variance_within_sandwich():
    # Long pinned-pass chains: batch-means estimates of the asymptotic
    # variance stay inside [var_pi, (2/eps - 1) var_pi] and reproduce the
    # enumerated value, up to the estimator's own noise (averaged over seeds).
    from fixtures import pn_chain, target
    from pmcmc_lab import Trajectory, epsilon_bounded, icsmc_chain

    m = model_a()
    n_iter, batches = 20_000, 64
    ests = []
    for seed in range(4):
        trace = icsmc_chain(m, 3, Trajectory((1, 1)), n_iter, seed)
        values = (trace.states[1:, 1] == 1).astype(float)
        ests.append(batch_means_variance(values, batch_count=batches))
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


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pmcmc_lab.cli", "bounds", "--config", "missing.json"],
        capture_output=True,
    )
    assert proc.returncode == 1
