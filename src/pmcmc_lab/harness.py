"""Experiment runner: configs, seeded reproducible runs, and the escape
(sticky-set) experiment.

Outputs are CSV files whose data sections are byte-identical across runs
with equal configs (floats are written with shortest round-trip ``repr``),
plus a JSON manifest recording seed, versions and wall time; the oracle
kind's manifest also names the exact engine that built its kernel and the
histogram sweep's work count against the guard.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    epsilon_bounded,
    epsilon_isir,
    epsilon_mixing,
    gamma_hat_sup,
    pimh_epsilon,
    report_rows,
)
from .c2smc import alpha_constant
from .csmc import ChainTrace, Trajectory, icsmc_chain, select_path
from .errors import ConfigError, TraceTooShort
from .exact_oracle import (
    _matrix_engine,
    exact_minorization,
    exact_pn_matrix,
    kernel_row_multiset,
    multiset_sweep,
    spectral_summary,
    tv_curve,
)
from .fk_model import DiscreteFK, build_discrete_model, exact_target, load_model
from .pgibbs import (
    PimhState,
    PmmhState,
    check_theta_chain_identities,
    check_x_chain_orderings,
    enumerate_joint,
    load_joint_model,
    pgibbs_step,
    pimh_step,
    pmmh_step,
)
from .rng import SubstreamRng
from .smc_core import gamma_hat, run_smc

_KINDS = ("icsmc", "isir", "pgibbs", "pimh", "pmmh", "oracle", "bounds", "sticky")
# The enumeration guard of the oracle kind's kernel matrix.
_ORACLE_GUARD = 10**7


@dataclass
class ExperimentConfig:
    kind: str
    model_path: str | None = None
    N: int | list = 2
    iterations: int = 0
    replicates: int = 1
    seed: int = 0
    output_dir: str = "out"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.iterations < 0 or self.replicates < 1:
            raise ConfigError("iterations must be >= 0 and replicates >= 1")
        ns = self.N if isinstance(self.N, list) else [self.N]
        if len(ns) < 1 or any(int(n) < 1 for n in ns):
            raise ConfigError("N must contain at least one positive entry")

    @property
    def n_sweep(self) -> list:
        return [int(n) for n in (self.N if isinstance(self.N, list) else [self.N])]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in raw:
        raise ConfigError("config must declare a kind")
    return ExperimentConfig(**raw)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# The escape experiment
# ---------------------------------------------------------------------------


def sticky_example_model(K: int, initial_law: str = "geometric") -> DiscreteFK:
    """Doubling-map model with a linearly growing terminal weight.

    States are the integers 1..2K+1; the first coordinate lives on 1..K, each
    state n branching to 2n or 2n+1, with unit weight at time 1 and weight
    equal to the state value at time 2.  ``initial_law`` concentrates the
    start on small states ("geometric", the default, or "poisson"), which is
    what makes the high-weight level sets sticky; "uniform" spreads the free
    particles over all levels and caps the stay probability near 0.85.
    """
    size = 2 * K + 1
    alphabet = tuple(range(1, size + 1))
    m1 = np.zeros(size)
    if initial_law == "geometric":
        m1[:K] = 0.5 ** np.arange(1, K + 1)
    elif initial_law == "poisson":
        for j in range(1, K + 1):
            m1[j - 1] = 1.0 / math.factorial(j - 1)
    elif initial_law == "uniform":
        m1[:K] = 1.0
    else:
        raise ConfigError(f"unknown initial law {initial_law!r}")
    m1 /= m1.sum()
    m2 = np.zeros((size, size))
    for value in range(1, size + 1):
        if value <= K:
            m2[value - 1, 2 * value - 1] = 0.5  # state 2*value
            m2[value - 1, 2 * value] = 0.5      # state 2*value + 1
        else:
            m2[value - 1, value - 1] = 1.0      # unreachable at time 2
    g1 = np.ones(size)
    g2 = np.array(alphabet, dtype=float)
    return build_discrete_model(alphabet, m1, [m2], [g1, g2])


def sticky_control_model(K: int) -> DiscreteFK:
    """Bounded-weight control: same chain, uniform start, parity weight."""
    base = sticky_example_model(K, initial_law="uniform")
    g2 = np.array([1.0 + (v % 2 == 0) for v in base.alphabet])
    return build_discrete_model(base.alphabet, base.m1, list(base.transitions), [base.potentials[0], g2])


def _sticky_set(n: int):
    """Paths (n, 2n) and (n, 2n+1) as 0-based state indices."""
    return ((n - 1, 2 * n - 1), (n - 1, 2 * n))


def sticky_experiment(K: int, N: int, n_grid=None, initial_law: str = "geometric"):
    """Exact escape diagnostics on the doubling-map model.

    For each start level n: the probability that one kernel step stays in
    the two-path level set, and the expected share of the terminal weight
    carried by the retained path.  Both come from one multiset sweep per
    level, which raises OutcomeSpaceTooLarge past its guard.
    """
    model = sticky_example_model(K, initial_law=initial_law)
    if n_grid is None:
        n_grid = list(range(1, K + 1))
    rows = []
    for n in n_grid:
        x = (n - 1, 2 * n - 1)  # the path (n, 2n)
        a_set = set(_sticky_set(n))
        ((_, row, suff),) = multiset_sweep(model, N, [x])
        stay = sum(p for path, p in row.items() if path in a_set)
        rows.append((n, stay, suff))
    return rows


def sticky_control_rows(K: int, N: int, n_grid=None):
    """(n, stay probability, stay bound) on the bounded-weight control.

    The bound is 1 - eps (1 - pi(A_n)) with eps the bounded-weight
    minorization constant: P(x, A_n^c) >= eps pi(A_n^c) for every x.
    """
    control = sticky_control_model(K)
    eps = epsilon_bounded(control, N).epsilon
    target = exact_target(control)
    if n_grid is None:
        n_grid = list(range(1, K + 1))
    rows = []
    for n in n_grid:
        a_set = set(_sticky_set(n))
        row = kernel_row_multiset(control, N, (n - 1, 2 * n - 1))
        stay = sum(p for path, p in row.items() if path in a_set)
        pi_a = sum(target.prob(path) for path in a_set)
        rows.append((n, stay, 1.0 - eps * (1.0 - pi_a)))
    return rows


# ---------------------------------------------------------------------------
# Batch-means variance estimation
# ---------------------------------------------------------------------------


def batch_means_variance(trace, f=None, batch_count: int = 64) -> float:
    """Batch-means estimate of the asymptotic variance of averages of f.

    ``trace`` is either a ChainTrace (then ``f`` maps trajectories to reals)
    or a plain 1-d array of already-evaluated values.
    """
    if isinstance(trace, ChainTrace):
        values = trace.apply(f)
    else:
        values = np.asarray(trace, dtype=float)
    n = len(values)
    if n < 2 * batch_count:
        raise TraceTooShort(f"{n} values cannot fill 2 x {batch_count} batches")
    length = n // batch_count
    used = values[: length * batch_count].reshape(batch_count, length)
    means = used.mean(axis=1)
    return float(length * means.var(ddof=1))


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Execute one configured experiment; returns the run directory."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    runner = {
        "bounds": _run_bounds,
        "oracle": _run_oracle,
        "icsmc": _run_chain,
        "isir": _run_chain,
        "pimh": _run_pimh,
        "pmmh": _run_pmmh,
        "pgibbs": _run_pgibbs,
        "sticky": _run_sticky,
    }[cfg.kind]
    details = runner(cfg, out) or {}
    manifest = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "N": cfg.n_sweep,
        "iterations": cfg.iterations,
        "replicates": cfg.replicates,
        "package_version": __version__,
        "numpy_version": np.__version__,
        **details,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    return out


def _load_model(cfg: ExperimentConfig) -> DiscreteFK:
    if not cfg.model_path:
        raise ConfigError(f"kind {cfg.kind!r} requires a model_path")
    try:
        return load_model(cfg.model_path)
    except OSError as exc:
        raise ConfigError(f"cannot read model {cfg.model_path}: {exc}") from exc


def _run_bounds(cfg: ExperimentConfig, out: Path) -> None:
    model = _load_model(cfg)
    alpha = alpha_constant(model)
    gamma = exact_target(model).gamma_t
    reports = []
    for n in cfg.n_sweep:
        reports.append(epsilon_bounded(model, n))
        reports.append(epsilon_mixing(alpha, n, model.T))
        reports.append(pimh_epsilon(gamma, gamma_hat_sup(model, n)))
        if model.T == 1:
            from .fk_model import sup_potentials

            reports.append(epsilon_isir(float(sup_potentials(model)[0]) / gamma, n))
    _write_csv(out / "bounds.csv", report_rows(reports))


def _run_oracle(cfg: ExperimentConfig, out: Path) -> dict:
    """Write the enumerated kernel and its analyses; return the exact engine
    that ran with its histogram work count against the guard (manifest)."""
    model = _load_model(cfg)
    n = cfg.n_sweep[0]
    target = exact_target(model)
    engine, work = _matrix_engine(model, n, len(target.paths), _ORACLE_GUARD)
    chain = exact_pn_matrix(model, n, target=target, guard=_ORACLE_GUARD)
    _write_csv(
        out / "kernel.csv",
        [["x", "y", "prob"]]
        + [
            ["|".join(map(str, a)), "|".join(map(str, b)), _fmt(chain.kernel[i, j])]
            for i, a in enumerate(chain.states)
            for j, b in enumerate(chain.states)
        ],
    )
    _write_csv(
        out / "stationary.csv",
        [["path", "prob"]]
        + [["|".join(map(str, p)), _fmt(q)] for p, q in zip(chain.states, chain.stationary)],
    )
    n_max = cfg.iterations if cfg.iterations > 0 else 50
    curve = tv_curve(chain, 0, n_max)
    _write_csv(out / "tv_curve.csv", [["n", "tv"]] + [[i, _fmt(v)] for i, v in enumerate(curve)])
    summary = spectral_summary(chain)
    _write_csv(
        out / "spectral.csv",
        [
            ["gap_right", "gap_left", "min_eigenvalue", "is_positive", "minorization"],
            [
                _fmt(summary.gap_right),
                _fmt(summary.gap_left),
                _fmt(summary.min_eigenvalue),
                int(summary.is_positive),
                _fmt(exact_minorization(chain)),
            ],
        ],
    )
    return {"exact_engine": engine, "histogram_work": work, "guard": _ORACLE_GUARD}


def _initial_trajectory(model: DiscreteFK) -> Trajectory:
    target = exact_target(model)
    best = int(np.argmax(target.probabilities))
    return Trajectory(points=target.paths[best])


def _run_chain(cfg: ExperimentConfig, out: Path) -> None:
    model = _load_model(cfg)
    if cfg.kind == "isir" and model.T != 1:
        raise ConfigError("kind 'isir' requires a single-time model")
    x0 = _initial_trajectory(model)
    for r in range(cfg.replicates):
        rng = SubstreamRng(cfg.seed).spawn(r)
        trace = icsmc_chain(model, cfg.n_sweep[0], x0, cfg.iterations, rng)
        trace.to_csv(out / f"trace_{r}.csv")


def _run_pimh(cfg: ExperimentConfig, out: Path) -> None:
    model = _load_model(cfg)
    n = cfg.n_sweep[0]
    for r in range(cfg.replicates):
        rng = SubstreamRng(cfg.seed).spawn(r)
        p = run_smc(model, n, rng, base=0)
        state = PimhState(path=select_path(p), log_gamma_hat=gamma_hat(p).log_value)
        rows = [["iteration", "accepted", "log_gamma_hat"] + [f"state_{t}" for t in range(1, model.T + 1)]]
        accepted = 0
        for step in range(1, cfg.iterations + 1):
            state, acc = pimh_step(model, n, state, rng, base=step)
            accepted += acc
            rows.append([step, int(acc), _fmt(state.log_gamma_hat)] + list(state.path.points))
        _write_csv(out / f"pimh_{r}.csv", rows)
        _write_csv(
            out / f"pimh_{r}_summary.csv",
            [["steps", "acceptance_rate"], [cfg.iterations, _fmt(accepted / max(cfg.iterations, 1))]],
        )


def _run_pmmh(cfg: ExperimentConfig, out: Path) -> None:
    jm = _load_joint(cfg)
    n = cfg.n_sweep[0]
    q = np.asarray(
        cfg.params.get("proposal_q", np.full((jm.J, jm.J), 1.0 / jm.J).tolist()), dtype=float
    )
    for r in range(cfg.replicates):
        rng = SubstreamRng(cfg.seed).spawn(r)
        p = run_smc(jm.models[0], n, rng, base=0)
        state = PmmhState(theta_idx=0, log_gamma_hat=gamma_hat(p).log_value)
        rows = [["iteration", "accepted", "theta", "log_gamma_hat"]]
        for step in range(1, cfg.iterations + 1):
            state, acc = pmmh_step(jm, n, q, state, rng, base=step)
            rows.append([step, int(acc), jm.thetas[state.theta_idx], _fmt(state.log_gamma_hat)])
        _write_csv(out / f"pmmh_{r}.csv", rows)


def _load_joint(cfg: ExperimentConfig):
    if not cfg.model_path:
        raise ConfigError(f"kind {cfg.kind!r} requires a joint model_path")
    try:
        return load_joint_model(cfg.model_path)
    except OSError as exc:
        raise ConfigError(f"cannot read joint model {cfg.model_path}: {exc}") from exc


def _run_pgibbs(cfg: ExperimentConfig, out: Path) -> None:
    jm = _load_joint(cfg)
    n = cfg.n_sweep[0]
    report = check_x_chain_orderings(jm, n)
    f_theta = np.zeros(jm.J)
    f_theta[0] = 1.0
    report2 = check_theta_chain_identities(jm, n, f_theta)
    rows = [["inequality", "worst_violation", "witness"]]
    for name, violation, witness in list(report) + list(report2):
        rows.append([name, _fmt(violation), "" if witness is None else witness])
    _write_csv(out / "ordering_report.csv", rows)
    # A short chain trace for the record.
    enum = enumerate_joint(jm)
    x = Trajectory(points=enum.paths[int(np.argmax(enum.x_marginal))])
    rng = SubstreamRng(cfg.seed)
    rows = [["iteration", "theta"] + [f"state_{t}" for t in range(1, jm.T + 1)]]
    for step in range(1, cfg.iterations + 1):
        theta, x = pgibbs_step(jm, n, x, rng, base=step)
        rows.append([step, jm.thetas[theta]] + list(x.points))
    _write_csv(out / "pgibbs_trace.csv", rows)


def _run_sticky(cfg: ExperimentConfig, out: Path) -> None:
    K = int(cfg.params.get("K", 16))
    n_grid = cfg.params.get("n_grid")
    initial_law = cfg.params.get("initial_law", "geometric")
    rows = sticky_experiment(K, cfg.n_sweep[0], n_grid=n_grid, initial_law=initial_law)
    _write_csv(
        out / "sticky.csv",
        [["n", "stay_probability", "suff_expectation"]]
        + [[n, _fmt(stay), _fmt(suff)] for n, stay, suff in rows],
    )
    ctrl = sticky_control_rows(K, cfg.n_sweep[0], n_grid=n_grid)
    _write_csv(
        out / "sticky_control.csv",
        [["n", "stay_probability", "stay_bound"]]
        + [[n, _fmt(stay), _fmt(bound)] for n, stay, bound in ctrl],
    )
