"""Experiment runner: configs, seeded reproducible runs, and the escape
(sticky-set) experiment.

Outputs are CSV files whose data sections are byte-identical across runs
with equal configs (floats are written with shortest round-trip ``repr``),
plus a JSON manifest recording seed, versions and wall time; the oracle
and sticky kinds' manifests also name the exact engine that built their
rows and the count engine's work against the guard.

The chain kinds run :func:`pmcmc_lab.csmc.run_chain`, the one step loop, on
one row per replicate seed, from the samplers :mod:`pmcmc_lab.replicated`
uses, so each runs its sampler's one move, tabulated on a small model; the
pimh, pmmh and pgibbs kinds write their traces with one writer,
:func:`_write_trace`.  :data:`KINDS` is the one list of experiment kinds,
each with its CLI subcommand and runner.
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
from .csmc import Trajectory, icsmc_chain, run_chain
from .errors import ConfigError, DimensionMismatch, TraceTooShort, _whole
from .exact_oracle import _pn_matrix, exact_minorization, spectral_summary, tv_curve
from .fk_model import DiscreteFK, build_discrete_model, exact_target, load_model, sup_potentials
from .histogram import _GUARD, _Plan
from .pgibbs import (
    check_theta_chain_identities,
    check_x_chain_orderings,
    enumerate_joint,
    load_joint_model,
    pgibbs_sampler,
    pimh_sampler,
    pmmh_sampler,
)
from .rng import SubstreamRng

# What reading a model file raises for a missing file, invalid JSON (a
# ValueError), a missing key or a value of the wrong type.  Model validation
# raises PmcmcLabError subclasses, none of these, so they keep their types.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError)
# Inequality slacks below this size are written as 0.0 in the pgibbs kind's
# ordering_report.csv: the identity residuals are exact zeros up to rounding
# (about 1e-16), and the report should not carry the exact engine's last
# bits.  Well under the suites' 1e-10 tolerance, which is checked unrounded.
RESIDUAL_FLOOR = 1e-12


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
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name, ok in (
            ("model_path", self.model_path is None or isinstance(self.model_path, str)),
            ("N", all(_is_int(n) for n in self.n_sweep)),
            ("iterations", _is_int(self.iterations)),
            ("replicates", _is_int(self.replicates)),
            ("seed", _is_int(self.seed)),
            ("output_dir", isinstance(self.output_dir, str)),
            ("params", isinstance(self.params, dict)),
        ):
            if not ok:
                raise ConfigError(f"config value {name} = {getattr(self, name)!r} has the wrong type")
        if self.iterations < 0 or self.replicates < 1 or self.seed < 0:
            raise ConfigError("iterations and seed must be >= 0 and replicates >= 1")
        if not self.n_sweep or min(self.n_sweep) < 1:
            raise ConfigError("N must contain at least one positive entry")
        if len(self.n_sweep) > 1 and self.kind != "bounds":
            raise ConfigError(f"kind {self.kind!r} runs one N; only kind 'bounds' sweeps a list")
        if self.kind == "pgibbs" and self.replicates != 1:
            raise ConfigError("kind 'pgibbs' writes one trace; replicates must be 1")

    @property
    def n_sweep(self) -> list:
        return list(self.N) if isinstance(self.N, list) else [self.N]


def _is_int(value) -> bool:
    """An integer config value, as JSON gives it: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
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
    Raises ConfigError unless K is an integer >= 1, as for an unknown
    ``initial_law``.
    """
    K = _whole(K, 1, error=ConfigError, name="sticky level count K")
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


def _level_pairs(n_grid):
    """The start paths (n, 2n) and the paths of A_n, one pair per path of
    A_n for each level n in turn: (xs, ys)."""
    pairs = [(_sticky_set(n)[0], a) for n in n_grid for a in _sticky_set(n)]
    return [x for x, _ in pairs], [y for _, y in pairs]


def _level_stays(model: DiscreteFK, K: int, N: int, n_grid):
    """The levels ``n_grid`` as a list (1..K when None; a ConfigError names
    a level outside [1, K]) and per level n: the stay probability
    P(x_n, A_n) and the retained share from x_n, from one count-engine call
    for all levels; and its work."""
    levels = range(1, K + 1) if n_grid is None else n_grid
    n_grid = [_whole(n, 1, K + 1, error=ConfigError, name="level") for n in levels]
    plan = _Plan(model, N, *_level_pairs(n_grid), guard=_GUARD)
    entries, shares = plan.entries()
    return n_grid, entries[0::2] + entries[1::2], shares[0::2], plan.work


def sticky_experiment(K: int, N: int, n_grid=None, initial_law: str = "geometric"):
    """Exact escape diagnostics on the doubling-map model.

    For each start level n: the probability that one kernel step stays in
    the two-path level set, and the expected share of the terminal weight
    carried by the retained path.  Every level comes from one call of the
    count engine (:func:`pmcmc_lab.histogram.histogram_entries`), which
    raises OutcomeSpaceTooLarge past its guard before any array is built.
    """
    return _sticky_rows(K, N, n_grid, initial_law)[0]


def _sticky_rows(K: int, N: int, n_grid, initial_law: str):
    """:func:`sticky_experiment`'s rows and the count engine's work."""
    model = sticky_example_model(K, initial_law=initial_law)
    n_grid, stays, shares, work = _level_stays(model, K, N, n_grid)
    return [(n, float(stay), float(share)) for n, stay, share in zip(n_grid, stays, shares)], work


def sticky_control_rows(K: int, N: int, n_grid=None):
    """(n, stay probability, stay bound) on the bounded-weight control.

    The bound is 1 - eps (1 - pi(A_n)) with eps the bounded-weight
    minorization constant: P(x, A_n^c) >= eps pi(A_n^c) for every x.  The
    stays come from one count-engine call, as in :func:`sticky_experiment`.
    """
    return _control_rows(K, N, n_grid)[0]


def _control_rows(K: int, N: int, n_grid):
    """:func:`sticky_control_rows`'s rows and the count engine's work."""
    control = sticky_control_model(K)
    n_grid, stays, _, work = _level_stays(control, K, N, n_grid)
    eps = epsilon_bounded(control, N).epsilon
    target = exact_target(control)
    rows = []
    for n, stay in zip(n_grid, stays):
        pi_a = sum(target.prob(path) for path in _sticky_set(n))
        rows.append((n, float(stay), 1.0 - eps * (1.0 - pi_a)))
    return rows, work


# ---------------------------------------------------------------------------
# Batch-means variance estimation
# ---------------------------------------------------------------------------


def batch_means_variance(values, batch_count: int = 64) -> float:
    """Batch-means estimate of the asymptotic variance of averages of the
    evaluated values, a 1-d array along the chain (else DimensionMismatch).
    Raises TraceTooShort unless there are at least 2 batches of 2 values
    each, a whole number of batches.
    """
    batch_count = _whole(batch_count, 2, error=TraceTooShort, name="batch_count")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DimensionMismatch(f"batch means need a 1-d trace, got shape {values.shape}")
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
    details = KINDS[cfg.kind][1](cfg, out) or {}
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


def _load_model(cfg: ExperimentConfig, loader=load_model, name: str = "model"):
    """The config's model file read by ``loader``; a ConfigError when it is
    missing or cannot be read."""
    if not cfg.model_path:
        raise ConfigError(f"kind {cfg.kind!r} requires a {name}_path")
    try:
        return loader(cfg.model_path)
    except _UNREADABLE as exc:
        raise ConfigError(f"cannot read {name} {cfg.model_path}: {type(exc).__name__}: {exc}") from exc


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
            reports.append(epsilon_isir(float(sup_potentials(model)[0]) / gamma, n))
    _write_csv(out / "bounds.csv", report_rows(reports))


def _run_oracle(cfg: ExperimentConfig, out: Path) -> dict:
    """Write the enumerated kernel and its analyses; return the exact engine
    that ran with its histogram work count against the guard (manifest)."""
    model = _load_model(cfg)
    n = cfg.n_sweep[0]
    target = exact_target(model)
    chain, engine, work = _pn_matrix(model, n, None, target, _GUARD)
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
    return {"exact_engine": engine, "histogram_work": work, "guard": _GUARD}


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


def _write_trace(path: Path, sampler, n_steps: int, rng, T: int, labels) -> int:
    """Run row 0 of ``sampler`` ``n_steps`` steps; write a row per step of
    iteration, accepted, theta (a name from ``labels``), log_gamma_hat and
    state_1..T, each kept if its start state has it.  Returns the acceptances."""
    columns = {
        "accepted": (["accepted"], lambda s: [int(s.accepted[0])]),
        "thetas": (["theta"], lambda s: [labels[s.thetas[0]]]),
        "log_gammas": (["log_gamma_hat"], lambda s: [_fmt(s.log_gammas[0])]),
        "paths": ([f"state_{t}" for t in range(1, T + 1)], lambda s: s.paths[0].tolist()),
    }
    kept = [columns[name] for name in columns if getattr(sampler.start, name) is not None]
    rows = [["iteration"] + [h for head, _ in kept for h in head]]
    accepted = 0
    for step, s in enumerate(run_chain(sampler, n_steps, rng), 1):
        rows.append([step] + [v for _, values in kept for v in values(s)])
        accepted += 0 if s.accepted is None else int(s.accepted[0])
    _write_csv(path, rows)
    return accepted


def _run_pimh(cfg: ExperimentConfig, out: Path) -> None:
    model = _load_model(cfg)
    for r in range(cfg.replicates):
        rng = SubstreamRng(cfg.seed).spawn(r)
        sampler = pimh_sampler(model, cfg.n_sweep[0], 1, rng)
        accepted = _write_trace(out / f"pimh_{r}.csv", sampler, cfg.iterations, rng, model.T, ())
        _write_csv(
            out / f"pimh_{r}_summary.csv",
            [["steps", "acceptance_rate"], [cfg.iterations, _fmt(accepted / max(cfg.iterations, 1))]],
        )


def _run_pmmh(cfg: ExperimentConfig, out: Path) -> None:
    jm = _load_model(cfg, load_joint_model, "joint model")
    q = cfg.params.get("proposal_q", np.full((jm.J, jm.J), 1.0 / jm.J).tolist())
    for r in range(cfg.replicates):
        rng = SubstreamRng(cfg.seed).spawn(r)
        sampler = pmmh_sampler(jm, cfg.n_sweep[0], q, 1, rng)
        _write_trace(out / f"pmmh_{r}.csv", sampler, cfg.iterations, rng, jm.T, jm.thetas)


def _run_pgibbs(cfg: ExperimentConfig, out: Path) -> None:
    jm = _load_model(cfg, load_joint_model, "joint model")
    n = cfg.n_sweep[0]
    report = check_x_chain_orderings(jm, n)
    f_theta = np.zeros(jm.J)
    f_theta[0] = 1.0
    report2 = check_theta_chain_identities(jm, n, f_theta)
    rows = [["inequality", "worst_violation", "witness"]]
    for name, violation, witness in report + report2:
        violation = 0.0 if abs(violation) < RESIDUAL_FLOOR else violation
        rows.append([name, _fmt(violation), "" if witness is None else witness])
    _write_csv(out / "ordering_report.csv", rows)
    # A short chain trace for the record, from the most probable path; the
    # start parameter (0) is never read, as step 1 draws it given the path.
    enum = enumerate_joint(jm)
    x0 = enum.paths[int(np.argmax(enum.x_marginal))]
    sampler = pgibbs_sampler(jm, n, x0, 0, 1)
    rng = SubstreamRng(cfg.seed)
    _write_trace(out / "pgibbs_trace.csv", sampler, cfg.iterations, rng, jm.T, jm.thetas)


def _run_sticky(cfg: ExperimentConfig, out: Path) -> dict:
    """Write the escape experiment's rows and its control's; return the
    exact engine with each CSV's count-engine work against the guard
    (manifest)."""
    K = cfg.params.get("K", 16)
    if not _is_int(K) or K < 1:
        raise ConfigError(f"sticky param K = {K!r} must be an int >= 1")
    n_grid = cfg.params.get("n_grid")
    if n_grid is not None and not (
        isinstance(n_grid, list) and all(_is_int(n) and 1 <= n <= K for n in n_grid)
    ):
        raise ConfigError(f"sticky param n_grid = {n_grid!r} must be a list of ints in [1, {K}]")
    initial_law = cfg.params.get("initial_law", "geometric")
    rows, sticky_work = _sticky_rows(K, cfg.n_sweep[0], n_grid, initial_law)
    _write_csv(
        out / "sticky.csv",
        [["n", "stay_probability", "suff_expectation"]]
        + [[n, _fmt(stay), _fmt(suff)] for n, stay, suff in rows],
    )
    ctrl, control_work = _control_rows(K, cfg.n_sweep[0], n_grid)
    _write_csv(
        out / "sticky_control.csv",
        [["n", "stay_probability", "stay_bound"]]
        + [[n, _fmt(stay), _fmt(bound)] for n, stay, bound in ctrl],
    )
    work = {"sticky.csv": sticky_work, "sticky_control.csv": control_work}
    return {"exact_engine": "histogram", "histogram_work": work, "guard": _GUARD}


# The one list of experiment kinds: kind -> (CLI subcommand, runner).  The
# config check, :func:`run_experiment` and the CLI all read it.
KINDS = {
    "icsmc": ("simulate", _run_chain),
    "isir": ("simulate", _run_chain),
    "pimh": ("simulate", _run_pimh),
    "pmmh": ("simulate", _run_pmmh),
    "oracle": ("oracle", _run_oracle),
    "bounds": ("bounds", _run_bounds),
    "pgibbs": ("pgibbs", _run_pgibbs),
    "sticky": ("sticky", _run_sticky),
}
