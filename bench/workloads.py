"""The four benchmark workloads: inputs, timed jobs and oracle checks.

A workload is built from ``(seed, scale)``.  Building it is the set-up the
benchmark times as ``setup_s``: models, start paths and the exact oracle
references its checks need.  ``jobs()`` lists the calls of one timed pass;
each :class:`Job` states the work it does, so rates are computed from the
benchmark's own counts and never from the program's.  ``check()`` runs after
timing and compares the pass outputs with the exact oracle.

Every call into the program goes through a module attribute
(``exact_oracle.exact_pn_matrix``, not a name bound at import), so the
tracer's wrappers are seen.

The models are copies of the fixtures in ``tests/fixtures.py`` and of the
acceptance suite's ``_grid_model`` -- copies, so that a later edit of the
tests does not change what the benchmark measures -- plus
``harness.sticky_example_model``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pmcmc_lab import (
    c2smc,
    cli,
    csmc,
    exact_oracle,
    fk_model,
    harness,
    pgibbs,
    replicated,
)
from pmcmc_lab.errors import AssertionFailure

WORKLOADS = ("replicated-sweep", "scalar-cli", "oracle-wide", "oracle-deep")
SWEEP_NS = (4, 8, 16, 32, 64, 128, 256)
CLI_KINDS = ("icsmc", "pimh", "pmmh", "pgibbs", "bounds", "oracle", "sticky")

# A sampled histogram cell may sit this many binomial standard deviations
# from its exact expected count; exact kernel rows must agree to _ROW_TOL.
_SIGMAS = 5.0
_MIN_EXPECTED = 20
_ROW_TOL = 1e-12


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def model_a():
    return fk_model.build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.75, 0.25], [0.25, 0.75]]], [[1.0, 2.0], [1.0, 3.0]]
    )


def model_b():
    return fk_model.build_discrete_model(
        [0, 1],
        [0.3, 0.7],
        [[[0.6, 0.4], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]],
        [[1.0, 0.5], [2.0, 1.0], [0.5, 1.5]],
    )


def model_d():
    return fk_model.build_discrete_model(
        [0, 1, 2],
        [0.2, 0.5, 0.3],
        [[[0.4, 0.3, 0.3], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]],
        [[1.0, 2.0, 1.5], [0.5, 1.0, 2.0]],
    )


def model_e():
    return fk_model.build_discrete_model(
        [0, 1, 2],
        [0.25, 0.4, 0.35],
        [
            [[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
            [[0.6, 0.2, 0.2], [0.25, 0.5, 0.25], [0.1, 0.45, 0.45]],
        ],
        [[1.0, 1.5, 0.5], [2.0, 1.0, 1.0], [0.5, 1.0, 2.5]],
    )


def grid_model(T: int, S: int):
    """Deterministic strictly positive tables (the acceptance grid cell)."""
    m1 = np.arange(1, S + 1, dtype=float)
    m1 /= m1.sum()
    mats = []
    for t in range(T - 1):
        mat = np.array(
            [[1.0 + ((i + j + t) % S) + 0.5 * ((i * j + t) % 2) for j in range(S)] for i in range(S)]
        )
        mats.append((mat / mat.sum(axis=1, keepdims=True)).tolist())
    gs = [
        [0.5 + ((s + 2 * t) % (S + 1)) + 0.25 * ((s * (t + 1)) % 3) for s in range(S)]
        for t in range(T)
    ]
    return fk_model.build_discrete_model(list(range(S)), m1.tolist(), mats, gs)


def joint_two_time():
    m_b = fk_model.build_discrete_model(
        [0, 1], [0.5, 0.5], [[[0.5, 0.5], [0.6, 0.4]]], [[2.0, 1.0], [1.0, 1.5]]
    )
    return pgibbs.build_joint_model(["a", "b"], [0.4, 0.6], [model_a(), m_b])


def joint_of(first, second):
    """Two parameter values over two models of equal horizon and alphabet."""
    return pgibbs.build_joint_model([0, 1], [0.5, 0.5], [first, second])


def reversed_weights(model):
    """The same chain with each weight vector reversed over the alphabet."""
    return fk_model.build_discrete_model(
        model.alphabet, model.m1, list(model.transitions), [g[::-1] for g in model.potentials]
    )


def path_sum(chain) -> np.ndarray:
    """The test function of every variance figure: f(x) = sum_t x_t."""
    return np.array([float(sum(p)) for p in chain.states])


def multiset_chain(model, N: int, target=None):
    """Exact kernel from the exchangeability-collapsed engine only."""
    if target is None:
        target = fk_model.exact_target(model)
    index = {p: i for i, p in enumerate(target.paths)}
    K = np.zeros((len(index), len(index)))
    for i, x in enumerate(target.paths):
        for path, p in exact_oracle.kernel_row_multiset(model, N, x).items():
            K[i, index[path]] += p
    return exact_oracle.FiniteChain(states=target.paths, kernel=K, stationary=target.probabilities.copy())


# ---------------------------------------------------------------------------
# Jobs and checks
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One call of a timed pass and the work it stands for.

    ``steps`` counts chain steps (replicates x iterations), ``particle_times``
    the particle-time units of those steps (N x T per particle pass), ``rows``
    the exact kernel rows the call returns.  ``var_key`` names the exact
    asymptotic variance of the chain the call samples, as the workload's
    ``variances()`` reports it.  ``n`` is the particle count, ``sweep`` marks
    the replicated sweep over N, ``cli_kind`` the CLI kind.
    """

    name: str
    fn: Callable
    steps: int = 0
    particle_times: int = 0
    rows: int = 0
    var_key: str | None = None
    n: int | None = None
    sweep: bool = False
    cli_kind: str | None = None


@dataclass
class Checks:
    """Outcome of the oracle checks: one entry per check, failures named."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def histogram_within(samples, law: dict, label: str, checks: Checks) -> None:
    """Counts of the sampled outcomes against an exact law, cell by cell.

    Each cell's count must lie within 5 sigma of R p.  Cells expected fewer
    than _MIN_EXPECTED times are pooled into one, since the normal
    approximation fails for them (6 hits where 0.94 are expected reads
    5.2 sigma).  An outcome with zero exact probability fails at once.
    """
    R = len(samples)
    counts: dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    stray = [c for c in counts if law.get(c, 0.0) <= 0.0]
    if stray:
        checks.expect(False, f"{label}: outcome {stray[0]} has zero exact probability")
        return
    cells = [([c], p) for c, p in law.items() if R * p >= _MIN_EXPECTED]
    rare = [c for c, p in law.items() if R * p < _MIN_EXPECTED]
    if rare:
        cells.append((rare, sum(law[c] for c in rare)))
    worst = 0.0
    for members, p in cells:
        hits = sum(counts.get(c, 0) for c in members)
        sigma = np.sqrt(R * p * (1.0 - p))
        worst = max(worst, abs(hits - R * p) / sigma if sigma > 0 else float(hits != R))
    checks.expect(worst <= _SIGMAS, f"{label}: worst cell {worst:.2f} sigma")


def rows_agree(chain, model, N: int, starts, label: str, checks: Checks) -> None:
    """Chosen rows of an enumerated kernel against the multiset engine."""
    index = {p: i for i, p in enumerate(chain.states)}
    for x in starts:
        ref = exact_oracle.kernel_row_multiset(model, N, x)
        got = chain.kernel[index[x]]
        err = max(abs(got[index[p]] - ref.get(p, 0.0)) for p in chain.states)
        checks.expect(err <= _ROW_TOL, f"{label}: row {x} differs by {err:.1e}")


def stationary_is_target(chain, target, label: str, checks: Checks) -> None:
    pi = target.probabilities
    same_states = tuple(chain.states) == tuple(target.paths)
    resid = float(np.max(np.abs(pi @ chain.kernel - pi))) if same_states else float("inf")
    checks.expect(resid <= 1e-10, f"{label}: pi K - pi = {resid:.1e}")


def sticky_stay(row: dict, n: int) -> float:
    """Probability that one step from (n, 2n) stays in {(n, 2n), (n, 2n+1)}."""
    return sum(p for path, p in row.items() if path in ((n - 1, 2 * n - 1), (n - 1, 2 * n)))


def _pick(rng: np.random.Generator, items, k: int):
    items = list(items)
    idx = rng.choice(len(items), size=min(k, len(items)), replace=False)
    return [items[i] for i in sorted(idx)]


# ---------------------------------------------------------------------------
# replicated-sweep
# ---------------------------------------------------------------------------


class ReplicatedSweep:
    """Batched chains at a fixed particle budget R x N, N swept 4..256.

    The replicated layer does nearly all the work.  Model A adds a short
    sweep whose exact kernels, from the multiset engine, give the exact
    asymptotic variance behind ``var_x_cost`` and the efficiency report.
    """

    def __init__(self, seed: int, scale: str = "full", workdir=None):
        tiny = scale == "tiny"
        self.seed = seed
        self.gen = np.random.default_rng(seed)
        self.model = grid_model(4, 3)
        self.jm = joint_of(self.model, reversed_weights(self.model))
        self.a = self.var_model = model_a()
        self.ns = SWEEP_NS[:2] if tiny else SWEEP_NS
        self.budget = 256 if tiny else 65536
        self.steps = 2 if tiny else 1
        self.a_ns = (2, 3) if tiny else (2, 3, 4, 6, 8, 12, 16)
        self.a_steps = 2 if tiny else 8
        target = fk_model.exact_target(self.model)
        self.x0 = target.paths[int(self.gen.integers(len(target.paths)))]
        self.theta0 = int(self.gen.integers(2))
        self.a_target = fk_model.exact_target(self.a)
        self.a_x0 = self.a_target.paths[int(self.gen.integers(len(self.a_target.paths)))]
        # Oracle references of the one-step histogram checks.
        self.check_r = 2000 if tiny else 20000
        self.xc = target.paths[int(self.gen.integers(len(target.paths)))]
        self.ref_icsmc = {n: exact_oracle.kernel_row(self.model, n, self.xc) for n in (2, 3)}
        self.enum = pgibbs.enumerate_joint(self.jm)
        self.ref_pgibbs = [exact_oracle.kernel_row(m, 2, self.xc) for m in self.jm.models]
        self.ref_pimh = self._selected_path_law(self.a, 3)

    @staticmethod
    def _selected_path_law(model, N: int) -> dict:
        """Exact law of the path a plain pass selects (the PIMH proposal)."""
        law: dict = {}
        for prob, states, ancestors in exact_oracle.enumerate_conditional_outcomes(model, N, []):
            w = exact_oracle.final_selection_weights(model, states)
            for k in np.flatnonzero(w):
                path = exact_oracle.trace_lineage(states, ancestors, int(k))
                law[path] = law.get(path, 0.0) + prob * float(w[k])
        return law

    def jobs(self):
        T, seed, s = self.model.T, self.seed, self.steps
        out = []
        for N in self.ns:
            R = self.budget // N
            pt = R * s * N * T
            out += [
                Job(f"icsmc.N{N}", lambda N=N, R=R: replicated.icsmc_replicated(
                    self.model, N, self.x0, R, s, seed), steps=R * s, particle_times=pt, n=N, sweep=True),
                Job(f"pimh.N{N}", lambda N=N, R=R: replicated.pimh_replicated(
                    self.model, N, R, s, seed), steps=R * s, particle_times=R * (s + 1) * N * T,
                    n=N, sweep=True),
                Job(f"pgibbs.N{N}", lambda N=N, R=R: replicated.pgibbs_replicated(
                    self.jm, N, R, s, seed, self.x0, self.theta0), steps=R * s, particle_times=pt,
                    n=N, sweep=True),
            ]
        out.append(Job("oracle.A", self._a_oracle, rows=len(self.a_target.paths) * len(self.a_ns)))
        for N in self.a_ns:
            R = self.budget // N
            out.append(Job(
                f"icsmc.A.N{N}",
                lambda N=N, R=R: replicated.icsmc_replicated(self.a, N, self.a_x0, R, self.a_steps, seed),
                steps=R * self.a_steps, particle_times=R * self.a_steps * N * self.a.T,
                var_key=f"A.N{N}", n=N,
            ))
        return out

    def _a_oracle(self):
        """Exact variance of f on model A at each swept N."""
        out = {}
        for N in self.a_ns:
            chain = multiset_chain(self.a, N, target=self.a_target)
            out[f"A.N{N}"] = exact_oracle.exact_asymptotic_variance(chain, path_sum(chain))
        return out

    def variances(self, outputs) -> dict:
        return outputs["oracle.A"]

    def check(self, outputs, checks: Checks) -> None:
        for name, value in outputs.items():
            if name.startswith("icsmc."):
                model = self.a if name.startswith("icsmc.A.") else self.model
                ok = value.shape[1] == model.T and value.min() >= 0 and value.max() < model.n_states
                checks.expect(ok, f"{name}: final paths outside the state space")
        for name, var in outputs["oracle.A"].items():
            checks.expect(np.isfinite(var) and var > 0, f"{name}: variance {var}")
        R = self.check_r
        for N, law in self.ref_icsmc.items():
            x = np.tile(np.asarray(self.xc, dtype=int), (R, 1))
            paths = replicated.csmc_step_replicated(self.model, N, x, self.seed + 1, base=1)
            histogram_within([tuple(r) for r in paths], law, f"icsmc one step N={N}", checks)
        thetas, paths = replicated.pgibbs_replicated(self.jm, 2, R, 1, self.seed + 2, self.xc, 0)
        cond = self.enum.cond_theta[self.enum.path_index(self.xc)]
        joint_law = {
            (j, p): float(cond[j]) * q for j, row in enumerate(self.ref_pgibbs) for p, q in row.items()
        }
        histogram_within(
            [(int(j), tuple(r)) for j, r in zip(thetas, paths)], joint_law, "pgibbs one step N=2", checks
        )
        paths, _ = replicated.smc_replicated(self.a, 3, R, self.seed + 3)
        histogram_within([tuple(r) for r in paths], self.ref_pimh, "pimh proposal N=3", checks)

    def derived(self, outputs) -> dict:
        rates = [value[1] for name, value in outputs.items() if name.startswith("pimh.")]
        return {"pgibbs.pimh.acceptance": float(np.mean(rates))}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# scalar-cli
# ---------------------------------------------------------------------------


def _joint_dict(jm) -> dict:
    base = jm.models[0]
    return {
        "T": base.T,
        "alphabet": list(base.alphabet),
        "thetas": list(jm.thetas),
        "prior": jm.prior.tolist(),
        "models": [
            {"m1": m.m1.tolist(), "m": [a.tolist() for a in m.transitions],
             "g": [g.tolist() for g in m.potentials]}
            for m in jm.models
        ],
    }


class ScalarCli:
    """Every ``pmcmc-lab`` subcommand, in process, on fixture models.

    Each pass writes into a fresh output directory; the checks compare the
    CSV bodies of all passes, which share one seed, byte for byte.
    """

    def __init__(self, seed: int, scale: str = "full", workdir=None):
        tiny = scale == "tiny"
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cli_seed = int(np.random.default_rng(seed).integers(1 << 31))
        self.iterations = 20 if tiny else 300
        self.icsmc_ns = (2, 3) if tiny else (2, 4, 6, 8)
        self.sticky_k = 3 if tiny else 4
        a, b, e, jm = model_a(), model_b(), model_e(), joint_two_time()
        for label, m in (("A", a), ("B", b), ("E", e)):
            m.save(self.dir / f"{label}.json")
        (self.dir / "J.json").write_text(json.dumps(_joint_dict(jm)))
        it = self.iterations
        specs = [(f"icsmc.N{n}", "simulate", {"kind": "icsmc", "model_path": "A.json", "N": n,
                                              "iterations": it}) for n in self.icsmc_ns]
        specs += [
            ("pimh", "simulate", {"kind": "pimh", "model_path": "B.json", "N": 4, "iterations": it}),
            ("pmmh", "simulate", {"kind": "pmmh", "model_path": "J.json", "N": 4, "iterations": it}),
            ("pgibbs", "pgibbs", {"kind": "pgibbs", "model_path": "J.json", "N": 3, "iterations": it}),
            ("bounds", "bounds", {"kind": "bounds", "model_path": "E.json", "N": [2, 4, 8, 16]}),
            ("oracle", "oracle", {"kind": "oracle", "model_path": "B.json", "N": 3, "iterations": 50}),
            ("sticky", "sticky", {"kind": "sticky", "N": 3, "params": {"K": self.sticky_k}}),
        ]
        self.specs = []
        for name, sub, cfg in specs:
            if "model_path" in cfg:
                cfg["model_path"] = str(self.dir / cfg["model_path"])
            path = self.dir / f"{name}.cfg.json"
            path.write_text(json.dumps(cfg))
            self.specs.append((name, sub, cfg, path))
        self.models = {"A": a, "B": b, "J": jm}
        self.var_model = a
        self.pass_count = 0
        self.pass_dirs = []
        # Oracle references: variances for var_x_cost and the kernels the
        # oracle and sticky outputs must reproduce.
        self.var = {}
        for n in self.icsmc_ns:
            chain = multiset_chain(a, n)
            self.var[f"icsmc.N{n}"] = exact_oracle.exact_asymptotic_variance(chain, path_sum(chain))
        self.ref_oracle = multiset_chain(b, 3)
        sticky = harness.sticky_example_model(self.sticky_k)
        self.ref_sticky = {
            n: exact_oracle.kernel_row_multiset(sticky, 3, (n - 1, 2 * n - 1))
            for n in range(1, self.sticky_k + 1)
        }

    def _steps_of(self, cfg) -> tuple:
        """Chain steps and particle-times of one chain kind's run.

        PIMH and PMMH run one plain pass before their first step.
        """
        kind, it = cfg["kind"], cfg.get("iterations", 0)
        model = {"icsmc": "A", "pimh": "B", "pmmh": "J", "pgibbs": "J"}.get(kind)
        if model is None:
            return 0, 0
        passes = it + 1 if kind in ("pimh", "pmmh") else it
        return it, passes * cfg["N"] * self.models[model].T

    def jobs(self):
        self.pass_count += 1
        out_root = self.dir / f"pass{self.pass_count}"
        self.pass_dirs.append(out_root)
        out = []
        for name, sub, cfg, path in self.specs:
            steps, pt = self._steps_of(cfg)
            rows = {"oracle": len(self.ref_oracle.states), "sticky": 2 * self.sticky_k}.get(name, 0)
            argv = [sub, "--config", str(path), "--out", str(out_root / name), "--seed", str(self.cli_seed)]
            var_key = name if cfg["kind"] == "icsmc" else None
            out.append(Job(name, lambda argv=argv: _quiet_main(argv), steps=steps, particle_times=pt,
                           rows=rows, var_key=var_key, n=cfg["N"] if steps else None,
                           cli_kind=cfg["kind"]))
        return out

    def check(self, outputs, checks: Checks) -> None:
        for name, code in outputs.items():
            checks.expect(code == 0, f"{name}: exit code {code}")
        first = _csv_bodies(self.pass_dirs[0])
        checks.expect(len(first) > 0, "no CSV written")
        for d in self.pass_dirs[1:]:
            checks.expect(_csv_bodies(d) == first, f"{d.name}: CSV bodies differ from pass1")
        # Oracle kernel and sticky stay probabilities against the references.
        kernel = {}
        for row in first.get("oracle/kernel.csv", b"").decode().splitlines()[1:]:
            x, y, p = row.split(",")
            kernel[(x, y)] = float(p)
        labels = ["|".join(map(str, s)) for s in self.ref_oracle.states]
        err = max(
            (abs(kernel.get((labels[i], labels[j]), float("nan")) - self.ref_oracle.kernel[i, j])
             for i in range(len(labels)) for j in range(len(labels))),
            default=float("inf"),
        )
        checks.expect(err <= _ROW_TOL, f"oracle kernel.csv differs from the reference by {err:.1e}")
        stays = {}
        for row in first.get("sticky/sticky.csv", b"").decode().splitlines()[1:]:
            n, stay, _ = row.split(",")
            stays[int(n)] = float(stay)
        for n, ref_row in self.ref_sticky.items():
            want, got = sticky_stay(ref_row, n), stays.get(n, float("nan"))
            checks.expect(abs(got - want) <= _ROW_TOL, f"sticky n={n}: {got} vs {want}")

    def derived(self, outputs) -> dict:
        last = self.pass_dirs[-1]
        summary = (last / "pimh" / "pimh_0_summary.csv").read_text().splitlines()[1]
        return {
            "pgibbs.pimh.acceptance": float(summary.split(",")[1]),
            "harness.csv_bytes": float(sum(len(b) for b in _csv_bodies(last).values())),
        }

    def variances(self, outputs) -> dict:
        return self.var

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _csv_bodies(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.csv"))
    }


# ---------------------------------------------------------------------------
# oracle workloads
# ---------------------------------------------------------------------------


class _OracleWorkload:
    """Shared shape of the two oracle workloads.

    Every matrix job enumerates one kernel with ``exact_pn_matrix`` and, for
    the models named in ``analyse``, runs the chain analyses on it.  A short
    scalar i-CSMC chain on the first analysed model prices the exact
    variance the pass computes, which gives ``var_x_cost`` and
    ``chain_steps_per_s``; it is 8-10% of the pass.
    """

    check_rows = 3

    def _setup(self, seed, models, cases, chain_steps, lineage_case=None):
        self.seed = seed
        self.gen = np.random.default_rng(seed)
        self.models = models
        self.targets = {k: fk_model.exact_target(m) for k, m in models.items()}
        self.cases = cases                      # (model key, N, analyse)
        self.lineage_case = lineage_case        # (model key, N) or None
        self.chain_steps = chain_steps
        if lineage_case is not None:
            key, n = lineage_case
            self.lineage = tuple(int(v) for v in self.gen.integers(n, size=models[key].T))
        self.chain_key = next(k for k, _, a in cases if a)
        self.var_model = models[self.chain_key]
        self.x0 = {k: t.paths[int(self.gen.integers(len(t.paths)))] for k, t in self.targets.items()}

    def _matrix(self, key, N, analyse, lineage=None):
        model, target = self.models[key], self.targets[key]
        chain = exact_oracle.exact_pn_matrix(model, N, lineage=lineage, target=target)
        out = {"chain": chain}
        if analyse:
            out["spectral"] = exact_oracle.spectral_summary(chain)
            out["var"] = exact_oracle.exact_asymptotic_variance(chain, path_sum(chain))
            out["tv"] = exact_oracle.tv_curve(chain, target.index(self.x0[key]), 50)
        return out

    def _matrix_jobs(self):
        out = []
        for key, N, analyse in self.cases:
            out.append(Job(f"pn.{key}.N{N}", lambda key=key, N=N, a=analyse: self._matrix(key, N, a),
                           rows=len(self.targets[key].paths)))
        if self.lineage_case is not None:
            key, N = self.lineage_case
            out.append(Job(f"pn.{key}.N{N}.lineage",
                           lambda key=key, N=N: self._matrix(key, N, False, lineage=self.lineage),
                           rows=len(self.targets[key].paths)))
        key, model = self.chain_key, self.var_model
        x0 = csmc.Trajectory(points=self.x0[key])
        for k, N, a in self.cases:
            if k == key and a:
                out.append(Job(
                    f"chain.{key}.N{N}",
                    lambda N=N: csmc.icsmc_chain(model, N, x0, self.chain_steps, self.seed),
                    steps=self.chain_steps, particle_times=self.chain_steps * N * model.T,
                    var_key=f"pn.{key}.N{N}", n=N,
                ))
        return out

    def variances(self, outputs) -> dict:
        return {name: v["var"] for name, v in outputs.items() if isinstance(v, dict) and "var" in v}

    def _check_matrices(self, outputs, checks: Checks, cheap_n: int) -> None:
        for key, N, _ in self.cases:
            chain = outputs[f"pn.{key}.N{N}"]["chain"]
            stationary_is_target(chain, self.targets[key], f"pn.{key}.N{N}", checks)
            if N <= cheap_n:
                starts = _pick(self.gen, chain.states, self.check_rows)
                rows_agree(chain, self.models[key], N, starts, f"pn.{key}.N{N}", checks)
        if self.lineage_case is not None:
            key, N = self.lineage_case
            chain = outputs[f"pn.{key}.N{N}.lineage"]["chain"]
            stationary_is_target(chain, self.targets[key], f"lineage {self.lineage}", checks)
            rows_agree(chain, self.models[key], N, chain.states, f"lineage {self.lineage}", checks)
        for name, value in outputs.items():
            if name.startswith("chain."):
                support = set(self.targets[name.split(".")[1]].paths)
                ok = all(tuple(int(s) for s in row) in support for row in value.states)
                checks.expect(ok, f"{name}: a visited path lies outside the target support")

    def derived(self, outputs) -> dict:
        return {}

    def close(self) -> None:
        pass


class OracleWide(_OracleWorkload):
    """Many rows at small N: 27-path models, the inequality suites, the
    two-pin closed form against brute force and the sticky experiment."""

    def __init__(self, seed: int, scale: str = "full", workdir=None):
        tiny = scale == "tiny"
        e, g33 = model_e(), grid_model(3, 3)
        models = {"E": e} if tiny else {"E": e, "G33": g33}
        cases = [("E", 2, True)] if tiny else [("E", 2, True), ("E", 3, True),
                                              ("G33", 2, True), ("G33", 3, True)]
        self._setup(seed, models, cases, chain_steps=10 if tiny else 500)
        self.suites = [(joint_two_time(), 2)] if tiny else [
            (joint_two_time(), 2), (joint_two_time(), 3), (joint_of(e, g33), 2)]
        paths = self.targets["E"].paths
        self.c2_n = 3
        self.c2_pairs = [tuple(_pick(self.gen, paths, 2)) for _ in range(3 if tiny else 40)]
        self.sticky_k = 4 if tiny else 16
        sticky = harness.sticky_example_model(self.sticky_k)
        picked = _pick(self.gen, range(1, self.sticky_k + 1), 2 if tiny else 4)
        self.ref_sticky = {
            n: exact_oracle.kernel_row_multiset(sticky, 3, (n - 1, 2 * n - 1)) for n in picked
        }

    def jobs(self):
        out = self._matrix_jobs()
        out.append(Job("suites", self._suites))
        out.append(Job("c2smc", self._c2smc))
        out.append(Job("sticky", lambda: harness.sticky_experiment(self.sticky_k, 3), rows=self.sticky_k))
        return out

    def _suites(self):
        reports = []
        for jm, N in self.suites:
            f_theta = np.zeros(jm.J)
            f_theta[0] = 1.0
            try:
                reports.append(pgibbs.check_x_chain_orderings(jm, N))
                reports.append(pgibbs.check_theta_chain_identities(jm, N, f_theta))
            except AssertionFailure as exc:
                reports.append(exc)
        return reports

    def _c2smc(self):
        e = self.models["E"]
        return [
            (c2smc.c2smc_expectation_closed_form(e, self.c2_n, x, y),
             c2smc.c2smc_expectation_bruteforce(e, self.c2_n, x, y))
            for x, y in self.c2_pairs
        ]

    def check(self, outputs, checks: Checks) -> None:
        self._check_matrices(outputs, checks, cheap_n=3)
        for report in outputs["suites"]:
            checks.expect(not isinstance(report, AssertionFailure), f"suite: {report}")
        worst = max(abs(c - b) / abs(b) for c, b in outputs["c2smc"])
        checks.expect(worst <= 1e-10, f"c2smc closed form vs brute force: rel {worst:.1e}")
        stays = {n: stay for n, stay, _ in outputs["sticky"]}
        for n, ref_row in self.ref_sticky.items():
            want = sticky_stay(ref_row, n)
            checks.expect(abs(stays[n] - want) <= _ROW_TOL, f"sticky n={n}: {stays[n]} vs {want}")


class OracleDeep(_OracleWorkload):
    """Few rows at large N: 4-9-path models at N=4..6, two of them refused
    by the slot-faithful guard and completed by the multiset fallback, plus
    one lineage-pinned matrix that must stay slot-faithful."""

    def __init__(self, seed: int, scale: str = "full", workdir=None):
        tiny = scale == "tiny"
        models = {"A": model_a(), "B": model_b()}
        if tiny:
            cases = [("A", 3, True), ("B", 6, False)]
        else:
            models.update({"D": model_d(), "G23": grid_model(2, 3)})
            cases = [("A", 4, True), ("A", 5, True), ("B", 4, False), ("B", 6, False),
                     ("D", 6, False), ("G23", 4, False)]
        self._setup(seed, models, cases, chain_steps=10 if tiny else 500,
                    lineage_case=("A", 3 if tiny else 4))

    def jobs(self):
        return self._matrix_jobs()

    def check(self, outputs, checks: Checks) -> None:
        self._check_matrices(outputs, checks, cheap_n=5)


def build(name: str, seed: int, scale: str = "full", workdir=None):
    cls = {
        "replicated-sweep": ReplicatedSweep,
        "scalar-cli": ScalarCli,
        "oracle-wide": OracleWide,
        "oracle-deep": OracleDeep,
    }[name]
    return cls(seed, scale=scale, workdir=workdir)
