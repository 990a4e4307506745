"""Tracer completeness at a tiny size, for every workload.

    python3 -m pytest bench -q -s

Each workload runs end to end with tracing on: every per-layer metric named
in ``BENCHMARK.json`` must be produced and every check must pass.  One more
traced pass is compared call by call with counts derived from the workload's
own sizes, which catches a wrapper that missed a binding such as
``harness.run_smc``.  Timings are printed, never asserted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from pmcmc_lab import exact_oracle, fk_model  # noqa: E402
from pmcmc_lab.errors import OutcomeSpaceTooLarge  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(name, tmp_path):
    w = workloads.build(name, 3, scale="tiny", workdir=tmp_path / "work")
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(w, tracer)
    finally:
        tracer.uninstall()
        w.close()
    assert not p.errors
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:5]
    print(f"\n{name}: pass {p.wall:.3f}s; top self time: "
          + ", ".join(f"{k} {st.self_s:.3f}s" for k, st in top))
    return w, {k: st.calls for k, st in tracer.stats.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_produces_every_per_layer_metric(name):
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=1)
    result = run.run(args, SPEC, scale="tiny")
    assert result["correct"], result
    assert result["failed"] == 0
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in result["metrics"]]
    assert not missing
    print(f"\n{name}: trace.overhead {result['metrics']['trace.overhead']['value']:.3f}")


def test_untraced_run_produces_every_end_to_end_metric():
    args = argparse.Namespace(workload="oracle-deep", seed=3, seconds=0.0, trace=0)
    result = run.run(args, SPEC, scale="tiny")
    assert result["correct"], result
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_replicated_counts(tmp_path):
    w, calls = traced_pass("replicated-sweep", tmp_path)
    s, ns, a_ns = w.steps, len(w.ns), len(w.a_ns)
    assert calls["replicated.icsmc_replicated"] == ns + a_ns
    # pgibbs runs one batched pinned pass per parameter value present.
    csmc_fixed = s * ns + w.a_steps * a_ns
    assert csmc_fixed + s * ns <= calls["replicated.csmc_step_replicated"] <= csmc_fixed + 2 * s * ns
    assert calls["replicated.smc_replicated"] == (s + 1) * ns
    assert calls["pgibbs.enumerate_joint"] == ns
    assert calls["exact_oracle.kernel_row_multiset"] == len(w.a_target.paths) * a_ns
    assert calls["rng.stream"] > 0


def test_scalar_cli_counts(tmp_path):
    w, calls = traced_pass("scalar-cli", tmp_path)
    it, jobs = w.iterations, len(w.specs)
    assert calls["cli.main"] == jobs
    assert calls["harness.run_experiment"] == jobs
    # PIMH and PMMH each run one plain pass before their first step.
    assert calls["smc_core.run_smc"] == 2 * (it + 1)
    assert calls["pgibbs.pimh_step"] == calls["pgibbs.pmmh_step"] == calls["pgibbs.pgibbs_step"] == it
    assert calls["csmc.conditional_system"] == it * len(w.icsmc_ns) + it
    assert calls["csmc.icsmc_chain"] == len(w.icsmc_ns)
    # Four N for the bounds kind, one for the sticky control.
    assert calls["bounds.epsilon_bounded"] == 4 + 1
    assert calls["exact_oracle.exact_pn_matrix"] >= 1
    assert calls["rng.stream"] > calls["csmc.conditional_system"]


def test_oracle_wide_counts(tmp_path):
    w, calls = traced_pass("oracle-wide", tmp_path)
    chains = sum(1 for k, _, a in w.cases if a and w.models[k] is w.var_model)
    assert calls["c2smc.c2smc_expectation_closed_form"] == len(w.c2_pairs)
    assert calls["c2smc.c2smc_expectation_bruteforce"] == len(w.c2_pairs)
    assert calls["pgibbs.check_x_chain_orderings"] == len(w.suites)
    assert calls["pgibbs.check_theta_chain_identities"] == len(w.suites)
    assert calls["harness.sticky_experiment"] == 1
    assert calls["exact_oracle.spectral_summary"] >= sum(1 for *_, a in w.cases if a)
    assert calls["csmc.icsmc_chain"] == chains
    assert calls["csmc.conditional_system"] == chains * w.chain_steps


def test_oracle_deep_counts(tmp_path):
    w, calls = traced_pass("oracle-deep", tmp_path)
    cases = [(k, n) for k, n, _ in w.cases] + [w.lineage_case]
    rows = {k: len(fk_model.exact_target(w.models[k]).paths) for k, _ in cases}

    def refused(key, n):
        try:
            exact_oracle.kernel_row(w.models[key], n, w.targets[key].paths[0])
        except OutcomeSpaceTooLarge:
            return True
        return False

    assert calls["exact_oracle.exact_pn_matrix"] == len(cases)
    # Every row is tried slot-faithful first; refused rows fall back once.
    assert calls["exact_oracle.kernel_row"] == sum(rows[k] for k, _ in cases)
    assert calls["exact_oracle.kernel_row_multiset"] == sum(rows[k] for k, n in cases if refused(k, n))
    assert calls["csmc.conditional_system"] == w.chain_steps * sum(
        1 for k, _, a in w.cases if a and w.models[k] is w.var_model)
