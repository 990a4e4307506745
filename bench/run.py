#!/usr/bin/env python3
"""The pmcmc-lab benchmark: one workload per run, checked against the exact oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller in this process runs timed
passes back to back (closed loop) until ``--seconds`` have passed, then
checks the outputs against the exact oracle outside the timed passes.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it spends half the time untraced and half traced, and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the lines before it show every metric with its
unit, the efficiency report and the run record, which is also written to
``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: eigh/lstsq would otherwise contend with the caller on a
# small machine.  Set before numpy is imported, here and in the set-up probes.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
# Reported times are in reference seconds: a job's time divided by the
# adjacent calibration-kernel time, times CAL_REF_S (see calibrate()).
CAL_REF_S = 0.010


def import_program():
    """Import the program from this checkout's ``src``; refuse anything else."""
    src = ROOT / "src"
    if not (src / "pmcmc_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import pmcmc_lab

    if Path(pmcmc_lab.__file__).resolve().parent != (src / "pmcmc_lab").resolve():
        raise SystemExit(f"bench: pmcmc_lab imported from {pmcmc_lab.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _calibration_kernel() -> float:
    """Fixed work in the program's two styles, calling nothing of the program:
    dict and tuple churn as in the oracle's dynamic programs, and small
    matrix products and gathers as in the replicated passes."""
    import numpy as np

    d: dict = {}
    for i in range(20000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0.0) + i * 0.5
    a = np.arange(40000, dtype=float).reshape(200, 200) / 40000
    for _ in range(4):
        a = a @ a
        a /= a.max()
    idx = (np.arange(200000) * 7919) % 40000
    return float(a.ravel()[idx].sum()) + len(d)


def calibrate() -> tuple:
    """Wall and CPU seconds of one calibration run.

    The machine this was tuned on runs up to 80% slower for stretches of
    10-30 s, CPU time included, so raw job times swing between runs by more
    than any useful bound.  Dividing a job's time by the calibration time
    measured just before and after it cancels the machine's speed of the
    moment; the kernel does not touch the program, so a change to the
    program still shows in full.
    """
    cpu, start = time.process_time(), time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - start, time.process_time() - cpu


@dataclass
class Pass:
    jobs: list
    times: dict       # raw wall seconds per job
    norm: dict        # reference seconds per job (wall)
    norm_cpu: dict    # reference seconds per job (CPU)
    outputs: dict
    errors: list
    wall: float       # raw wall seconds of the pass, calibration excluded
    layers: dict = field(default_factory=dict)


def run_pass(workload, tracer=None) -> Pass:
    jobs = workload.jobs()
    times, norm, norm_cpu, outputs, errors = {}, {}, {}, {}, []
    before = calibrate()
    for job in jobs:
        cpu, start = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                outputs[job.name] = job.fn()
            else:
                with tracer.span(f"bench.{job.name}"):
                    outputs[job.name] = job.fn()
        except Exception as exc:  # a failed operation is counted, never retried
            errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
            outputs[job.name] = None
        times[job.name] = time.perf_counter() - start
        cpu_s = time.process_time() - cpu
        after = calibrate()
        norm[job.name] = times[job.name] * CAL_REF_S * 2 / (before[0] + after[0])
        norm_cpu[job.name] = cpu_s * CAL_REF_S * 2 / max(before[1] + after[1], 1e-9)
        before = after
    return Pass(jobs, times, norm, norm_cpu, outputs, errors, sum(times.values()))


def measure(workload, seconds: float, tracer=None) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        p = run_pass(workload, tracer)
        if tracer is not None:
            p.layers = layer_metrics(tracer, p, workload)
        # Checks read the warm-up pass; holding every pass's outputs would
        # make peak memory grow with the number of passes.
        p.outputs = None
        passes.append(p)
    return passes


def job_medians(passes: list, attr: str = "norm") -> dict:
    """Each job's median over the passes, in reference seconds."""
    return {name: statistics.median(getattr(p, attr)[name] for p in passes)
            for name in getattr(passes[0], attr)}


def end_to_end(passes: list, variances: dict) -> dict:
    """End-to-end figures of one pass made of each job's median time.

    Rates divide by the time of the jobs that do that work.
    """
    jobs, med = passes[0].jobs, job_medians(passes)

    def busy(subset):
        return sum(med[j.name] for j in subset)

    stepping = [j for j in jobs if j.steps]
    rowing = [j for j in jobs if j.rows]
    priced = [j for j in jobs if j.var_key]
    return {
        "wall_s": busy(jobs),
        "cpu_s": sum(job_medians(passes, "norm_cpu").values()),
        "chain_steps_per_s": sum(j.steps for j in stepping) / busy(stepping),
        "ns_per_particle_time": busy(stepping) * 1e9 / sum(j.particle_times for j in stepping),
        "kernel_rows_per_s": sum(j.rows for j in rowing) / busy(rowing),
        "var_x_cost": min(variances[j.var_key] * med[j.name] / j.steps for j in priced),
    }


def layer_metrics(tracer, p: Pass, workload) -> dict:
    """Per-layer figures of one traced pass."""
    from workloads import CLI_KINDS, SWEEP_NS

    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
    stats = tracer.stats
    out["rng.stream.share"] = stats["rng.stream"].self_s / p.wall
    cs = stats["csmc.conditional_system"]
    out["csmc.us_per_step"] = cs.total_s / cs.calls * 1e6 if cs.calls else 0.0
    kr, krm = stats["exact_oracle.kernel_row"], stats["exact_oracle.kernel_row_multiset"]
    refused = kr.raised.get("OutcomeSpaceTooLarge", 0)
    out["exact_oracle.kernel_row.refused"] = refused
    attempts = kr.calls + krm.calls
    useful = attempts - refused - krm.raised.get("OutcomeSpaceTooLarge", 0)
    out["exact_oracle.rows_per_engine_call"] = useful / attempts if attempts else 0.0
    ns = {}
    for n in SWEEP_NS:
        jobs = [j for j in p.jobs if j.sweep and j.n == n]
        pt = sum(j.particle_times for j in jobs)
        ns[n] = sum(p.norm[j.name] for j in jobs) * 1e9 / pt if pt else 0.0
        out[f"replicated.ns_per_particle_time.N{n}"] = ns[n]
    swept = [n for n in SWEEP_NS if ns[n]]
    out["replicated.scaling_ratio"] = ns[swept[-1]] / ns[swept[0]] if swept else 0.0
    for kind in CLI_KINDS:
        out[f"cli.main.{kind}.s"] = sum(p.norm[j.name] for j in p.jobs if j.cli_kind == kind)
    out.update({"pgibbs.pimh.acceptance": 0.0, "harness.csv_bytes": 0.0})
    out.update(workload.derived(p.outputs))
    return out


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def high_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    import numpy as np

    p = int(100 * (1 - 10 / n))
    return [p, float(np.percentile(values, p))]


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Import, build the workload and its oracle references; print the time
    in reference seconds (calibrated after the set-up, in the same process)."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workdir = OUT / f"probe-{os.getpid()}"
    w = workloads.build(name, seed, workdir=workdir)
    elapsed = time.perf_counter() - t0
    w.close()
    cal = statistics.median(calibrate()[0] for _ in range(5))
    print(json.dumps({"setup_s": elapsed * CAL_REF_S / cal, "raw_setup_s": elapsed}))


def setup_times(name: str, seed: int) -> tuple:
    """Median over fresh processes, so the import is measured every time."""
    samples, failures = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        try:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        except (IndexError, KeyError, ValueError):
            failures.append(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return samples, failures


# ---------------------------------------------------------------------------
# Run record and report
# ---------------------------------------------------------------------------


def git_commit():
    """The checked-out commit, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_config() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack") if k in deps}


def run_record(args, passes: dict, probes: list) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_average": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_config(),
        "blas_thread_pins": BLAS_PINS,
        "git_commit": git_commit(),
        "callers": 1,
        "samples": {
            phase: {
                "passes": len(ps),
                "wall_s": {"median": statistics.median(p.wall for p in ps),
                           "high_percentile": high_percentile([p.wall for p in ps])},
            }
            for phase, ps in passes.items()
        },
        "setup_probes": {"n": len(probes), "values": probes},
        "job_times": {phase: {name: [p.times[name] for p in ps] for name in ps[0].times}
                      for phase, ps in passes.items()},
    }


def efficiency_report(workload, timed: list, variances: dict) -> list:
    """Exact variance x seconds per step for each priced N, and C* T beside it."""
    from pmcmc_lab import bounds, c2smc

    lines = ["efficiency (f = sum of states; exact variance x reference seconds per chain step):",
             f"  {'N':>4} {'variance':>12} {'s/step':>12} {'product':>12}"]
    times = job_medians(timed)
    best = None
    for job in (j for j in timed[0].jobs if j.var_key):
        per_step = times[job.name] / job.steps
        var = variances[job.var_key]
        lines.append(f"  {job.n:>4} {var:12.6g} {per_step:12.6g} {var * per_step:12.6g}")
        if best is None or var * per_step < best[1]:
            best = (job.n, var * per_step)
    model = workload.var_model
    alpha = c2smc.alpha_constant(model)
    c_star, _ = bounds.tuning_c_star(alpha)
    lines.append(f"  wall-clock-optimal N = {best[0]}; C* T = {c_star * model.T:.3f} "
                 f"(alpha = {alpha:.4f}, C* = {c_star:.4f}, T = {model.T})")
    return lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args, spec: dict, scale: str = "full") -> dict:
    """Set up, warm up, measure, check; returns the result object."""
    import workloads

    OUT.mkdir(exist_ok=True)
    probes, failures = setup_times(args.workload, args.seed) if not args.trace else ([], [])
    probes_run = len(probes) + len(failures)
    workdir = OUT / f"work-{os.getpid()}"
    w = workloads.build(args.workload, args.seed, scale=scale, workdir=workdir)
    try:
        warm = run_pass(w)
        if args.trace:
            from tracer import Tracer

            untraced = measure(w, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(w, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            timed, phases = untraced, {"untraced": untraced, "traced": traced}
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        else:
            timed = measure(w, args.seconds)
            phases = {"timed": timed}
        everything = [warm] + [p for ps in phases.values() for p in ps]
        checks = workloads.Checks()
        try:
            w.check(warm.outputs, checks)
        except Exception as exc:  # e.g. an output missing because its job raised
            checks.expect(False, f"checks stopped: {type(exc).__name__}: {exc}")
        variances = w.variances(warm.outputs)
        failures += [e for p in everything for e in p.errors] + checks.failures
        attempted = sum(len(p.jobs) for p in everything) + checks.attempted + probes_run
        lines = efficiency_report(w, timed, variances) if not failures else []
    finally:
        w.close()

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = median_of([p.layers for p in traced])
        values["trace.overhead"] = (statistics.median(sum(p.norm.values()) for p in traced)
                                    / statistics.median(sum(p.norm.values()) for p in untraced) - 1.0)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(timed, variances) if not failures else {}
        if probes:
            values["setup_s"] = statistics.median(probes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = run_record(args, phases, probes)
    record["failures"] = failures
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    failed = len(failures)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(timed)}"
          f"  attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}")
    for f in failures:
        print(f"  FAILED {f}")
    for name in names:
        if name in values:
            print(f"  {name:<48} {values[name]:>16.6g} {units[name]}")
    for line in lines:
        print(line)
    print("run record: " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "blas_thread_pins", "git_commit", "samples")}, default=str))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names if n in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    result = run(args, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
