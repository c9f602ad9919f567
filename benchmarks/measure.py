"""Measure one workload: timed sweeps (trace 0) or one traced sweep (trace 1).

Trace 0 repeats ``harness.run_sweep`` + ``harness.emit_csv`` on fresh reps
until the time is up, exactly as a user runs a sweep, and reports the
end-to-end metrics. Trace 1 runs one fixed-size sweep untraced at 1 and 2
workers (alternated, twice each), then once with every public function of
the six layers wrapped, and reports per-layer counts and self times. Both runs regenerate each
checked trial's instance afterwards, run the grid oracle on it, and check
every result (see checker.py).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from maee import bench, channel, ee, harness, search, solver

import checker
import workloads
from refclock import ReferenceClock
from run import THREAD_VARS
from tracer import Tracer

HERE = Path(__file__).resolve().parent
LAYERS = {"channel": channel, "ee": ee, "search": search, "solver": solver,
          "bench": bench, "harness": harness}
SCHEMES = bench.SCHEME_ORDER
MISS_GAP = 1e-3  # an oracle gap above this counts towards oracle_miss_frac

# Metrics in the final JSON line, with their units. BENCHMARK.json lists the
# same names and units; the self-test keeps the two in step.
END_TO_END = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_ee_ratio": "fraction",
}
# Solver-vs-oracle figures and the failure share, printed in both tables. Not
# bounded: they are 0 on some workloads or vary too much from seed to seed at
# this run length.
QUALITY = {
    "oracle_gap_mean": "fraction",
    "oracle_gap_p95": "fraction",
    "oracle_miss_frac": "fraction",
    "bench.oracle_beaten_frac": "fraction",
    "fail_frac": "fraction",
}
# Wall-clock figures behind the speed-adjusted END_TO_END ones (trace 0 table).
WALL_CLOCK = {
    "wall_trials_per_s": "trials/s",
    "wall_setup_s": "s",
    "machine_slowdown": "ratio",
}
PER_LAYER = {
    "search.golden_section_max.calls": "calls/trial",
    "search.golden_section_max.ms": "ms/trial",
    "solver.solve_subproblem.calls": "calls/trial",
    "solver.solve_subproblem.ms": "ms/trial",
    "solver.dinkelbach_update.calls": "calls/trial",
    "solver.optimize.ms_p50": "ms",
    "solver.optimize.ms_p95": "ms",
    "solver.outer_iters_mean": "iterations",
    "solver.iteration_cap_frac": "fraction",
    "solver.restart_frac": "fraction",
    "solver.infeasible_frac": "fraction",
    "channel.gain_eval.calls": "calls/trial",
    "channel.gain_eval.points": "points/trial",
    "channel.gain_eval.terms": "terms/trial",
    "channel.gain_eval.ms": "ms/trial",
    "ee.efficiency_curve.calls": "calls/trial",
    "ee.efficiency_curve.points": "points/trial",
    "ee.efficiency_curve.ms": "ms/trial",
    "channel.build_expansion.calls": "calls/trial",
    "channel.build_expansion.ms": "ms/trial",
    "channel.curvature_bound.calls": "calls/trial",
    "ee.ee_upper_bound.calls": "calls/trial",
    "channel.sample_instance.ms": "ms/trial",
    **{f"bench.scheme_{s}.ms_{q}": "ms" for s in SCHEMES for q in ("p50", "p95")},
    "bench.grid_global_ee.ms_p50": "ms",
    "bench.proposed_over_oracle": "ratio",
    "harness.run_trial.ms_p50": "ms",
    "harness.run_trial.ms_p95": "ms",
    "harness.aggregate.ms": "ms/trial",
    "harness.emit_csv.ms": "ms/trial",
    "harness.scaling_eff": "ratio",
    **{f"{layer}.self_frac": "fraction" for layer in LAYERS},
    **QUALITY,
    "tracing_overhead": "ratio",
    "trace.trials": "count",
}


def _gain_eval_work(result, expansion, x):
    points = int(np.size(x))
    return {"points": points, "terms": points * expansion.num_pairs}


def _efficiency_curve_work(result, expansion, params, xs):
    return {"points": int(np.size(xs))}


def _optimize_outcome(report, expansion, params, **_):
    infeasible = report.status == "infeasible"
    return {
        "outer_iters": report.iterations,
        "iteration_cap": report.status == "iteration-cap",
        "infeasible": infeasible,
        # Without a restart the first trace row starts at the rest position.
        "restarted": infeasible or report.trace[0][1] != params.initial_position,
    }


HOOKS = {
    "channel.gain_eval": _gain_eval_work,
    "ee.efficiency_curve": _efficiency_curve_work,
    "solver.optimize": _optimize_outcome,
}


@dataclass
class Outcome:
    """What one run saw: trials attempted, keys of failed trials, metric values."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    metrics: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def oracle_for(cfg, record):
    """Grid oracle on the trial's regenerated instance: (result, resolution).

    The resolution is the largest relative efficiency change over the
    oracle's own position tolerance, wavelength * 1e-6 (its golden polish
    stops there), on either side of the oracle's position.
    """
    params = harness.params_for_value(cfg.base, cfg.sweep_variable, record.sweep_value)
    instance = channel.sample_instance(params, np.random.default_rng(record.instance_seed))
    expansion = channel.build_expansion(instance, params.wavelength)
    oracle = bench.grid_global_ee(expansion, params)
    tol = params.wavelength * 1e-6
    nearby = np.clip([oracle.x - tol, oracle.x + tol], 0.0, params.region_length)
    values = ee.efficiency_curve(expansion, params, nearby)[0]
    return oracle, float(np.max(np.abs(values / oracle.ee - 1.0)))


def check(outcome: Outcome, rep: int, records, oracles=None) -> None:
    """Run the checker on every trial; oracles, when given, pair with records."""
    for i, record in enumerate(records):
        faults = checker.trial_faults(record, *(oracles[i] if oracles else ()))
        if faults:
            outcome.failed.add((rep, record.sweep_value, record.trial))
            print(f"# FAIL rep {rep} value {record.sweep_value} trial {record.trial}: "
                  + "; ".join(faults), file=sys.stderr)


def sweep_and_emit(cfg, out_dir):
    """One sweep as a user runs it: run_sweep, then emit_csv; returns the records."""
    records, aggregates = harness.run_sweep(cfg)
    harness.emit_csv(records, aggregates, out_dir)
    return records


def timed(fn, *args):
    """(fn(*args), wall seconds)."""
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def csv_mismatch(outcome: Outcome, rep: int, records, dirs) -> None:
    """Fail every trial of the rep unless all dirs hold byte-identical CSVs."""
    for name in ("raw.csv", "aggregate.csv"):
        contents = {(d / name).read_bytes() for d in dirs}
        if len(contents) != 1:
            print(f"# FAIL rep {rep}: {name} differs across " + ", ".join(map(str, dirs)),
                  file=sys.stderr)
            outcome.failed.update((rep, r.sweep_value, r.trial) for r in records)
            return


def oracle_quality(pairs) -> dict[str, float]:
    """Solver-vs-oracle figures over (record, oracle) pairs where both are feasible.

    gap = 1 - ee_proposed / ee_oracle; it is negative when the proposed
    optimizer lands above the oracle, which the oracle's resolution allows.
    """
    gaps = [1.0 - record.results["proposed"].ee / oracle.ee
            for record, oracle in pairs
            if oracle.feasible and record.results["proposed"].feasible]
    if not gaps:
        return {}
    mean_gap = math.fsum(gaps) / len(gaps)
    return {
        "oracle_ee_ratio": 1.0 - mean_gap,
        "oracle_gap_mean": mean_gap,
        "oracle_gap_p95": percentile(gaps, 0.95),
        "oracle_miss_frac": sum(g > MISS_GAP for g in gaps) / len(gaps),
        "bench.oracle_beaten_frac": sum(g < 0.0 for g in gaps) / len(gaps),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload, seed: int, clock: ReferenceClock) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (wall, reference-speed)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)]
    wall, adjusted = [], []
    for _ in range(workload.setup_probes):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True)
        wall.append(float(done.stdout.split()[-1]))
        adjusted.append(clock.adjust(wall[-1]))
    return statistics.median(wall), statistics.median(adjusted)


def timed_run(workload, seed: int, seconds: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    clock = ReferenceClock()
    started = time.perf_counter()
    reps = []  # (cfg, records or None, wall seconds, reference-speed seconds)
    while len(reps) < workload.quality_reps or time.perf_counter() - started < seconds:
        cfg = workloads.sweep_config(workload, seed, len(reps))
        try:
            records, wall = timed(sweep_and_emit, cfg, out_dir / "sweep")
        except Exception:  # a raising sweep is a measured failure, not a crash
            traceback.print_exc()
            records, wall = None, math.nan
        reps.append((cfg, records, wall, clock.adjust(wall)))
    rss = peak_rss_mb()

    done_trials, done_wall, done_adjusted = 0, 0.0, 0.0
    pairs = []
    for rep, (cfg, records, wall, adjusted) in enumerate(reps):
        expected = len(cfg.sweep_values) * cfg.trials
        outcome.attempted += expected
        if records is None:
            outcome.failed.update((rep, "raised", t) for t in range(expected))
            continue
        done_trials += len(records)
        done_wall += wall
        done_adjusted += adjusted
        oracles = None
        if rep < workload.quality_reps:
            oracles = [oracle_for(cfg, r) for r in records]
            pairs.extend((r, o) for r, (o, _) in zip(records, oracles))
        check(outcome, rep, records, oracles)

    cfg0, records0, _, _ = reps[0]
    if workload.workers > 1 and records0 is not None:
        harness.emit_csv(records0, harness.aggregate(records0, cfg0.schemes), out_dir / "w2")
        sweep_and_emit(replace(cfg0, workers=1), out_dir / "w1")
        csv_mismatch(outcome, 0, records0, [out_dir / "w1", out_dir / "w2"])

    outcome.metrics.update(oracle_quality(pairs))
    wall_setup_s, setup_s = setup_seconds(workload, seed, clock)
    outcome.metrics.update({
        "trials_per_s": done_trials / done_adjusted if done_trials else math.nan,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "fail_frac": len(outcome.failed) / outcome.attempted,
        "wall_trials_per_s": done_trials / done_wall if done_trials else math.nan,
        "wall_setup_s": wall_setup_s,
        "machine_slowdown": done_wall / done_adjusted if done_trials else math.nan,
        "reps": len(reps),
    })
    return outcome


# Untraced 1- and 2-worker passes of the traced sweep, alternated; their sums
# give harness.scaling_eff and the base of tracing_overhead.
SCALING_PASSES = 2


def traced_run(workload, seed: int, out_dir: Path) -> Outcome:
    outcome = Outcome()
    cfg = workloads.sweep_config(workload, seed, 0, instances=workload.trace_instances,
                                 workers=1)
    clock = ReferenceClock()
    wall_w1 = wall_w2 = 0.0  # reference-speed seconds, summed over SCALING_PASSES
    for _ in range(SCALING_PASSES):
        wall_w1 += clock.adjust(timed(sweep_and_emit, cfg, out_dir / "w1")[1])
        wall_w2 += clock.adjust(timed(sweep_and_emit, replace(cfg, workers=2),
                                      out_dir / "w2")[1])

    tracer = Tracer(HOOKS, trial_span="harness.run_trial")
    for prefix, module in LAYERS.items():
        tracer.install(module, prefix)
    try:
        records, wall_traced = timed(sweep_and_emit, cfg, out_dir / "traced")
        wall_traced = clock.adjust(wall_traced)
        sweep_spans = tracer.drain()
        oracles = [oracle_for(cfg, r) for r in records]
        oracle_spans = tracer.drain()
    finally:
        tracer.uninstall()
    sweep_spans.write_csv(out_dir / "spans_sweep.csv")
    oracle_spans.write_csv(out_dir / "spans_oracle.csv")

    outcome.attempted = len(records)
    check(outcome, 0, records, oracles)
    csv_mismatch(outcome, 0, records, [out_dir / "w1", out_dir / "w2", out_dir / "traced"])
    outcome.metrics.update(oracle_quality([(r, o) for r, (o, _) in zip(records, oracles)]))
    outcome.metrics.update(layer_metrics(sweep_spans, oracle_spans))
    outcome.metrics.update({
        "harness.scaling_eff": wall_w1 / (2.0 * wall_w2),
        "tracing_overhead": wall_traced * SCALING_PASSES / wall_w1,
        "fail_frac": len(outcome.failed) / outcome.attempted,
    })
    return outcome


def layer_metrics(sweep, oracle) -> dict[str, float]:
    """Per-trial counts and self times, per-call percentiles, layer shares."""
    calls = defaultdict(int)
    own_s = defaultdict(float)
    for name, own in zip(sweep.names, sweep.self_times()):
        calls[name] += 1
        own_s[name] += own
    trials = calls["harness.run_trial"]
    total_s = sum(own_s.values())
    counters = sweep.counters
    optimize_calls = calls["solver.optimize"]
    out = {"trace.trials": trials}
    for name in ("search.golden_section_max", "solver.solve_subproblem", "channel.gain_eval",
                 "ee.efficiency_curve", "channel.build_expansion", "channel.sample_instance",
                 "harness.aggregate", "harness.emit_csv"):
        out[f"{name}.calls"] = calls[name] / trials
        out[f"{name}.ms"] = 1e3 * own_s[name] / trials
    for name in ("solver.dinkelbach_update", "channel.curvature_bound", "ee.ee_upper_bound"):
        out[f"{name}.calls"] = calls[name] / trials
    out["channel.gain_eval.points"] = counters["channel.gain_eval.points"] / trials
    out["channel.gain_eval.terms"] = counters["channel.gain_eval.terms"] / trials
    out["ee.efficiency_curve.points"] = counters["ee.efficiency_curve.points"] / trials
    for key, metric in (("outer_iters", "outer_iters_mean"), ("iteration_cap", "iteration_cap_frac"),
                        ("restarted", "restart_frac"), ("infeasible", "infeasible_frac")):
        out[f"solver.{metric}"] = counters[f"solver.optimize.{key}"] / optimize_calls
    for name in ("solver.optimize", "harness.run_trial",
                 *(f"bench.scheme_{s}" for s in SCHEMES)):
        durations = sweep.durations(name)
        out[f"{name}.ms_p50"] = 1e3 * statistics.median(durations)
        out[f"{name}.ms_p95"] = 1e3 * percentile(durations, 0.95)
    oracle_ms = oracle.durations("bench.grid_global_ee")
    out["bench.grid_global_ee.ms_p50"] = 1e3 * statistics.median(oracle_ms)
    out["bench.proposed_over_oracle"] = (statistics.fmean(sweep.durations("bench.scheme_proposed"))
                                         / statistics.fmean(oracle_ms))
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = sum(s for n, s in own_s.items()
                                        if n.startswith(layer + ".")) / total_s
    out["_top_self"] = sorted(own_s.items(), key=lambda item: -item[1])[:6]
    out["_total_self_s"] = total_s
    return {k: v for k, v in out.items() if k in PER_LAYER or k.startswith("_")}


def environment(seed: int, root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path | None = None) -> dict:
    """Measure, print the table and the final JSON line; returns the result.

    Files go to out_dir, by default .bench_out/<workload>-seed<seed>-trace<0|1>
    under root.
    """
    if out_dir is None:
        out_dir = root / ".bench_out" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = traced_run(workload, seed, out_dir) if trace else timed_run(
        workload, seed, seconds, out_dir)
    declared = PER_LAYER if trace else END_TO_END
    shown = declared if trace else {**END_TO_END, **WALL_CLOCK, **QUALITY}
    env = environment(seed, root)
    values = defaultdict(lambda: math.nan, outcome.metrics)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": not outcome.failed and finite,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": metrics,
    }

    print(f"# maee benchmark: workload={workload.name} seed={seed} trace={int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    if trace:
        print(f"# traced sweep: {outcome.metrics['trace.trials']} trials; top self time:")
        for name, own in outcome.metrics["_top_self"]:
            print(f"#   {name:34s} {own / outcome.metrics['_total_self_s']:7.1%}")
    else:
        print(f"# {outcome.metrics['reps']} reps of {workload.rep_instances} instances x "
              f"{len(workload.sweep_values)} values; oracle on the first "
              f"{workload.quality_reps} reps")
    for name, unit in shown.items():
        print(f"{name:34s} {values[name]:14.6g} {unit}")

    record = {**result, "workload": workload.name, "environment": env,
              "all_metrics": {k: v for k, v in outcome.metrics.items() if not k.startswith("_")}}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if not finite:
        print("# FAIL: a metric is not finite", file=sys.stderr)
        for m in metrics.values():
            if not math.isfinite(m["value"]):
                m["value"] = None
    print(json.dumps(result))
    return result
