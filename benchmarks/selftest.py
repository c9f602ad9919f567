"""Self-test of the benchmark at tiny size.

    python3 benchmarks/selftest.py

Runs every workload in both modes at tiny size and checks that each prints
exactly the metrics BENCHMARK.json declares, with their units, and a correct
result. Then injects faults and checks that the checker flags each one: a NaN
efficiency, the proposed optimizer above the oracle by 1e-3, and a
1-worker/2-worker raw.csv mismatch. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys

import run


def declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec, {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    if not run.prepare():
        print("error: no maee source to test against", file=sys.stderr)
        return 2
    import checker
    import measure
    import workloads
    from maee import harness

    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    spec, units = declared()
    expect(units[0] == measure.END_TO_END, "BENCHMARK.json end_to_end matches measure.END_TO_END")
    expect(units[1] == measure.PER_LAYER, "BENCHMARK.json per_layer matches measure.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")

    out_root = run.ROOT / ".bench_out" / "selftest"
    for workload in workloads.WORKLOADS.values():
        for trace in (0, 1):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                measure.run(workload.tiny(), 11, 0.0, bool(trace), run.ROOT,
                            out_root / f"{workload.name}-trace{trace}")
            lines = printed.getvalue().splitlines()
            result = json.loads(lines[-1])
            label = f"{workload.name} trace={trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units[trace], f"{label}: JSON metrics and units as declared")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{label}: values finite")
            table = {tuple(line.split()[::2]) for line in lines[:-1] if not line.startswith("#")}
            expect(all((name, unit) in table for name, unit in units[trace].items()),
                   f"{label}: every metric printed with its unit")

    # Fault injection on one real tiny sweep.
    cfg = workloads.sweep_config(workloads.WORKLOADS["power"].tiny(), 11, 0)
    records, aggregates = harness.run_sweep(cfg)
    record = records[0]
    oracle, resolution = measure.oracle_for(cfg, record)
    expect(oracle.feasible and not checker.trial_faults(record, oracle, resolution),
           "unmodified trial passes")

    def with_result(scheme, **changes):
        results = dict(record.results)
        results[scheme] = dataclasses.replace(results[scheme], **changes)
        return dataclasses.replace(record, results=results)

    expect(bool(checker.trial_faults(with_result("max_snr", ee=math.nan))),
           "NaN ee is flagged")
    faults = checker.trial_faults(
        with_result("proposed", ee=oracle.ee * (1 + 1e-3), feasible=True), oracle, resolution)
    expect(any("above oracle" in f for f in faults), "proposed 1e-3 above the oracle is flagged")

    dirs = [out_root / "csv_w1", out_root / "csv_w2"]
    for d in dirs:
        harness.emit_csv(records, aggregates, d)
    clean = measure.Outcome()
    measure.csv_mismatch(clean, 0, records, dirs)
    raw = dirs[1] / "raw.csv"
    raw.write_text(raw.read_text().replace("proposed", "PROPOSED", 1))
    broken = measure.Outcome()
    with contextlib.redirect_stderr(io.StringIO()):
        measure.csv_mismatch(broken, 0, records, dirs)
    expect(not clean.failed and len(broken.failed) == len(records),
           "w1/w2 raw.csv mismatch is flagged")

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
