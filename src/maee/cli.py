"""Command-line front end: solve one instance, run sweeps, grid search, self-check.

check runs invariants.BATTERY on random instances and prints one line per
check, ``ok trial=<t> <name> margin=<m>`` or ``FAIL ...``: m is the worst
error the check finds divided by the error it allows, so m <= 1 passes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, ee, harness, invariants, solver
from .harness import fmt
from .params import SystemParams

_DEFAULT_SWEEP_VALUES = {
    "region": (0.5, 1.0, 1.5, 2.0),
    "power": (0.1, 0.5, 1.0, 2.0, 5.0),
}


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _values(text: str) -> tuple[float, ...]:
    """A --values list: one or more comma-separated numbers."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maee",
        description="Energy-efficiency optimization for a single movable receive antenna.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value parameter file")
        p.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")

    p_solve = sub.add_parser("solve", help="evaluate all schemes on one random instance")
    common(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="print the optimizer's per-iteration trace")

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=harness.SWEEP_VARIABLES, required=True,
                         help="sweep variable: region (in wavelengths) or power (W)")
    p_sweep.add_argument("--values", type=_values, help="comma-separated sweep values")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.add_argument("--out", default="results",
                         help="output directory for raw.csv and aggregate.csv")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="processes that run trials, this one included (default 1)")

    p_oracle = sub.add_parser("oracle", help="grid-search the true optimum on one instance")
    common(p_oracle)

    p_check = sub.add_parser("check", help="run the invariant suite on random instances")
    common(p_check)
    p_check.add_argument("--trials", type=int, default=3)
    return parser


def _load_params(args) -> SystemParams:
    if args.config:
        return harness.load_config(args.config)
    return SystemParams()


def _print_result(scheme: str, result: ee.EEBreakdown) -> None:
    print(f"scheme={scheme} x={fmt(result.x)} ee={fmt(result.ee)} "
          f"throughput={fmt(result.throughput)} energy={fmt(result.energy)} "
          f"feasible={int(result.feasible)}")


def _realized(results: dict[str, ee.EEBreakdown]) -> bool:
    """Whether a scheme other than the idealized upper_bound is feasible."""
    return any(r.feasible for scheme, r in results.items() if scheme != "upper_bound")


def _cmd_solve(args) -> int:
    params = _load_params(args)
    expansion = harness.instance_for(params, args.seed)
    print(f"seed={args.seed}")

    report = solver.optimize(expansion, params)
    results = {"proposed": report.result,
               **bench.evaluate_schemes(expansion, params, bench.SCHEME_ORDER[1:])}
    for scheme, result in results.items():
        _print_result(scheme, result)
    print(f"status={report.status} iterations={report.iterations} "
          f"flagged={int(report.power_assumption_violated)}")
    if args.trace:
        print("trace: iteration,x,alpha,objective")
        for iteration, x, alpha, objective in report.trace:
            print(f"trace: {iteration},{fmt(x)},{fmt(alpha)},{fmt(objective)}")
    return 0 if _realized(results) else 1


def _cmd_oracle(args) -> int:
    params = _load_params(args)
    expansion = harness.instance_for(params, args.seed)
    print(f"seed={args.seed}")
    result = bench.grid_global_ee(expansion, params)
    _print_result("oracle", result)
    return 0 if result.feasible else 1


def _cmd_sweep(args) -> int:
    cfg = harness.SweepConfig(
        base=_load_params(args), sweep_variable=args.sweep,
        sweep_values=args.values or _DEFAULT_SWEEP_VALUES[args.sweep],
        trials=args.trials, master_seed=args.seed, workers=args.workers)
    records, aggregates = harness.run_sweep(cfg)
    raw_path, agg_path = harness.emit_csv(records, aggregates, args.out)
    print(f"wrote {raw_path}")
    print(f"wrote {agg_path}")
    for row in aggregates:
        print(f"{args.sweep}={fmt(row.sweep_value)} scheme={row.scheme} "
              f"mean_ee={fmt(row.mean_ee)} feasible_frac={fmt(row.feasible_frac)} "
              f"n={row.n}")
    return 0 if any(_realized(record.results) for record in records) else 1


def _check_instance(params: SystemParams, seed: int) -> list[tuple[str, float]]:
    """(name, margin) of each check of invariants.BATTERY on one random instance,
    at 1001 positions spanning the region."""
    expansion = harness.instance_for(params, seed)
    xs = np.linspace(0.0, params.region_length, 1001)
    return [(name, check(expansion, params, xs)) for name, check in invariants.BATTERY]


def _cmd_check(args) -> int:
    params = _load_params(args)
    if args.trials < 1:
        raise ValueError("need at least one trial")
    all_ok = True
    for trial in range(args.trials):
        for name, margin in _check_instance(params, args.seed + trial):
            ok = margin <= 1.0
            all_ok = all_ok and ok
            print(f"{'ok' if ok else 'FAIL'} trial={trial} {name} margin={margin:.3g}")
    print("all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 1


def cli_main(argv=None) -> int:
    """Entry point returning an exit code: 0 ok, 1 infeasible/failed, 2 usage."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
