"""Command-line front end: solve one instance, run sweeps, grid search, self-check."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, channel, ee, harness, solver
from .harness import fmt
from .params import SystemParams

_DEFAULT_SWEEP_VALUES = {
    "region": (0.5, 1.0, 1.5, 2.0),
    "power": (0.1, 0.5, 1.0, 2.0, 5.0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maee",
        description="Energy-efficiency optimization for a single movable receive antenna.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value parameter file")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    p_solve = sub.add_parser("solve", help="evaluate all schemes on one random instance")
    common(p_solve)
    p_solve.add_argument("--trace", action="store_true",
                         help="print the optimizer's per-iteration trace")

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=harness.SWEEP_VARIABLES, required=True,
                         help="sweep variable: region (in wavelengths) or power (W)")
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.add_argument("--out", default="results",
                         help="output directory for raw.csv and aggregate.csv")
    p_sweep.add_argument("--workers", type=int, default=1)

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
    return 0 if any(r.feasible for r in results.values()) else 1


def _cmd_oracle(args) -> int:
    params = _load_params(args)
    expansion = harness.instance_for(params, args.seed)
    print(f"seed={args.seed}")
    result = bench.grid_global_ee(expansion, params)
    _print_result("oracle", result)
    return 0 if result.feasible else 1


def _cmd_sweep(args) -> int:
    params = _load_params(args)
    if args.values:
        values = tuple(float(v) for v in args.values.split(","))
    else:
        values = _DEFAULT_SWEEP_VALUES[args.sweep]
    cfg = harness.SweepConfig(
        base=params, sweep_variable=args.sweep, sweep_values=values,
        trials=args.trials, master_seed=args.seed, workers=args.workers)
    records, aggregates = harness.run_sweep(cfg)
    raw_path, agg_path = harness.emit_csv(records, aggregates, args.out)
    print(f"wrote {raw_path}")
    print(f"wrote {agg_path}")
    for row in aggregates:
        print(f"{args.sweep}={fmt(row.sweep_value)} scheme={row.scheme} "
              f"mean_ee={fmt(row.mean_ee)} feasible_frac={fmt(row.feasible_frac)} "
              f"n={row.n}")
    any_feasible = any(r.feasible for rec in records for r in rec.results.values())
    return 0 if any_feasible else 1


def _check_instance(params: SystemParams, seed: int) -> list[tuple[str, bool]]:
    """Invariant battery on one random instance; returns (name, ok) pairs."""
    expansion = harness.instance_for(params, seed)
    xs = np.linspace(0.0, params.region_length, 1001)
    tx = params.max_tx_power

    direct = channel.gain_eval(expansion, xs)
    series = channel.gain_series(expansion, xs)
    grid = ee.gain_grid(expansion, params.wavelength, params.region_length)
    stride = max(1, len(grid.gains) // 1000)
    at = np.arange(0, len(grid.gains), stride) * grid.spacing
    lattice = channel.gain_eval(expansion, at) - grid.gains[::stride]
    closed_form = bool(np.all(np.abs(series - direct) <= 1e-9 * expansion.constant)
                       and np.all(np.abs(lattice) <= 1e-9 * expansion.constant))

    step1, step2 = params.wavelength * 1e-6, params.wavelength * 1e-4
    sample = xs[::50]
    fd1 = (tx * channel.gain_eval(expansion, sample + step1)
           - tx * channel.gain_eval(expansion, sample - step1)) / (2 * step1)
    an1 = tx * channel.gain_derivative(expansion, sample)
    fd2 = (tx * channel.gain_eval(expansion, sample + step2)
           - 2 * tx * channel.gain_eval(expansion, sample)
           + tx * channel.gain_eval(expansion, sample - step2)) / step2**2
    an2 = tx * channel.gain_second_derivative(expansion, sample)
    # Rounding floors in the instance's own units: the m-th derivative's terms
    # are at most P_t |E|^2 max|k|^m, and with one path the slope and the
    # curvature are nothing but rounding of that size.
    top = float(np.max(np.abs(expansion.wavenumbers)))
    floor1, floor2 = (1e-9 * tx * expansion.constant * top**m for m in (1, 2))
    scale1 = float(np.max(np.abs(an1))) + floor1
    scale2 = float(np.max(np.abs(an2))) + floor2
    derivatives = bool(np.all(np.abs(fd1 - an1) <= 1e-4 * scale1)
                       and np.all(np.abs(fd2 - an2) <= 1e-3 * scale2))

    eps = tx * channel.curvature_bound(expansion) * (1 + 1e-12) + floor2
    curvature = bool(np.all(tx * channel.gain_second_derivative(expansion, xs) <= eps))

    bound = ee.ee_upper_bound(expansion, params).ee
    ee_vals, _, _, _ = ee.efficiency_of_gains(xs, direct, params)
    dominance = bool(np.all(ee_vals <= bound * (1.0 + 1e-9)))

    report = solver.optimize(expansion, params)
    oracle = bench.grid_global_ee(expansion, params)
    fpa = bench.scheme_fpa(expansion, params)
    alphas = [row[2] for row in report.trace]
    bracket = True
    if report.status != "infeasible":
        proposed = report.result.ee
        bracket = (proposed <= oracle.ee + bench.oracle_slack(expansion, params, oracle)
                   and (not fpa.feasible or proposed >= fpa.ee - 1e-9)
                   and all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:])))

    return [
        ("closed-form equivalence", closed_form),
        ("derivative consistency", derivatives),
        ("curvature dominance", curvature),
        ("upper-bound dominance", dominance),
        ("solver bracketing", bracket),
    ]


def _cmd_check(args) -> int:
    params = _load_params(args)
    if args.trials < 1:
        raise ValueError("need at least one trial")
    all_ok = True
    for trial in range(args.trials):
        for name, ok in _check_instance(params, args.seed + trial):
            all_ok = all_ok and ok
            print(f"{'ok' if ok else 'FAIL'} trial={trial} {name}")
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
