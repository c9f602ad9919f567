"""Benchmark position-selection schemes and the exhaustive-search oracle.

All schemes are evaluated through the same efficiency model so their results
are directly comparable on a shared channel instance. The grid oracle is the
reference the proposed optimizer is judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, ee, search, solver
from .params import SystemParams

SCHEME_ORDER = ("proposed", "upper_bound", "max_throughput", "max_snr", "fpa")
# Schemes whose result never reads the movement power: the ceiling assumes no
# movement, and the fixed antenna never moves, so its movement energy is 0.
MOVEMENT_POWER_FREE = ("upper_bound", "fpa")
ORACLE_RTOL = 1e-6  # relative floor of oracle_slack


@dataclass(frozen=True, slots=True)
class SchemeResult:
    """Outcome of one scheme on one channel instance."""

    scheme: str
    x: float
    ee: float
    throughput: float
    energy: float
    feasible: bool


def _from_breakdown(scheme: str, breakdown: ee.EEBreakdown,
                    feasible: bool = True) -> SchemeResult:
    return SchemeResult(scheme=scheme, x=breakdown.position, ee=breakdown.ee,
                        throughput=breakdown.throughput, energy=breakdown.energy,
                        feasible=breakdown.feasible and feasible)


def _curve_objective(expansion, params: SystemParams, pick):
    """pick(ee, rate, energy, feasible) along an array of positions."""
    return lambda xs: pick(*ee.efficiency_curve(expansion, params, xs))


def grid_global_ee(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Exhaustive search of the true efficiency, honoring the rate floor.

    Scans ee.reachable_grid and polishes the best cell with a golden-section
    pass; infeasible positions are penalized to -inf when any grid position
    is feasible, otherwise the best efficiency is reported with
    feasible=False.
    """
    xs, tol = ee.reachable_grid(params), params.wavelength * ee.POLISH_TOL_WAVELENGTHS
    best_x, best_v = search.grid_polish_max(
        _curve_objective(expansion, params, lambda v, r, e, ok: np.where(ok, v, -np.inf)),
        xs, tol)
    if best_v == -math.inf:
        best_x, _ = search.grid_polish_max(
            _curve_objective(expansion, params, lambda v, r, e, ok: v), xs, tol)
    return _from_breakdown("oracle", ee.efficiency_at(expansion, params, best_x))


def oracle_slack(expansion: channel.GainExpansion, params: SystemParams,
                 oracle: SchemeResult) -> float:
    """How far the proposed optimizer may land above the oracle: the larger of
    ORACLE_RTOL and the efficiency change over the oracle's polish tolerance."""
    tol = params.wavelength * ee.POLISH_TOL_WAVELENGTHS
    nearby = np.clip([oracle.x - tol, oracle.x + tol], *ee.reach_interval(params))
    change = float(np.max(np.abs(ee.efficiency_curve(expansion, params, nearby)[0] - oracle.ee)))
    return max(ORACLE_RTOL * oracle.ee, change)


def scheme_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Idealized ceiling: rest position already at the gain argmax, full-block rate."""
    return _from_breakdown("upper_bound", ee.ee_upper_bound(expansion, params))


def scheme_max_throughput(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Move wherever the delivered bits/Hz peaks, ignoring energy and the rate floor."""
    best_x, _ = search.grid_polish_max(
        _curve_objective(expansion, params, lambda v, r, e, ok: r),
        ee.reachable_grid(params), tol=params.wavelength * ee.POLISH_TOL_WAVELENGTHS)
    return _from_breakdown("max_throughput", ee.efficiency_at(expansion, params, best_x))


def scheme_max_snr(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Move to the reachable gain argmax (SNR is monotone in gain under MRC), cost included.

    The argmax is found by ee.gain_peak like the upper bound's (ties stay at
    rest) but over ee.reach_interval only, so the two schemes report the same
    position whenever the antenna can reach the whole region within one
    block.
    """
    x_best, _ = ee.gain_peak(expansion, params, *ee.reach_interval(params))
    return _from_breakdown("max_snr", ee.efficiency_at(expansion, params, x_best))


def scheme_fpa(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Fixed antenna: stay at the rest position for the whole block."""
    return _from_breakdown("fpa", ee.efficiency_at(expansion, params, params.initial_position))


def proposed_result(report: solver.SolverReport, expansion: channel.GainExpansion,
                    params: SystemParams) -> SchemeResult:
    """The proposed scheme's result for an optimizer report, rechecked at report.x."""
    return _from_breakdown("proposed", ee.efficiency_at(expansion, params, report.x),
                           feasible=report.status != "infeasible")


def scheme_proposed(expansion: channel.GainExpansion, params: SystemParams) -> SchemeResult:
    """Position chosen by the Dinkelbach + SCA optimizer."""
    report = solver.optimize(expansion, params)
    return proposed_result(report, expansion, params)


def evaluate_schemes(expansion: channel.GainExpansion, params: SystemParams,
                     schemes=SCHEME_ORDER,
                     known: dict[str, SchemeResult] | None = None) -> dict[str, SchemeResult]:
    """Evaluate the requested schemes on one shared channel instance.

    known, when given, maps scheme names to results already computed on this
    instance for params that differ from these at most in movement power; the
    MOVEMENT_POWER_FREE schemes among them are reused as the same objects
    instead of being evaluated again.
    """
    runners = {
        "proposed": lambda: scheme_proposed(expansion, params),
        "upper_bound": lambda: scheme_upper_bound(expansion, params),
        "max_throughput": lambda: scheme_max_throughput(expansion, params),
        "max_snr": lambda: scheme_max_snr(expansion, params),
        "fpa": lambda: scheme_fpa(expansion, params),
    }
    unknown = set(schemes) - set(runners)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    known = known or {}
    return {name: known[name] if name in MOVEMENT_POWER_FREE and name in known
            else runners[name]() for name in SCHEME_ORDER if name in schemes}
