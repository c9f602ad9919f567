"""Benchmark position-selection schemes and the exhaustive-search oracle.

All schemes are evaluated through the same efficiency model and report its
record, ee.EEBreakdown, so their results are directly comparable on a shared
channel instance. The grid oracle is the reference the proposed optimizer is
judged against.

Across params that differ only in movement power, evaluate_schemes reuses
what does not read it: the whole records of the ceiling and the fixed
antenna, and the positions of max_throughput and max_snr, whose efficiency
alone is evaluated again. Only the proposed optimizer runs at every
movement power.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel, ee, search, solver
from .params import SystemParams

SCHEME_ORDER = ("proposed", "upper_bound", "max_throughput", "max_snr", "fpa")
# Schemes whose result never reads the movement power: the ceiling assumes no
# movement, and the fixed antenna never moves, so its movement energy is 0.
MOVEMENT_POWER_FREE = ("upper_bound", "fpa")
# Schemes whose position never reads the movement power, though their
# efficiency does: the delivered rate, the gain and the reachable positions
# hold no P.
MOVEMENT_POWER_FREE_POSITION = ("max_throughput", "max_snr")
ORACLE_RTOL = 1e-6  # relative floor of oracle_slack


def _curve_objective(expansion, params: SystemParams, pick):
    """pick(ee, rate, energy, feasible) along an array of positions."""
    return lambda xs: pick(*ee.efficiency_curve(expansion, params, xs))


def grid_global_ee(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Exhaustive search of the true efficiency, honoring the rate floor.

    Scans ee.reachable_grid and polishes the best cell with a golden-section
    pass; infeasible positions are penalized to -inf when any grid position
    is feasible, otherwise the best efficiency is reported with
    feasible=False. Returns the efficiency record at the chosen position.
    """
    xs, tol = ee.reachable_grid(params), params.wavelength * ee.POLISH_TOL_WAVELENGTHS
    best_x, best_v = search.grid_polish_max(
        _curve_objective(expansion, params, lambda v, r, e, ok: np.where(ok, v, -np.inf)),
        xs, tol)
    if best_v == -math.inf:
        best_x, _ = search.grid_polish_max(
            _curve_objective(expansion, params, lambda v, r, e, ok: v), xs, tol)
    return ee.efficiency_at(expansion, params, best_x)


def oracle_slack(expansion: channel.GainExpansion, params: SystemParams,
                 oracle: ee.EEBreakdown) -> float:
    """How far the proposed optimizer may land above the oracle: the larger of
    ORACLE_RTOL and the efficiency change over the oracle's polish tolerance."""
    tol = params.wavelength * ee.POLISH_TOL_WAVELENGTHS
    nearby = np.clip([oracle.x - tol, oracle.x + tol], *ee.reach_interval(params))
    change = float(np.max(np.abs(ee.efficiency_curve(expansion, params, nearby)[0] - oracle.ee)))
    return max(ORACLE_RTOL * oracle.ee, change)


def scheme_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Idealized ceiling: rest position already at the gain argmax, full-block rate."""
    return ee.ee_upper_bound(expansion, params)


def scheme_max_throughput(expansion: channel.GainExpansion,
                          params: SystemParams) -> ee.EEBreakdown:
    """Move wherever the delivered bits/Hz peaks, ignoring energy and the rate floor."""
    best_x, _ = search.grid_polish_max(
        _curve_objective(expansion, params, lambda v, r, e, ok: r),
        ee.reachable_grid(params), tol=params.wavelength * ee.POLISH_TOL_WAVELENGTHS)
    return ee.efficiency_at(expansion, params, best_x)


def scheme_max_snr(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Move to the reachable gain argmax (SNR is monotone in gain under MRC), cost included.

    The argmax is found by ee.gain_peak like the upper bound's (ties stay at
    rest) but over ee.reach_interval only, so the two schemes report the same
    position whenever the antenna can reach the whole region within one
    block.
    """
    x_best, _ = ee.gain_peak(expansion, params, *ee.reach_interval(params))
    return ee.efficiency_at(expansion, params, x_best)


def scheme_fpa(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Fixed antenna: stay at the rest position for the whole block."""
    return ee.efficiency_at(expansion, params, params.initial_position)


def scheme_proposed(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Position chosen by the Dinkelbach + SCA optimizer, with the record it verified."""
    return solver.optimize(expansion, params).result


def evaluate_schemes(expansion: channel.GainExpansion, params: SystemParams,
                     schemes=SCHEME_ORDER,
                     known: dict[str, ee.EEBreakdown] | None = None,
                     ) -> dict[str, ee.EEBreakdown]:
    """Each requested scheme's efficiency record on one shared channel instance.

    The dict is keyed by scheme name in SCHEME_ORDER. known, when given, maps
    scheme names to records already computed on this instance for params that
    differ from these at most in movement power. The MOVEMENT_POWER_FREE
    schemes among them are reused as the same objects; the
    MOVEMENT_POWER_FREE_POSITION schemes keep their known position and only
    their efficiency there is evaluated again, with no grid search.
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

    def evaluate(name: str) -> ee.EEBreakdown:
        if name in known and name in MOVEMENT_POWER_FREE:
            return known[name]
        if name in known and name in MOVEMENT_POWER_FREE_POSITION:
            return ee.efficiency_at(expansion, params, known[name].x)
        return runners[name]()

    return {name: evaluate(name) for name in SCHEME_ORDER if name in schemes}
