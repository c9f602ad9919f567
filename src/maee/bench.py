"""Benchmark position-selection schemes and the exhaustive-search oracle.

All schemes are evaluated through the same efficiency model and report its
record, ee.EEBreakdown, so their results are directly comparable on a shared
channel instance. The grid oracle is the reference the proposed optimizer is
judged against. The ceiling, max_snr, max_throughput and the oracle pick
their positions by one search, ee.grid_max, whose ties prefer not moving.

Across params that differ only in movement power, evaluate_schemes reuses
what does not read it: the whole records of the ceiling and the fixed
antenna, and the positions of max_throughput and max_snr, whose efficiency
alone is evaluated again. Only the proposed optimizer runs at every
movement power.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel, ee, solver
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


def grid_global_ee(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Exhaustive search of the true efficiency, honoring the rate floor.

    ee.grid_max of ee.feasible_efficiency over the reach interval; when no
    position meets the rate floor, of the plain efficiency, whose record
    then reads feasible=False.
    """
    lo, hi = ee.reach_interval(params)
    best_x, best_v = ee.grid_max(expansion, params, lo, hi,
                                 lambda xs, g: ee.feasible_efficiency(xs, g, params))
    if best_v == -math.inf:
        best_x, _ = ee.grid_max(expansion, params, lo, hi,
                                lambda xs, g: ee.efficiency_of_gains(xs, g, params)[0])
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
    best_x, _ = ee.grid_max(expansion, params, *ee.reach_interval(params),
                            lambda xs, g: ee.efficiency_of_gains(xs, g, params)[1])
    return ee.efficiency_at(expansion, params, best_x)


def scheme_max_snr(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Move to the reachable gain argmax (SNR is monotone in gain under MRC), cost included.

    ee.grid_max of the gain, as for the upper bound, but over
    ee.reach_interval only: the two report the same position whenever the
    reach covers the region, and both stay at rest on a tie.
    """
    x_best, _ = ee.grid_max(expansion, params, *ee.reach_interval(params),
                            lambda xs, gains: gains)
    return ee.efficiency_at(expansion, params, x_best)


def scheme_fpa(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Fixed antenna: stay at the rest position for the whole block."""
    return ee.efficiency_at(expansion, params, params.initial_position)


def scheme_proposed(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Position chosen by the Dinkelbach + SCA optimizer, with the record it verified."""
    return solver.optimize(expansion, params).result


def evaluate_schemes(expansion: channel.GainExpansion, params: SystemParams, schemes=SCHEME_ORDER,
                     known: dict[str, ee.EEBreakdown] | None = None) -> dict[str, ee.EEBreakdown]:
    """Each requested scheme's efficiency record on one shared channel instance.

    The dict is keyed by scheme name in SCHEME_ORDER. known, when given, maps
    scheme names to records already computed on this instance for params that
    differ from these at most in movement power. The MOVEMENT_POWER_FREE
    schemes among them are reused as the same objects; the
    MOVEMENT_POWER_FREE_POSITION schemes keep their known position and only
    their efficiency there is evaluated again, with no grid search.
    """
    runners = {"proposed": scheme_proposed, "upper_bound": scheme_upper_bound,
               "max_throughput": scheme_max_throughput, "max_snr": scheme_max_snr,
               "fpa": scheme_fpa}
    unknown = set(schemes) - set(runners)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    known = known or {}

    def evaluate(name: str) -> ee.EEBreakdown:
        if name in known and name in MOVEMENT_POWER_FREE:
            return known[name]
        if name in known and name in MOVEMENT_POWER_FREE_POSITION:
            return ee.efficiency_at(expansion, params, known[name].x)
        return runners[name](expansion, params)

    return {name: evaluate(name) for name in SCHEME_ORDER if name in schemes}
