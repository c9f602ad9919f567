"""Benchmark position-selection schemes and the exhaustive-search oracle.

All schemes are evaluated through the same efficiency model and report its
record, ee.EEBreakdown, so their results are directly comparable on a shared
channel instance. The grid oracle is the reference the proposed optimizer is
judged against. The ceiling, max_snr, max_throughput and the oracle pick
their positions by one search, ee.grid_max of an ee.Objective record, whose
ties prefer not moving.

Every scheme runs in full at every params. ee.grid_max keeps each search on
the instance under the params fields its record reads: params that differ
elsewhere only, such as max_snr's and max_throughput's in the movement
power, search once.
"""

from __future__ import annotations

import math

from . import channel, ee, solver
from .params import SystemParams

SCHEME_ORDER = ("proposed", "upper_bound", "max_throughput", "max_snr", "fpa")
ORACLE_RTOL = 1e-6  # relative floor of oracle_slack


def grid_global_ee(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Exhaustive search of the true efficiency, honoring the rate floor.

    ee.grid_max of ee.FEASIBLE_EFFICIENCY over the reach interval; when no
    position meets the rate floor, of ee.EFFICIENCY, whose record then reads
    feasible=False.
    """
    lo, hi = ee.reach_interval(params)
    best_x, best = ee.grid_max(expansion, params, lo, hi, ee.FEASIBLE_EFFICIENCY)
    if best == -math.inf:
        best_x, _ = ee.grid_max(expansion, params, lo, hi, ee.EFFICIENCY)
    return ee.efficiency_at(expansion, params, best_x)


def oracle_slack(expansion: channel.GainExpansion, params: SystemParams,
                 oracle: ee.EEBreakdown) -> float:
    """How far the proposed optimizer may land above the oracle: the larger of
    ORACLE_RTOL and the efficiency change over the oracle's root tolerance, each
    neighbour clamped to the reach and read as the oracle's record is (efficiency_at)."""
    tol, (lo, hi) = params.wavelength * ee.ROOT_TOL_WAVELENGTHS, ee.reach_interval(params)
    change = max(abs(ee.efficiency_at(expansion, params, min(max(x, lo), hi)).ee - oracle.ee)
                 for x in (oracle.x - tol, oracle.x + tol))
    return max(ORACLE_RTOL * oracle.ee, change)


def scheme_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Idealized ceiling: rest position already at the gain argmax, full-block rate."""
    return ee.ee_upper_bound(expansion, params)


def scheme_max_throughput(expansion: channel.GainExpansion,
                          params: SystemParams) -> ee.EEBreakdown:
    """Move wherever the delivered bits/Hz (ee.RATE) peaks, ignoring energy and the rate floor."""
    best_x, _ = ee.grid_max(expansion, params, *ee.reach_interval(params), ee.RATE)
    return ee.efficiency_at(expansion, params, best_x)


def scheme_max_snr(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Move to the reachable gain argmax (SNR is monotone in gain under MRC), cost included.

    ee.grid_max of ee.GAIN, as for the upper bound, but over ee.reach_interval
    only. Whenever the reach covers the region the two read the same kept
    search, so they report the same position; both stay at rest on a tie.
    """
    x_best, _ = ee.grid_max(expansion, params, *ee.reach_interval(params), ee.GAIN)
    return ee.efficiency_at(expansion, params, x_best)


def scheme_fpa(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Fixed antenna: stay at the rest position for the whole block."""
    return ee.efficiency_at(expansion, params, params.initial_position)


def scheme_proposed(expansion: channel.GainExpansion, params: SystemParams) -> ee.EEBreakdown:
    """Position chosen by the Dinkelbach + SCA optimizer, with the record it verified."""
    return solver.optimize(expansion, params).result


def evaluate_schemes(expansion: channel.GainExpansion, params: SystemParams,
                     schemes=SCHEME_ORDER) -> dict[str, ee.EEBreakdown]:
    """Each requested scheme's record on one shared channel instance, by name in SCHEME_ORDER."""
    # Built at call time from the module's names: a module-level table would
    # hold the functions themselves and bypass the wrappers benchmarks/tracer.py
    # sets on this module's attributes.
    runners = {"proposed": scheme_proposed, "upper_bound": scheme_upper_bound,
               "max_throughput": scheme_max_throughput, "max_snr": scheme_max_snr,
               "fpa": scheme_fpa}
    unknown = set(schemes) - set(runners)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    return {name: runners[name](expansion, params) for name in SCHEME_ORDER if name in schemes}
