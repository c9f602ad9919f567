"""Rate, energy, and efficiency of one transmission block under MRC transmission.

A block of duration T splits into a movement phase (the antenna travels from
its rest position to x at constant speed, data transmission suspended) and a
communication phase at full transmit power. Efficiency is the delivered
bits/Hz divided by the total energy of both phases.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import channel, search
from .params import SystemParams

# Relative float error of a move time computed at the edge of the reach.
_MOVE_TIME_ROUNDING = 1e-12
# Every derivative root, of the grid polish and of the solver alike (search.newton_max,
# newton_root), stops within this many wavelengths of the root: once its bracket is this
# wide, or its Newton step, summed at its rate of convergence, is shorter.
ROOT_TOL_WAVELENGTHS = 1e-12
# grid_max keeps the rest position when its value is this close, relatively, to the best.
_TIE_RTOL = 1e-12


@dataclass(frozen=True, slots=True)
class EEBreakdown:
    """The efficiency of one block with the antenna at x: the one result record.

    Every scheme, the oracle and the optimizer report this record; the sweep
    CSVs write its fields as they are.
    """

    x: float
    ee: float
    throughput: float
    energy: float
    feasible: bool


def _time_left(dist, params: SystemParams, ops):
    """The time left T - dist / v, read as 0 within T * _MOVE_TIME_ROUNDING of 0."""
    left = params.block_duration - dist / params.speed
    return ops.where(left > params.block_duration * _MOVE_TIME_ROUNDING, left, 0.0)


def _efficiency(xs, gains, params: SystemParams, ops):
    """The efficiency formula, with ops giving log2 and where (numpy, or _FLOAT_OPS)."""
    dist = abs(xs - params.initial_position)
    time_left = _time_left(dist, params, ops)
    snr = params.max_tx_power * gains / params.noise_power
    rate = time_left * ops.log2(1.0 + snr)
    energy = params.move_energy_rate * dist + params.max_tx_power * time_left
    ratio = rate / ops.where(energy > 0.0, energy, math.inf)
    return ratio, rate, energy, rate >= params.min_throughput


# numpy's log2 and where on Python floats, for one position. The log is numpy's,
# so a float gets the bits of the same entry of an array.
_FLOAT_OPS = SimpleNamespace(log2=lambda value: float(np.log2(value)),
                             where=lambda condition, a, b: a if condition else b)


def efficiency_of_gains(xs, gains, params: SystemParams):
    """The efficiency formula: (ee, rate, energy, feasible) at positions xs with gains gains.

    The received SNR is P_t gain / noise_power, full-power MRC transmission
    toward the user. Any spot the antenna cannot reach within the block gets
    zero communication time, as does a time left within T * _MOVE_TIME_ROUNDING
    of 0 (_time_left). Where the energy is zero (free movement and no time
    left) the rate is zero too, and the efficiency is defined as 0.
    """
    return _efficiency(xs, gains, params, np)


def efficiency_derivatives(x: float, side: float, gain: float, gain_slope: float,
                           gain_second: float, params: SystemParams):
    """((rate', rate''), (ee', ee'')) of efficiency_of_gains at a reachable x with the gain
    and its first and second derivatives there.

    side is +1 right of the rest position x0 and -1 left of it: the travel
    |x - x0| has slope side, so at x0 itself side picks the one-sided
    derivatives. The time left t and the energy E are affine on each side,
    so with S = log2(1 + c g), c = P_t/σ², rate'' = 2 t' S' + t S'' and
    ee'' = (rate'' - 2 ee' E') / E. S'' is written with c g'/(1 + c g), not
    (1 + c g)^2, which overflows at large P_t. Where the energy is zero (t
    read as in efficiency_of_gains) the efficiency is 0, and so are its derivatives.
    """
    dist = abs(x - params.initial_position)
    time_left = _time_left(dist, params, _FLOAT_OPS)
    time_slope = -side / params.speed
    snr_ratio = params.max_tx_power / params.noise_power
    spread = 1.0 + snr_ratio * gain
    spectral = math.log2(spread)
    rate_slope = (time_slope * spectral
                  + time_left * snr_ratio * gain_slope / (spread * math.log(2.0)))
    relative = snr_ratio * gain_slope / spread  # c g' / (1 + c g), ln 2 S'
    rate_second = (2.0 * time_slope * relative + time_left * (
        snr_ratio * gain_second / spread - relative * relative)) / math.log(2.0)
    energy = params.move_energy_rate * dist + params.max_tx_power * time_left
    if energy <= 0.0:
        return (rate_slope, rate_second), (0.0, 0.0)
    energy_slope = side * params.move_energy_rate + params.max_tx_power * time_slope
    ee_slope = (rate_slope - time_left * spectral / energy * energy_slope) / energy
    ee_second = (rate_second - 2.0 * ee_slope * energy_slope) / energy
    return (rate_slope, rate_second), (ee_slope, ee_second)


@dataclass(frozen=True, slots=True)
class Objective:
    """What a grid_max search maximizes, with the params fields it reads besides x0 and λ.

    values(xs, gains, params) is the objective at positions xs with gains
    gains; derivatives(x, side, gain, gain_slope, gain_second, params) is
    its (slope, second derivative) at a reachable x on one side of x0 (side
    +1 right, -1 left; see efficiency_derivatives), given the gain's. Neither
    reads a params field outside fields, x0 and λ.
    """

    name: str
    fields: tuple[str, ...]
    values: Callable
    derivatives: Callable


GAIN = Objective("gain", (), lambda xs, gains, params: gains,
                 lambda x, side, gain, gain_slope, gain_second, params: (gain_slope, gain_second))
RATE = Objective("rate", ("block_duration", "speed", "max_tx_power", "noise_power"),
                 lambda *at: efficiency_of_gains(*at)[1],
                 lambda *at: efficiency_derivatives(*at)[0])
EFFICIENCY = Objective("efficiency", RATE.fields + ("movement_power",),
                       lambda *at: efficiency_of_gains(*at)[0],
                       lambda *at: efficiency_derivatives(*at)[1])


def _floored_efficiency(xs, gains, params: SystemParams):
    """FEASIBLE_EFFICIENCY's values: the efficiency, -inf where the rate floor is missed."""
    ratio, _, _, feasible = efficiency_of_gains(xs, gains, params)
    return np.where(feasible, ratio, -np.inf)


FEASIBLE_EFFICIENCY = Objective("feasible efficiency", EFFICIENCY.fields + ("min_throughput",),
                                _floored_efficiency, EFFICIENCY.derivatives)


def energy_efficiency(x: float, gain: float, params: SystemParams) -> EEBreakdown:
    """The efficiency record of a block with the antenna at x and gain there.

    efficiency_of_gains' formula on Python floats, with the same bits.
    Raises ValueError for a position outside the region or out of reach
    within the block, or for a negative gain; a move time over the block by
    rounding only (the edge of reach_interval) leaves no communication time,
    as in efficiency_curve.
    """
    if not 0.0 <= x <= params.region_length:
        raise ValueError(f"position {x} outside region [0, {params.region_length}]")
    move_time = abs(x - params.initial_position) / params.speed
    if move_time > params.block_duration * (1.0 + _MOVE_TIME_ROUNDING):
        raise ValueError(
            f"move time {move_time} s exceeds block duration {params.block_duration} s"
        )
    if gain < 0:
        raise ValueError(f"gain must be nonnegative, got {gain}")
    ratio, rate, energy, feasible = _efficiency(float(x), float(gain), params, _FLOAT_OPS)
    return EEBreakdown(x=float(x), ee=ratio, throughput=rate, energy=energy, feasible=feasible)


def efficiency_curve(expansion: channel.GainExpansion, params: SystemParams, xs):
    """Vectorized (ee, rate, energy, feasible) along positions xs inside the region."""
    xs = np.asarray(xs, dtype=float)
    return efficiency_of_gains(xs, channel.gain_eval(expansion, xs), params)


def efficiency_at(expansion: channel.GainExpansion, params: SystemParams,
                  x: float) -> EEBreakdown:
    """Efficiency record at one position, with its gain read once per instance."""
    return energy_efficiency(x, channel.kept_gain_and_slope(expansion, x)[0], params)


def reach_interval(params: SystemParams) -> tuple[float, float]:
    """Ends (lo, hi) of the positions reachable within one block.

    The region clipped to speed * block_duration around the rest position
    x0. x0 -/+ reach rounds by up to half an ulp of x0, which exceeds the
    move-time rounding allowance once x0 is ~1e4 reaches long; an end that
    lands beyond the reach therefore steps toward x0 one ulp at a time, so
    every position in [lo, hi] passes energy_efficiency's move-time check.
    """
    x0, reach = params.initial_position, params.speed * params.block_duration
    lo = max(0.0, x0 - reach)
    hi = min(params.region_length, x0 + reach)
    while x0 - lo > reach:
        lo = math.nextafter(lo, x0)
    while hi - x0 > reach:
        hi = math.nextafter(hi, x0)
    return lo, hi


@dataclass(frozen=True, slots=True, eq=False)
class GainGrid:
    """The gain at lattice points m * spacing, m = 0, 1, ..., of one channel.

    spacing is wavelength/500. Point m's position is m * spacing, computed
    where it is needed; no array of positions is kept.
    """

    spacing: float
    gains: np.ndarray


def gain_grid(expansion: channel.GainExpansion, wavelength: float, length: float) -> GainGrid:
    """The GainGrid of points 0 .. length / spacing + 1, or a longer one kept on expansion.

    A new grid takes one channel.gain_lattice build and replaces any shorter
    one in expansion.gain_grids. Point m is the same at any length.
    """
    spacing = wavelength / 500.0
    count = int(length / spacing) + 2
    grid = expansion.gain_grids.get(spacing)
    if grid is None or len(grid.gains) < count:
        gains = channel.gain_lattice(expansion, spacing, count)
        gains.flags.writeable = False
        grid = expansion.gain_grids[spacing] = GainGrid(spacing, gains)
    return grid


def _rank(grid: GainGrid, x: float, side: str) -> int:
    """np.searchsorted(positions, x, side) of the grid's positions m * spacing, by arithmetic.

    x / spacing lands next to the answer; stepping over the neighbours until
    the comparison turns settles it exactly.
    """
    count, spacing = len(grid.gains), grid.spacing

    def before(m):
        return m * spacing < x or (side == "right" and m * spacing == x)

    m = min(max(int(x / spacing), 0), count)
    while m > 0 and not before(m - 1):
        m -= 1
    while m < count and before(m):
        m += 1
    return m


def grid_scan(expansion: channel.GainExpansion, params: SystemParams, lo: float, hi: float,
              objective: Objective) -> tuple[np.ndarray, np.ndarray, int]:
    """Positions xs of the gain_grid points in [lo, hi], plus lo, hi and x0 if missing, the
    objective's values there and the index of the largest: every search's read of the lattice.

    x0 is added only when it lies in [lo, hi]. An added point's gain is its
    kept point read (channel.kept_gain_and_slope), as the polish, the rest
    tie and every scheme's record read that position.
    """
    grid = gain_grid(expansion, params.wavelength, hi)
    start, stop = _rank(grid, lo, "left"), _rank(grid, hi, "right")
    xs, gains = np.arange(start, stop) * grid.spacing, grid.gains[start:stop]
    x0 = params.initial_position
    ends = (lo, hi, x0) if lo <= x0 <= hi else (lo, hi)
    missing = sorted({x for x in ends if x not in xs})
    if missing:
        at = np.searchsorted(xs, missing)
        gains = np.insert(gains, at, [channel.kept_gain_and_slope(expansion, x)[0]
                                      for x in missing])
        xs = np.insert(xs, at, missing)
    values = objective.values(xs, gains, params)
    return xs, values, int(np.argmax(values))


def grid_max(expansion: channel.GainExpansion, params: SystemParams, lo: float, hi: float,
             objective: Objective) -> tuple[float, float]:
    """Position and value of the largest objective on [lo, hi], kept in expansion.searches.

    Scans [lo, hi] (grid_scan), then polishes the one or two lattice cells
    next to its best point. x0 is a scanned point, so no cell has it inside,
    and the objective is smooth on each. A cell's maximum is taken by Newton
    steps on the objective's slope and closed-form second derivative
    (search.newton_max) from the scan's best point, an end of the cell, with
    the gain and its derivatives read at each position once per instance
    (channel.kept_gain_and_slope), so a position that another search on the
    instance or a scheme's report reads again is not read twice; the value
    there is the objective at that gain. An objective that is -inf where the
    rate floor is missed (FEASIBLE_EFFICIENCY) and is -inf at that maximum
    takes the root of rate - R_TH between it and the scan's best point
    instead (search.newton_root, with RATE's slope), as in the solver's
    subproblem. A polish never returns less than the scan. A scan that is
    -inf everywhere is returned as is. Ties prefer not moving: the rest
    position, when it lies in [lo, hi], wins when within _TIE_RTOL of the
    best. Its gain is its kept point read, not the lattice's, whose gains
    differ from a point read's by phase rounding (up to ~1e-11 of the
    constant at 1e4 wavelengths), so the tie never turns on that gap.

    The answer is kept under everything the search reads: the objective's
    name and the values of its fields, lo, hi, x0 and the wavelength. Params
    equal on that key read the kept answer; any other params search anew.
    """
    key = (objective.name, *(getattr(params, name) for name in objective.fields), lo, hi,
           params.initial_position, params.wavelength)
    if key in expansion.searches:
        return expansion.searches[key]
    xs, values, i = grid_scan(expansion, params, lo, hi, objective)
    anchor, best = float(xs[i]), float(values[i])
    best_x, x0 = anchor, params.initial_position
    read = functools.partial(channel.kept_gain_and_slope, expansion)

    def excess(t):
        return float(efficiency_of_gains(t, read(t)[0], params)[1]) - params.min_throughput

    tol = params.wavelength * ROOT_TOL_WAVELENGTHS
    ends = xs[max(i - 1, 0):i + 2].tolist() if best > -math.inf else []
    for a, b in zip(ends, ends[1:]):
        side = 1.0 if a >= x0 else -1.0
        x = search.newton_max(lambda t: objective.derivatives(t, side, *read(t), params),
                              a, b, anchor, tol)
        value = float(objective.values(x, read(x)[0], params))
        if value == -math.inf and excess(anchor) >= 0.0:
            x = search.newton_root(lambda t: (excess(t), RATE.derivatives(
                t, side, *read(t), params)[0]), anchor, excess(anchor), x, excess(x), tol)
            value = float(objective.values(x, read(x)[0], params))
        if value > best or (value == best and x < best_x):
            best_x, best = x, value
    if lo <= x0 <= hi:
        rest = float(objective.values(x0, read(x0)[0], params))
        if rest >= best - _TIE_RTOL * abs(best):
            best_x, best = x0, rest
    expansion.searches[key] = best_x, best
    return best_x, best


def ee_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> EEBreakdown:
    """Best-case efficiency: the record of a block resting at the gain peak.

    The bound assumes the rest position already sits at the gain argmax, so
    the whole block is spent communicating and no movement energy accrues.
    The argmax is taken by grid_max of GAIN over the whole region, reachable
    or not, so the bound dominates every scheme. The formula reads a position
    only through its travel from x0, so that record is energy_efficiency's at
    x0 itself with the peak's gain, reported at the peak.
    """
    x_bar, gain = grid_max(expansion, params, 0.0, params.region_length, GAIN)
    return replace(energy_efficiency(params.initial_position, gain, params), x=float(x_bar))
