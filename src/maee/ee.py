"""Rate, energy, and efficiency of one transmission block under MRC transmission.

A block of duration T splits into a movement phase (the antenna travels from
its rest position to x at constant speed, data transmission suspended) and a
communication phase at full transmit power. Efficiency is the delivered
bits/Hz divided by the total energy of both phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel, search
from .params import SystemParams

# Relative float error of a move time computed at the edge of the reach.
_MOVE_TIME_ROUNDING = 1e-12
# Every golden polish stops once its bracket is this many wavelengths wide.
POLISH_TOL_WAVELENGTHS = 1e-6
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


def efficiency_of_gains(xs, gains, params: SystemParams):
    """The efficiency formula: (ee, rate, energy, feasible) at positions xs with gains gains.

    The received SNR is P_t gain / noise_power, full-power MRC transmission
    toward the user. Any spot the antenna cannot reach within the block gets
    zero communication time. Where the energy is zero (free movement and no
    time left) the rate is zero too, and the efficiency is defined as 0.
    """
    dist = np.abs(xs - params.initial_position)
    time_left = np.maximum(params.block_duration - dist / params.speed, 0.0)
    snr = params.max_tx_power * gains / params.noise_power
    rate = time_left * np.log2(1.0 + snr)
    energy = params.move_energy_rate * dist + params.max_tx_power * time_left
    ratio = np.divide(rate, energy, out=np.zeros_like(rate), where=energy > 0.0)
    return ratio, rate, energy, rate >= params.min_throughput


def energy_efficiency(x: float, gain: float, params: SystemParams) -> EEBreakdown:
    """The efficiency record of a block with the antenna at x and gain there.

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
    ratio, rate, energy, feasible = efficiency_of_gains(x, gain, params)
    return EEBreakdown(x=float(x), ee=float(ratio), throughput=float(rate),
                       energy=float(energy), feasible=bool(feasible))


def efficiency_curve(expansion: channel.GainExpansion, params: SystemParams, xs):
    """Vectorized (ee, rate, energy, feasible) along positions xs inside the region."""
    xs = np.asarray(xs, dtype=float)
    return efficiency_of_gains(xs, channel.gain_eval(expansion, xs), params)


def efficiency_at(expansion: channel.GainExpansion, params: SystemParams,
                  x: float) -> EEBreakdown:
    """Efficiency record at one position, with the gain evaluated there."""
    return energy_efficiency(x, channel.gain_eval(expansion, x), params)


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
    """The gain at lattice points m * wavelength/500, m = 0, 1, ..., of one channel."""

    xs: np.ndarray
    gains: np.ndarray


def gain_grid(expansion: channel.GainExpansion, wavelength: float, length: float) -> GainGrid:
    """The GainGrid of points 0 .. length / spacing + 1, or a longer one kept on expansion.

    A new grid takes one channel.gain_lattice build and replaces any shorter
    one in expansion.gain_grids. Point m is the same at any length.
    """
    spacing = wavelength / 500.0
    count = int(length / spacing) + 2
    grid = expansion.gain_grids.get(spacing)
    if grid is None or len(grid.xs) < count:
        xs = np.arange(count) * spacing
        gains = channel.gain_lattice(expansion, spacing, count)
        xs.flags.writeable = gains.flags.writeable = False
        grid = expansion.gain_grids[spacing] = GainGrid(xs, gains)
    return grid


def grid_slice(expansion: channel.GainExpansion, params: SystemParams, lo: float,
               hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and gains of the gain_grid points in [lo, hi], plus lo, hi and x0 if missing.

    The gains of added points are evaluated here.
    """
    grid = gain_grid(expansion, params.wavelength, hi)
    start, stop = np.searchsorted(grid.xs, lo), np.searchsorted(grid.xs, hi, side="right")
    xs, gains = grid.xs[start:stop], grid.gains[start:stop]
    missing = sorted({x for x in (lo, hi, params.initial_position) if x not in xs})
    if missing:
        at = np.searchsorted(xs, missing)
        gains = np.insert(gains, at, channel.gain_eval(expansion, np.array(missing)))
        xs = np.insert(xs, at, missing)
    return xs, gains


def feasible_efficiency(xs, gains, params: SystemParams):
    """The efficiency at positions xs with gains gains, -inf where the rate floor is missed."""
    ratio, _, _, feasible = efficiency_of_gains(xs, gains, params)
    return np.where(feasible, ratio, -np.inf)


def grid_max(expansion: channel.GainExpansion, params: SystemParams, lo: float, hi: float,
             objective) -> tuple[float, float]:
    """Position and value of the largest objective(xs, gains) on [lo, hi].

    Scans the grid_slice of [lo, hi] and golden-polishes its best cell on
    single floats, with the gain there. Ties prefer not moving: the rest
    position wins when within _TIE_RTOL of the best. Its value is read as the
    polish reads a position, not off the lattice, whose gains differ from
    gain_eval's by phase rounding (up to ~1e-11 of the constant at 1e4
    wavelengths), so the tie never turns on that gap.
    """
    xs, gains = grid_slice(expansion, params, lo, hi)

    def polish(t):
        return objective(t, channel.gain_eval(expansion, t))

    best_x, best = search.grid_polish_max(polish, xs, objective(xs, gains),
                                          tol=params.wavelength * POLISH_TOL_WAVELENGTHS)
    rest = polish(params.initial_position)
    if rest >= best - _TIE_RTOL * abs(best):
        return params.initial_position, float(rest)
    return best_x, float(best)


def ee_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> EEBreakdown:
    """Best-case efficiency: the record of a block resting at the gain peak.

    The bound assumes the rest position already sits at the gain argmax, so
    the whole block is spent communicating and no movement energy accrues.
    The argmax is taken by grid_max over the whole region, reachable or
    not, so the bound dominates every scheme.
    """
    x_bar, gain = grid_max(expansion, params, 0.0, params.region_length,
                           lambda xs, gains: gains)
    return energy_efficiency(x_bar, gain, replace(params, initial_position=x_bar))
