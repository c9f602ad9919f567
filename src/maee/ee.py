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


def _efficiency(xs: np.ndarray, gain: np.ndarray, params: SystemParams):
    """The efficiency formula: (ee, rate, energy) at positions xs with gains gain.

    The received SNR is P_t gain / noise_power, full-power MRC transmission
    toward the user. Any spot the antenna cannot reach within the block gets
    zero communication time. Where the energy is zero (free movement and no
    time left) the rate is zero too, and the efficiency is defined as 0.
    """
    dist = np.abs(xs - params.initial_position)
    time_left = np.maximum(params.block_duration - dist / params.speed, 0.0)
    snr = params.max_tx_power * gain / params.noise_power
    rate = time_left * np.log2(1.0 + snr)
    energy = params.move_energy_rate * dist + params.max_tx_power * time_left
    ratio = np.divide(rate, energy, out=np.zeros_like(rate), where=energy > 0.0)
    return ratio, rate, energy


def energy_efficiency(x: float, gain: float, params: SystemParams) -> EEBreakdown:
    """The efficiency record of a block with the antenna at x and gain there.

    Raises ValueError for a position outside the region or out of reach
    within the block, or for a negative gain; a move time over the block by
    rounding only (the edge of reachable_grid) leaves no communication time,
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
    ratio, rate, energy = _efficiency(x, gain, params)
    return EEBreakdown(x=float(x), ee=float(ratio), throughput=float(rate),
                       energy=float(energy), feasible=bool(rate >= params.min_throughput))


def efficiency_curve(expansion: channel.GainExpansion, params: SystemParams, xs):
    """Vectorized (ee, rate, energy, feasible) along positions xs inside the region."""
    xs = np.asarray(xs, dtype=float)
    ratio, rate, energy = _efficiency(xs, channel.gain_eval(expansion, xs), params)
    return ratio, rate, energy, rate >= params.min_throughput


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


def _uniform_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Evenly spaced points from lo to hi, ends included, at most spacing apart."""
    return np.linspace(lo, hi, max(int(math.ceil((hi - lo) / spacing)) + 1, 2))


def reachable_grid(params: SystemParams) -> np.ndarray:
    """Uniform grid over the positions reachable within one block.

    The grid spans reach_interval with points wavelength/500 apart and always
    contains the rest position itself: when the reach is not a multiple of
    the spacing it is inserted in order.
    """
    xs = _uniform_grid(*reach_interval(params), params.wavelength / 500.0)
    return search.insert_sorted(xs, params.initial_position)


def gain_peak(expansion: channel.GainExpansion, params: SystemParams,
              lo: float, hi: float) -> tuple[float, float]:
    """Position and value of the largest gain on [lo, hi].

    A grid with points wavelength/200 apart (at least 100 samples per gain
    oscillation) is scanned and its argmax refined by one golden polish.
    Ties prefer not moving: the rest position wins against any position
    whose gain is no larger, so it needs no place on the grid.
    """
    x_best, gain_best = search.grid_polish_max(
        lambda t: channel.gain_eval(expansion, t),
        _uniform_grid(lo, hi, params.wavelength / 200.0),
        tol=params.wavelength * POLISH_TOL_WAVELENGTHS)
    gain_rest = channel.gain_eval(expansion, params.initial_position)
    if gain_rest >= gain_best:
        return params.initial_position, gain_rest
    return x_best, gain_best


def ee_upper_bound(expansion: channel.GainExpansion, params: SystemParams) -> EEBreakdown:
    """Best-case efficiency: the record of a block resting at the gain peak.

    The bound assumes the rest position already sits at the gain argmax, so
    the whole block is spent communicating and no movement energy accrues.
    The argmax is taken by gain_peak over the whole region, reachable or
    not, so the bound dominates every scheme.
    """
    x_bar, gain = gain_peak(expansion, params, 0.0, params.region_length)
    return energy_efficiency(x_bar, gain, replace(params, initial_position=x_bar))
