"""The invariants the model and the optimizer rest on, each with its one bound.

Each check takes a channel expansion, its params and the positions xs to test
and returns its worst margin: the largest error found over the error allowed,
so at most 1 passes and nan fails. A one-sided bound's error is the excess over
it. maee check runs BATTERY; the acceptance tests run the checks on their own
seeds and positions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bench, channel, ee, solver
from .channel import GainExpansion
from .params import SystemParams


def _margin(error, allowed) -> float:
    """Largest |error| / allowed, where an error of exactly 0 has margin 0."""
    error = np.abs(np.asarray(error, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(error == 0.0, 0.0, error / allowed), initial=0.0))


def _rounding_floor(expansion: GainExpansion, order: int) -> float:
    """1e-9 |E|_F^2 max|k|^order: the order-th derivative's terms are at most
    |E|_F^2 max|k|^order, and with one path that derivative is only their rounding."""
    return 1e-9 * expansion.constant * float(np.max(np.abs(expansion.wavenumbers))) ** order


def gain_forms(expansion: GainExpansion, params: SystemParams, xs) -> float:
    """channel.gain_series at xs, and the region's gain lattice (ee.gain_grid) at
    the lattice point nearest each of xs, against channel.gain_eval, within
    1e-9 |E|_F^2."""
    xs = np.asarray(xs, dtype=float)
    grid = ee.gain_grid(expansion, params.wavelength, params.region_length)
    points = np.clip(np.rint(xs / grid.spacing).astype(np.int64), 0, len(grid.gains) - 1)
    series = channel.gain_series(expansion, xs) - channel.gain_eval(expansion, xs)
    lattice = grid.gains[points] - channel.gain_eval(expansion, points * grid.spacing)
    return _margin(np.append(series, lattice), 1e-9 * expansion.constant)


def derivatives(expansion: GainExpansion, params: SystemParams, xs) -> float:
    """channel.gain_and_slope's slope and channel.gain_second_derivative at xs
    against central differences of channel.gain_eval, point by point.

    The slope takes steps of λ·1e-6 and may be off by 1e-4 of its size, the
    second derivative λ·1e-4 and 1e-3. A size is at least 1e-3 of the largest
    over xs, plus the rounding floor. Where larger, the differences' own
    rounding is allowed instead: each gain carries an ulp of |E|_F^2 per
    radian of its largest phase |x| max|k|, plus one (tracks of 1e4
    wavelengths were measured to carry up to 0.31 of it).
    """
    xs = np.asarray(xs, dtype=float)
    phase = 1.0 + np.abs(xs) * float(np.max(np.abs(expansion.wavenumbers)))
    rounding = np.finfo(float).eps * expansion.constant * phase

    def margin(differences, analytic, rtol, order, difference_rounding):
        size = np.maximum(np.abs(analytic), 1e-3 * np.max(np.abs(analytic)))
        allowed = rtol * (size + _rounding_floor(expansion, order))
        return _margin(differences - analytic, np.maximum(allowed, difference_rounding))

    gain = functools.partial(channel.gain_eval, expansion)
    h1, h2 = params.wavelength * 1e-6, params.wavelength * 1e-4
    slopes = np.array([channel.gain_and_slope(expansion, x)[1] for x in xs.tolist()])
    return max(margin((gain(xs + h1) - gain(xs - h1)) / (2 * h1), slopes, 1e-4, 1, rounding / h1),
               margin((gain(xs + h2) - 2 * gain(xs) + gain(xs - h2)) / h2**2,
                      channel.gain_second_derivative(expansion, xs), 1e-3, 2,
                      4.0 * rounding / h2**2))


def curvature_dominance(expansion: GainExpansion, params: SystemParams, xs) -> float:
    """The gain's second derivative at xs at most expansion.curvature, the SCA
    surrogate's constant C, within 1e-12 C plus the rounding floor."""
    bound = expansion.curvature
    return _margin(np.maximum(channel.gain_second_derivative(expansion, xs) - bound, 0.0),
                   1e-12 * bound + _rounding_floor(expansion, 2))


def ceiling_dominance(expansion: GainExpansion, params: SystemParams, xs) -> float:
    """The efficiency at xs at most the ceiling ee.ee_upper_bound, within 1e-9 of it."""
    bound = ee.ee_upper_bound(expansion, params).ee
    return _margin(np.maximum(ee.efficiency_curve(expansion, params, xs)[0] - bound, 0.0),
                   1e-9 * bound)


def solver_bracketing(expansion: GainExpansion, params: SystemParams, xs=None) -> float:
    """solver.optimize's efficiency between the fixed antenna's and the grid
    oracle's, its ratio estimates alpha nondecreasing.

    It may exceed the oracle by bench.oracle_slack, the oracle's resolution,
    and fall below the fixed antenna or the alpha before by 1e-12 relative,
    though both falls are 0 by construction. An infeasible run passes only
    when the oracle is infeasible too. xs is not read.
    """
    report = solver.optimize(expansion, params)
    oracle = bench.grid_global_ee(expansion, params)
    if report.status == "infeasible":
        return 0.0 if not oracle.feasible else math.inf
    proposed, fpa = report.result.ee, bench.scheme_fpa(expansion, params)
    alphas = np.array([row[2] for row in report.trace])
    return max(
        _margin(max(proposed - oracle.ee, 0.0), bench.oracle_slack(expansion, params, oracle)),
        _margin(max(fpa.ee - proposed, 0.0) if fpa.feasible else 0.0, 1e-12 * fpa.ee),
        _margin(np.maximum(alphas[:-1] - alphas[1:], 0.0), 1e-12 * alphas[:-1]))


# The checks maee check runs, by the name it prints.
BATTERY = (
    ("closed-form equivalence", gain_forms),
    ("derivative consistency", derivatives),
    ("curvature dominance", curvature_dominance),
    ("upper-bound dominance", ceiling_dominance),
    ("solver bracketing", solver_bracketing),
)
