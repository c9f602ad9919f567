"""The invariants the model and the optimizer rest on, each with its one bound.

Each check takes a channel expansion, its params and the positions xs to test
and returns its worst margin: the largest error found over the error allowed,
so at most 1 passes and nan fails. A one-sided bound's error is the excess over
it. maee check runs BATTERY; the acceptance tests run the checks on their own
seeds and positions.
"""

from __future__ import annotations

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
    """Each record's slope and second derivative against central differences of its
    values, point by point: ee.GAIN's (channel.gain_and_slope's slope and
    channel.kept_gain_and_slope's second derivative, the read ee.grid_max's
    polish takes, against channel.gain_eval) at xs, and ee.RATE's and
    ee.EFFICIENCY's (ee.efficiency_derivatives, against ee.efficiency_of_gains)
    at the reachable xs λ·1e-2 or more from x0 and the reach ends.

    A slope takes steps of λ·1e-6 and may be off by 1e-4 of its size, a
    second derivative λ·1e-4 and 1e-3. A size is at least 1e-3 of the
    largest over the positions, plus, for the gain, the rounding floor.
    Where larger, the differences' own rounding is allowed instead: a gain
    carries an ulp of |E|_F^2 per radian of its largest phase |x| max|k|,
    plus one (1e4 wavelengths out, up to 0.31 of it was measured); a rate or
    efficiency carries that through its partial in the gain, and 8 ulps of
    itself per ulp of T, |x| + |x0| and the travel lost by its time left and
    energy. Those vary on no shorter a length than the distance to x0 and
    the reach ends, so the differences' truncation stays below 1e-5 of the
    second derivative.
    """
    xs = np.asarray(xs, dtype=float)
    eps, x0 = np.finfo(float).eps, params.initial_position
    h1, h2 = params.wavelength * 1e-6, params.wavelength * 1e-4
    rounding = eps * expansion.constant * (1.0 + np.abs(xs) * float(
        np.max(np.abs(expansion.wavenumbers))))
    gains = {step: channel.gain_eval(expansion, xs + step) for step in (-h2, -h1, 0.0, h1, h2)}
    reads = [(*channel.gain_and_slope(expansion, x),
              channel.kept_gain_and_slope(expansion, x)[2]) for x in xs.tolist()]
    lo, hi, away = *ee.reach_interval(params), 100.0 * h2
    inside = np.flatnonzero((lo + away < xs) & (xs < hi - away) & (np.abs(xs - x0) > away))
    travel, ends = np.abs(xs[inside] - x0), np.abs(xs[inside]) + abs(x0)
    relative = 8.0 * eps * (1.0 + ends / travel + (params.block_duration + ends / params.speed)
                            / (params.block_duration - travel / params.speed))
    gain_floors = (_rounding_floor(expansion, 1), _rounding_floor(expansion, 2))
    worst = 0.0
    for record, at, floors, own in ((ee.GAIN, np.arange(xs.size), gain_floors, 0.0),
                                    (ee.RATE, inside, (0.0, 0.0), relative),
                                    (ee.EFFICIENCY, inside, (0.0, 0.0), relative)):
        values = {step: record.values(xs[at] + step, gains[step][at], params) for step in gains}
        # (slope, second) at each position, and the partial in the gain: the slope
        # of a gain that rises at unit rate with no travel (side 0)
        found = np.array([(record.derivatives(x, np.sign(x - x0), *reads[i], params),
                           record.derivatives(x, 0.0, reads[i][0], 1.0, 0.0, params))
                          for i, x in zip(at.tolist(), xs[at].tolist())]).reshape(-1, 2, 2)
        value_rounding = np.abs(values[0.0]) * own + np.abs(found[:, 1, 0]) * rounding[at]
        for order, rtol, step, differences in (
                (1, 1e-4, h1, (values[h1] - values[-h1]) / (2 * h1)),
                (2, 1e-3, h2, (values[h2] - 2 * values[0.0] + values[-h2]) / h2**2)):
            analytic = found[:, 0, order - 1]
            size = np.maximum(np.abs(analytic), 1e-3 * np.max(np.abs(analytic), initial=0.0))
            allowed = np.maximum(rtol * (size + floors[order - 1]),
                                 order**2 * value_rounding / step**order)
            worst = max(worst, _margin(differences - analytic, allowed))
    return worst


def curvature_dominance(expansion: GainExpansion, params: SystemParams, xs) -> float:
    """The gain's second derivative at xs (channel.kept_gain_and_slope's) at most
    expansion.curvature, the SCA surrogate's constant C, within 1e-12 C plus the rounding floor."""
    bound = expansion.curvature
    seconds = [channel.kept_gain_and_slope(expansion, x)[2] for x in np.ravel(xs).tolist()]
    return _margin(np.maximum(np.array(seconds) - bound, 0.0),
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
