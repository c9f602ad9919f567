"""Deterministic bounded scalar maximization: grid scan plus golden polish."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def insert_sorted(xs: np.ndarray, x: float) -> np.ndarray:
    """The sorted grid xs with x inserted in order, or xs itself if it already holds x."""
    return xs if x in xs else np.insert(xs, int(np.searchsorted(xs, x)), x)


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [lo, hi].

    Returns the best (x, f(x)) among all evaluated points once the interval
    has shrunk below tol; ties resolve to the smallest x. f is assumed
    unimodal on the interval, otherwise the result is still the best
    sampled point.
    """
    if hi < lo:
        lo, hi = hi, lo
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi

    width = hi - lo
    if width <= tol:
        return best_x, best_f
    steps = int(math.ceil(math.log(tol / width) / math.log(_INV_PHI)))

    c = lo + _INV_PHI2 * width
    d = lo + _INV_PHI * width
    yc, yd = f(c), f(d)
    for x, y in ((c, yc), (d, yd)):
        if y > best_f or (y == best_f and x < best_x):
            best_x, best_f = x, y

    for _ in range(max(steps - 1, 0)):
        if yc > yd:
            hi, d, yd = d, c, yc
            width *= _INV_PHI
            c = lo + _INV_PHI2 * width
            yc = f(c)
            x, y = c, yc
        else:
            lo, c, yc = c, d, yd
            width *= _INV_PHI
            d = lo + _INV_PHI * width
            yd = f(d)
            x, y = d, yd
        if y > best_f or (y == best_f and x < best_x):
            best_x, best_f = x, y
    return best_x, best_f


def grid_polish_max(f, xs, values, tol: float) -> tuple[float, float]:
    """Take the best of values on the sorted grid xs, then golden-polish its cell with f.

    values[i] is the objective at xs[i], computed by the caller (from gains
    it already holds, or by one array call of f); the polish passes f single
    Python floats, so f must give the value the caller would for a position,
    up to rounding: ee.grid_max's values come from the gain lattice, whose
    gains differ from gain_eval's by up to ~1e-11 of the channel constant at
    1e4 wavelengths, which can only decide between the best grid point and a
    polish point of its bracket.
    The first grid argmax wins on ties, so equal-objective results resolve to
    the smallest x. A scan that is -inf everywhere (nothing admissible on the
    grid) is returned as is, without a polish.
    """
    values = np.asarray(values, dtype=float)
    idx = int(np.argmax(values))
    best_x, best_f = float(xs[idx]), float(values[idx])
    if best_f == -math.inf:
        return best_x, best_f

    bracket_lo = float(xs[max(idx - 1, 0)])
    bracket_hi = float(xs[min(idx + 1, len(xs) - 1)])
    px, pf = golden_section_max(f, bracket_lo, bracket_hi, tol)
    if pf > best_f or (pf == best_f and px < best_x):
        return px, pf
    return best_x, best_f
