"""Bracketed scalar maximization by derivative roots, for the solver and ee.grid_max."""

from __future__ import annotations

import math


def root(f, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """The end with f > 0 of a bracket around a sign change of f, or an exact zero.

    fa = f(a) and fb = f(b) lie on opposite sides of 0. Brent's method
    (Brent 1973; the form of scipy's brentq): inverse quadratic or secant
    steps while they stay short, bisection otherwise, until the bracket is at
    most tol wide or no float splits it. An inverse quadratic step whose
    divisor underflows to 0 or overflows (|f| below ~1e-110 or huge) bisects
    instead, so the result does not depend on the scale of f.
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    pre, f_pre, cur, f_cur = a, fa, b, fb
    blk, f_blk, step_pre, step = a, fa, b - a, b - a  # blk: the far end of the bracket
    half_tol = 0.5 * tol
    up = fb > 0.0  # the sign of f_cur; f_blk has the other
    while True:
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
            up = not up
        bisect = 0.5 * (blk - cur)
        if abs(bisect) <= half_tol or cur + bisect == cur or cur + bisect == blk:
            return cur if up else blk
        if abs(step_pre) > half_tol and abs(f_cur) < abs(f_pre):
            if pre == blk:  # secant
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre, d_blk = (f_pre - f_cur) / (pre - cur), (f_blk - f_cur) / (blk - cur)
                divisor = d_blk * d_pre * (f_blk - f_pre)
                trial = (-f_cur * (f_blk * d_blk - f_pre * d_pre) / divisor
                         if divisor != 0.0 and math.isfinite(divisor) else math.inf)
            limit, width = 3.0 * abs(bisect) - half_tol, abs(step_pre)
            if 2.0 * abs(trial) < (limit if limit < width else width):  # min(width, limit)
                step_pre, step = step, trial
            else:
                step_pre = step = bisect
        else:
            step_pre = step = bisect
        pre, f_pre = cur, f_cur
        cur += step if abs(step) > half_tol else math.copysign(half_tol, bisect)
        f_cur = f(cur)
        if f_cur == 0.0:
            return cur
        if (f_cur > 0.0) != up:  # the sign changed: pre is the new far end
            blk, f_blk = pre, f_pre
            step_pre = step = cur - pre
            up = not up


def concave_max(slope_at, a: float, b: float, tol: float) -> float:
    """Maximizer on [a, b] of a concave function with derivative slope_at; ties take a.

    An end where the slope points out of [a, b], else a root of the slope
    (root), within tol.
    """
    da = slope_at(a)
    if da <= 0.0:
        return a
    db = slope_at(b)
    if db >= 0.0:
        return b
    return root(slope_at, a, da, b, db, tol)
