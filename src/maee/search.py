"""Bracketed scalar maximization by derivative roots: one root finder.

Safeguarded Newton steps (_newton) take every root, behind newton_max (the
maximizer of a concave function on an interval) and newton_root (a root of a
bracketed sign change). Both serve the solver's SCA subproblem and
ee.grid_max's polish of its lattice cells: each gives the second derivative
of what it searches in closed form. The loop runs once per Newton step of
every SCA subproblem, so it writes abs, min and max as comparisons.
"""

from __future__ import annotations

import math


def _newton(fd, x: float, fx: float, dfx: float, far: float, f_far, tol: float,
            positive: bool) -> float:
    """The safeguarded Newton loop (rtsafe, Numerical Recipes §9.4) of newton_max and newton_root.

    fd(t) gives f and its derivative at t. [x, far] holds the sign change
    of f: x is the latest point read (fx, dfx there) and far the other end,
    unread while f_far is None. Each step is the Newton step from x while it
    stays inside the bracket and is at most half the step before last (the
    first two may cross the bracket); otherwise the search reads far if it
    is unread, and returns far when f keeps the sign of fx there, or else
    bisects. A zero or non-finite derivative bisects too, so any f ends.

    The search ends when the bracket is at most tol wide (returning its end
    with f > 0), when no float splits it, or when a Newton step, summed as a
    geometric series at its ratio to the last step (Newton's rate at a
    multiple root), is under tol: then x is returned, unless positive asks
    for f > 0 and f(x) < 0, and the point half tol past the root is read
    next. The first step from a point has no ratio, and a tiny one may mean
    a pole of f nearby (beta -> 0 in the solver) rather than a root: the
    point tol away is read instead, which brackets the root within tol when
    f changes sign there.
    """
    half_tol, inf = 0.5 * tol, math.inf
    before = last = inf  # the magnitudes of the last two steps
    while True:
        if f_far is not None and -tol <= far - x <= tol:
            return x if fx > 0.0 else far
        step = -fx / dfx if dfx != 0.0 and -inf < dfx < inf else inf
        size = step if step >= 0.0 else -step
        if size * (last + tol) < tol * last:  # tested before the bracket
            if fx > 0.0 or not positive:
                return x
            step += math.copysign(half_tol, far - x)
            size = step if step >= 0.0 else -step
        elif size < tol:
            step, size = math.copysign(tol, step), tol
        new = x + step
        if not ((x < new < far or far < new < x) and 2.0 * size <= before):
            if f_far is None:
                f_far, df_far = fd(far)
                if f_far == 0.0 or (f_far > 0.0) == (fx > 0.0):
                    return far
                x, fx, dfx, far, f_far = far, f_far, df_far, x, fx
                before = last = inf
                continue
            new = x + 0.5 * (far - x)
            if new == x or new == far:
                return x if fx > 0.0 else far
        before, last = last, new - x if new > x else x - new
        f_new, df_new = fd(new)
        if f_new == 0.0:
            return new
        if (f_new > 0.0) != (fx > 0.0):
            far, f_far = x, fx
        x, fx, dfx = new, f_new, df_new


def newton_max(fd, a: float, b: float, x: float, tol: float) -> float:
    """Maximizer on [a, b] of a concave function, by Newton steps on its slope from x.

    fd(t) gives the slope and the second derivative at t, and x lies in
    [a, b]. Returns x when the slope is 0 there or points out of [a, b] at
    x, the end the slope points out of, or else a point within tol of the
    slope's root (_newton). The end toward which the slope at x points is
    read only when a step would leave [a, b] or stops halving.
    """
    fx, dfx = fd(x)
    end = b if fx > 0.0 else a
    if fx == 0.0 or x == end:
        return x
    return _newton(fd, x, fx, dfx, end, None, tol, False)


def newton_root(fd, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """A point with f > 0 within tol of a root of f in a bracket, or an exact zero.

    fd(t) gives f and its derivative at t; fa = f(a) and fb = f(b) lie on
    opposite sides of 0. The first point read is the secant's root (the
    midpoint if that falls outside), and the search goes on from there
    (_newton).
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    new = a - fa * (b - a) / (fb - fa)
    if not min(a, b) < new < max(a, b):
        new = a + 0.5 * (b - a)
        if new == a or new == b:
            return a if fa > 0.0 else b
    f_new, df_new = fd(new)
    if f_new == 0.0:
        return new
    far, f_far = (a, fa) if (fa > 0.0) != (f_new > 0.0) else (b, fb)
    return _newton(fd, new, f_new, df_new, far, f_far, tol, True)
