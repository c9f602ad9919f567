"""Shared fixtures and independent oracles for the test suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from maee import channel
from maee.channel import PathResponseMatrix, build_expansion, channel_vector, sample_instance
from maee.params import SystemParams


@pytest.fixture
def params():
    return SystemParams()


@pytest.fixture
def gain_reads(monkeypatch):
    """Records, from then on, the point count of each channel.gain_lattice build
    (lattices) and the number of positions of each channel.gain_eval call (evals)."""
    reads = SimpleNamespace(lattices=[], evals=[])
    lattice, evaluate = channel.gain_lattice, channel.gain_eval

    def counted_lattice(expansion, spacing, count):
        reads.lattices.append(count)
        return lattice(expansion, spacing, count)

    def counted_eval(expansion, x):
        reads.evals.append(np.size(x))
        return evaluate(expansion, x)

    monkeypatch.setattr(channel, "gain_lattice", counted_lattice)
    monkeypatch.setattr(channel, "gain_eval", counted_eval)
    return reads


def make_instance(seed, params=None):
    """Random instance from a fixed seed, default scenario unless given."""
    params = params or SystemParams()
    return sample_instance(params, np.random.default_rng(seed))


def hand_instance():
    """Two paths, one antenna, unit responses, virtual angles 0 and 1/2.

    The Gram matrix E E^H is all ones and the wavenumbers are (0, 100 pi) at
    wavelength 0.01, so the gain is 2 + 2 cos(100 pi x) and every quantity
    of it is hand-computable.
    """
    return PathResponseMatrix(np.array([[1.0 + 0j], [1.0 + 0j]]), np.array([0.0, 0.5]))


def single_path_instance(response=2.0, num_antennas=3):
    """One path with zero virtual angle: the gain is position independent."""
    entries = np.full((1, num_antennas), response, dtype=complex)
    return PathResponseMatrix(entries, np.array([0.0]))


def direct_gain(instance, wavelength, xs):
    """Oracle: squared channel norm straight from the matrix definition."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    steering = np.exp(2j * np.pi / wavelength
                      * np.outer(xs, instance.virtual_aoa))
    h = steering @ instance.entries.conj()
    return np.sum(np.abs(h) ** 2, axis=1)


def field_response(virtual_aoa, wavelength, x):
    """Steering vector exp(j 2 pi x virtual_aoa / wavelength) of the given paths.

    Read off channel_vector with an identity response matrix, whose channel
    vector is the steering vector itself.
    """
    virtual_aoa = np.asarray(virtual_aoa, dtype=float)
    identity = PathResponseMatrix(np.eye(virtual_aoa.size, dtype=complex), virtual_aoa)
    return channel_vector(build_expansion(identity, wavelength), x)


def reference_root(f, a, fa, b, fb, tol):
    """Brent's method (Brent 1973, in the form of scipy's brentq), the reference
    the Newton roots are held to: the end with f > 0 of a bracket around a sign
    change of f at most tol wide, or an exact zero. fa = f(a) and fb = f(b) lie
    on opposite sides of 0. Inverse quadratic or secant steps while they stay
    short, bisection otherwise; a step whose divisor underflows or overflows
    bisects too."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    pre, f_pre, cur, f_cur = a, fa, b, fb
    blk, f_blk, step_pre, step = a, fa, b - a, b - a
    half_tol = 0.5 * tol
    while True:
        if (f_pre > 0.0) != (f_cur > 0.0):
            blk, f_blk = pre, f_pre
            step_pre = step = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        bisect = 0.5 * (blk - cur)
        if abs(bisect) <= half_tol or cur + bisect in (cur, blk):
            return cur if f_cur > 0.0 else blk
        if abs(step_pre) > half_tol and abs(f_cur) < abs(f_pre):
            if pre == blk:
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:
                d_pre, d_blk = (f_pre - f_cur) / (pre - cur), (f_blk - f_cur) / (blk - cur)
                divisor = d_blk * d_pre * (f_blk - f_pre)
                trial = (-f_cur * (f_blk * d_blk - f_pre * d_pre) / divisor
                         if divisor != 0.0 and math.isfinite(divisor) else math.inf)
            if 2.0 * abs(trial) < min(abs(step_pre), 3.0 * abs(bisect) - half_tol):
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


def reference_max(slope_at, a, b, tol):
    """Maximizer on [a, b] of a concave function with derivative slope_at, by
    reference_root: an end where the slope points out of [a, b] (a on a tie),
    else a root of the slope within tol."""
    da = slope_at(a)
    if da <= 0.0:
        return a
    db = slope_at(b)
    if db >= 0.0:
        return b
    return reference_root(slope_at, a, da, b, db, tol)


# The SCA step as it stood before its interpreter work was cut (solver._build_surrogate,
# solve_subproblem and _piece_max, search.newton_max, newton_root and _newton), frozen:
# the reference the step is held to bit for bit. The float operations and their order
# are the program's; the tests only add a read() call at each evaluation of net or of
# a slope.
_FEASIBILITY_SLACK = 1e-9
_LN2 = math.log(2.0)


def _reference_newton(fd, x, fx, dfx, far, f_far, tol, positive):
    half_tol = 0.5 * tol
    before = last = math.inf
    while True:
        if f_far is not None and abs(far - x) <= tol:
            return x if fx > 0.0 else far
        step = -fx / dfx if 0.0 < abs(dfx) < math.inf else math.inf
        if abs(step) * (abs(last) + tol) < tol * abs(last):
            if fx > 0.0 or not positive:
                return x
            step += math.copysign(half_tol, far - x)
        elif abs(step) < tol:
            step = math.copysign(tol, step)
        new = x + step
        if not (min(x, far) < new < max(x, far) and 2.0 * abs(step) <= abs(before)):
            if f_far is None:
                f_far, df_far = fd(far)
                if f_far == 0.0 or (f_far > 0.0) == (fx > 0.0):
                    return far
                x, fx, dfx, far, f_far = far, f_far, df_far, x, fx
                before = last = math.inf
                continue
            new = x + 0.5 * (far - x)
            if new == x or new == far:
                return x if fx > 0.0 else far
        before, last = last, new - x
        f_new, df_new = fd(new)
        if f_new == 0.0:
            return new
        if (f_new > 0.0) != (fx > 0.0):
            far, f_far = x, fx
        x, fx, dfx = new, f_new, df_new


def _reference_newton_max(fd, a, b, x, tol):
    fx, dfx = fd(x)
    end = b if fx > 0.0 else a
    if fx == 0.0 or x == end:
        return x
    return _reference_newton(fd, x, fx, dfx, end, None, tol, False)


def _reference_newton_root(fd, a, fa, b, fb, tol):
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
    return _reference_newton(fd, new, f_new, df_new, far, f_far, tol, True)


def _reference_surrogate(params, center, gain, gain_slope, alpha, curvature, read):
    x0, noise, speed = params.initial_position, params.noise_power, params.speed
    value, slope = params.max_tx_power * gain, params.max_tx_power * gain_slope
    half = 0.5 * curvature
    delta_local = max(abs(center - x0), params.wavelength * 1e-6)
    gamma_local = max(math.log2(1.0 + max(value, 0.0) / noise), 1e-12)
    coef_delta = 0.5 * (gamma_local / delta_local)
    coef_gamma = 0.5 * (delta_local / gamma_local)
    level = noise * 2.0 ** gamma_local
    level_offset, level_scale = level - noise, level * _LN2
    duration = params.block_duration
    drift = alpha * (params.movement_power - params.max_tx_power) / speed
    floor = params.min_throughput - _FEASIBILITY_SLACK
    rate_scale = duration / _LN2
    pull, push = 2.0 * coef_delta / speed, 2.0 * coef_gamma / (level_scale * speed)

    def net(x):
        read()
        dx = x - center
        base = value + slope * dx
        curve = half * dx * dx
        beta = 0.0 if base < curve else base - curve
        gamma = gamma_local + (base + curve - level_offset) / level_scale
        gamma = 0.0 if gamma < 0.0 else gamma
        delta = x - x0
        product = coef_delta * delta * delta + coef_gamma * gamma * gamma
        return duration * math.log2(1.0 + beta / noise) - product / speed

    def objective(x, total=None):
        total = net(x) if total is None else total
        return total - abs(x - x0) * drift if total >= floor else -math.inf

    def derivative(side, rate):
        shift = side * drift

        def slope_at(x):
            read()
            dx = x - center
            base = value + slope * dx
            curve = half * dx * dx
            rising = slope + curvature * dx
            gamma = gamma_local + (base + curve - level_offset) / level_scale
            if gamma < 0.0:
                out, second = -pull * (x - x0) - shift, -pull
            else:
                out = -pull * (x - x0) - push * gamma * rising - shift
                second = -pull - push * (rising * rising / level_scale + gamma * curvature)
            if rate:
                falling = slope - curvature * dx
                if base < curve:
                    out += rate_scale * falling / noise
                    second -= rate_scale * curvature / noise
                else:
                    power = noise + (base - curve)
                    out += rate_scale * falling / power
                    second -= rate_scale * (curvature + falling * falling / power) / power
            return out, second

        return slope_at

    q = 0.5 * (slope + math.copysign(math.sqrt(slope * slope + 4.0 * half * value), slope))
    if q == 0.0:
        span_lo, span_hi = (-math.inf, math.inf) if value > 0.0 else (math.inf, -math.inf)
    else:
        near, far = -value / q, q / half if half > 0.0 else math.copysign(math.inf, q)
        span_lo, span_hi = min(near, far), max(near, far)
    return SimpleNamespace(center=center, rate_span=(center + span_lo, center + span_hi),
                           objective=objective, net=net, derivative=derivative)


def _reference_piece_max(s, a, b, side, rate, target, tol):
    start = min(max(s.center, a), b)
    x = _reference_newton_max(s.derivative(side, rate), a, b, start, tol)
    total = s.net(x)
    if total - target >= 0.0:
        return x, s.objective(x, total)
    net_slope = s.derivative(0.0, rate)

    def excess_and_slope(t):
        return s.net(t) - target, net_slope(t)[0]

    anchor = s.center
    at_anchor = s.net(anchor) - target if a <= anchor <= b else -math.inf
    if not at_anchor >= 0.0:
        anchor = _reference_newton_max(net_slope, a, b, start, tol)
        at_anchor = s.net(anchor) - target
        if at_anchor < 0.0:
            return anchor, -math.inf
    x = _reference_newton_root(excess_and_slope, anchor, at_anchor, x, total - target, tol)
    return x, s.objective(x)


def reference_step(params, center, gain, gain_slope, alpha, curvature, reach, tol,
                   read=lambda: None):
    """The frozen SCA step: the surrogate at center from the gain and its slope there
    (solver._build_surrogate's arguments) maximized over its trust window (reach and
    tol as solver.solve_subproblem takes them). Returns (x, objective), or None when
    no position in the window meets the rate floor; read() runs at each evaluation
    of the surrogate's net or of a slope."""
    s = _reference_surrogate(params, center, gain, gain_slope, alpha, curvature, read)
    x0 = params.initial_position
    half = 0.25 * params.wavelength
    lo, hi = max(center - half, reach[0]), min(center + half, reach[1])
    span_lo, span_hi = s.rate_span
    cuts = sorted({lo, hi, *(t for t in (x0, span_lo, span_hi) if lo < t < hi)})
    target = params.min_throughput + _FEASIBILITY_SLACK
    best_x, best = center, s.objective(center)
    for a, b in zip(cuts, cuts[1:]):
        rate = span_lo < 0.5 * (a + b) < span_hi
        if not rate and target > 0.0:
            continue
        x, value = _reference_piece_max(s, a, b, 1.0 if a >= x0 else -1.0, rate, target, tol)
        if value > best or (value == best and x < best_x):
            best_x, best = x, value
    return None if best == -math.inf else (best_x, best)
