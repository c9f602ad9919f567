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
