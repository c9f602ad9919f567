"""search.root and search.concave_max, and the polish ee.grid_max builds from them.

grid_max scans the lattice and polishes the cells next to its best point with
concave_max; the grid_polish tests check that on synthetic objectives with
closed-form slopes, on the default two-wavelength track (lattice spacing
wavelength / 500, rest position at its center).
"""

import math

import numpy as np
import pytest

from maee import ee
from maee.channel import build_expansion
from maee.ee import grid_max, grid_slice
from maee.params import SystemParams
from maee.search import concave_max, root

from conftest import make_instance

PARAMS = SystemParams()
TOL = ee.ROOT_TOL_WAVELENGTHS * PARAMS.wavelength


def counted(f):
    """f, with the positions it is called at appended to its calls list."""
    def wrapper(t):
        wrapper.calls.append(t)
        return f(t)
    wrapper.calls = []
    return wrapper


@pytest.mark.parametrize("scale", [1.0, 1e-110, 1e-150])
def test_root_does_not_depend_on_the_scale_of_f(scale):
    """Brent's inverse quadratic step divides by a product of three
    differences of f, which underflows to 0 once |f| is below ~1e-110; such
    a step bisects instead of raising ZeroDivisionError."""
    def f(t):
        return scale * (math.cos(t) - 0.3)

    tol = 1e-12
    x = root(f, 0.0, f(0.0), 2.0, f(2.0), tol)
    assert abs(x - math.acos(0.3)) <= tol
    assert f(x) >= 0.0


def test_root_swapped_bounds_and_narrow_interval():
    def f(t):
        return 0.7 - t

    for a, b in ((0.0, 2.0), (2.0, 0.0)):
        x = root(f, a, f(a), b, f(b), 1e-9)
        assert abs(x - 0.7) <= 1e-9 and f(x) >= 0.0
    # a bracket already at tol returns its end with f > 0 without a call
    g = counted(f)
    assert root(g, 0.6, f(0.6), 0.8, f(0.8), tol=0.25) == 0.6
    assert root(g, 0.8, f(0.8), 0.6, f(0.6), tol=0.25) == 0.6
    assert g.calls == []


def test_root_returns_exact_zeros():
    f = counted(lambda t: t - 0.5)
    assert root(f, 0.5, 0.0, 1.0, 0.5, 1e-9) == 0.5
    assert root(f, 0.0, -0.5, 0.5, 0.0, 1e-9) == 0.5
    assert f.calls == []  # a zero at an end is returned without a call
    # the first secant step of a line lands on its zero, which is returned as is
    assert root(f, 0.0, -0.5, 1.0, 0.5, 1e-9) == 0.5
    assert f.calls == [0.5]


def test_concave_max_at_the_ends():
    slope = counted(lambda t: -2.0 * (t - 3.0))  # of -(t - 3)^2
    assert concave_max(slope, 4.0, 5.0, 1e-9) == 4.0
    assert slope.calls == [4.0]  # a falling start settles it
    assert concave_max(slope, 0.0, 1.0, 1e-9) == 1.0
    assert concave_max(slope, 0.0, 3.0, 1e-9) == 3.0  # a zero slope at b


@pytest.mark.parametrize("peak", [0.123, 0.5, 0.987654])
def test_concave_max_finds_an_interior_max_within_tol(peak):
    x = concave_max(lambda t: -2.0 * (t - peak), 0.0, 1.0, 1e-12)
    assert abs(x - peak) <= 1e-12


def test_concave_max_ties_take_a():
    assert concave_max(lambda t: 0.0, 0.25, 0.75, 1e-9) == 0.25
    # a flat top reaching a: the slope is 0 there
    assert concave_max(lambda t: min(0.0, -2.0 * (t - 0.5)), 0.5, 1.0, 1e-9) == 0.5


def polish(objective, slope, lo=0.0, hi=PARAMS.region_length):
    """grid_max of objective(xs) with slope(x) on [lo, hi] of seed 0's channel."""
    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    return grid_max(expansion, PARAMS, lo, hi, lambda xs, gains: objective(xs),
                    lambda x, side, gain, gain_slope: slope(x))


@pytest.mark.parametrize("peak", [0.0123, 0.5, 0.77777])
def test_grid_polish_finds_unimodal_max_within_tol(peak):
    peak *= PARAMS.region_length
    x, fx = polish(lambda t: -(t - peak) ** 2, lambda t: -2.0 * (t - peak))
    assert abs(x - peak) <= TOL
    assert fx == -(x - peak) ** 2


def test_grid_polish_argmax_at_first_point():
    assert polish(lambda t: -t, lambda t: -1.0) == (0.0, 0.0)


def test_grid_polish_argmax_at_last_point():
    end = PARAMS.region_length
    assert polish(lambda t: t, lambda t: 1.0) == (end, end)


def test_grid_polish_all_minus_inf_returned_without_polish(monkeypatch):
    reads = []
    monkeypatch.setattr(ee.channel, "gain_and_slope", lambda *args: reads.append(args))
    x, fx = polish(lambda t: np.full(np.shape(t), -np.inf), lambda t: 0.0)
    assert fx == -math.inf
    assert x == PARAMS.initial_position  # the rest position ties with the scan
    assert reads == []


def test_grid_polish_ties_resolve_to_smallest_x():
    spacing = ee.gain_grid(build_expansion(make_instance(0), PARAMS.wavelength),
                           PARAMS.wavelength, PARAMS.region_length).spacing
    peaks = (250 * spacing, 750 * spacing)  # lattice points, either side of the rest position

    def two_peaks(t):
        return np.maximum(-np.abs(t - peaks[0]), -np.abs(t - peaks[1]))

    def slope(t):
        near = min(peaks, key=lambda p: abs(t - p))
        return -math.copysign(1.0, t - near) if t != near else 0.0

    assert polish(two_peaks, slope) == (peaks[0], 0.0)  # equal peaks: the left one wins
    # a constant keeps the rest position, which comes before the smallest x
    assert polish(lambda t: np.ones(np.shape(t)), lambda t: 0.0) == (PARAMS.initial_position,
                                                                    1.0)


@pytest.mark.parametrize("seed", range(5))
def test_grid_polish_never_worse_than_grid_best(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(1.0, 40.0, 6) / PARAMS.region_length
    phases = rng.uniform(0.0, 2 * np.pi, 6)

    def wiggly(t):
        return np.sum(np.cos(np.multiply.outer(t, freqs) + phases), axis=-1)

    def slope(t):
        return float(-np.sum(freqs * np.sin(t * freqs + phases)))

    lo, hi = sorted(rng.uniform(0.0, PARAMS.region_length, 2))
    x, fx = polish(wiggly, slope, lo, hi)
    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    best = float(np.max(wiggly(grid_slice(expansion, PARAMS, lo, hi)[0])))
    assert fx >= best - 1e-12 * abs(best)
    assert fx == wiggly(x)
    assert lo <= x <= hi  # the rest position too only when it lies in [lo, hi]


def test_grid_polish_stays_in_an_interval_beside_the_rest_position():
    """A rest position outside [lo, hi] is neither scanned nor kept by the tie
    rule, even where its value would be the best."""
    x0 = PARAMS.initial_position
    for lo, hi in ((0.0, 0.5 * x0), (1.5 * x0, PARAMS.region_length)):
        x, fx = polish(lambda t: -(t - x0) ** 2, lambda t: -2.0 * (t - x0), lo, hi)
        nearest = hi if hi < x0 else lo
        assert (x, fx) == (nearest, -(nearest - x0) ** 2)


def test_grid_polish_feeds_plain_floats_to_the_polish():
    kinds = []

    def slope(x, side, gain, gain_slope):
        kinds.append((type(x), type(side), type(gain), type(gain_slope)))
        return -2.0 * (x - 0.003)

    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    x, fx = grid_max(expansion, PARAMS, 0.0, PARAMS.region_length,
                     lambda xs, gains: -(xs - 0.003) ** 2, slope)
    assert abs(x - 0.003) <= TOL
    assert type(fx) is float
    assert len(kinds) > 2
    assert all(kind == (float,) * 4 for kind in kinds)
