"""search.root and search.concave_max, and the polish ee.grid_max builds from them.

grid_max scans the lattice and polishes the cells next to its best point with
concave_max; the grid_polish tests check that on synthetic objectives with
closed-form slopes, on the default two-wavelength track (lattice spacing
wavelength / 500, rest position at its center). root is checked against
reference_root, a frozen copy of its loop in the form that recomputes every
sign and absolute value at each step: the two must evaluate f at the same
points and return the same float.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maee import ee, harness, search
from maee.channel import build_expansion
from maee.ee import grid_max, grid_slice
from maee.params import SystemParams
from maee.search import concave_max, root

from conftest import make_instance

PARAMS = SystemParams()
GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = ee.ROOT_TOL_WAVELENGTHS * PARAMS.wavelength


def counted(f):
    """f, with the positions it is called at appended to its calls list."""
    def wrapper(t):
        wrapper.calls.append(t)
        return f(t)
    wrapper.calls = []
    return wrapper


def reference_root(f, a, fa, b, fb, tol):
    """search.root's Brent loop, frozen in its plain form: the reference its steps are held to."""
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


def assert_reference_steps(f, a, fa, b, fb, tol):
    """root and reference_root evaluate f at the same points and return the same float."""
    ours, theirs = counted(f), counted(f)
    x = root(ours, a, fa, b, fb, tol)
    assert (x, ours.calls) == (reference_root(theirs, a, fa, b, fb, tol), theirs.calls)
    return x


@settings(max_examples=400, deadline=None)
@given(coeffs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
       wave=st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 60.0)),
       a=st.floats(-2.0, 2.0), width=st.floats(1e-9, 4.0), level=st.floats(0.01, 0.99),
       scale=st.sampled_from([1e-150, 1e-110, 1.0, 1e100]),
       tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-2]), swap=st.booleans())
def test_root_takes_the_reference_steps(coeffs, wave, a, width, level, scale, tol, swap):
    """On polynomials plus a cosine, shifted to change sign on [a, b], with
    one or many roots, at scales where the inverse quadratic step underflows,
    and with tol 0, where the loop ends only once no float splits the bracket."""
    amplitude, freq = wave

    def g(t):
        return sum(c * t**k for k, c in enumerate(coeffs)) + amplitude * math.cos(freq * t)

    b = a + width
    shift = g(a) + level * (g(b) - g(a))

    def f(t):
        return scale * (g(t) - shift)

    fa, fb = f(a), f(b)
    if fa * fb > 0.0 or math.isnan(fa * fb):
        return
    if swap:
        a, fa, b, fb = b, fb, a, fa
    assert_reference_steps(f, a, fa, b, fb, tol)


@pytest.mark.parametrize("config", [None, "tight_power"])
def test_root_takes_the_reference_steps_on_a_sweep(config, monkeypatch):
    """Every root of a power sweep takes the reference steps. They are the
    grid polish's roots of the gain's and the rate's slopes, one of each per
    instance where the two searches do not share a point; the solver takes
    its roots by newton_max and newton_root."""
    roots = []

    def checked(f, *args):
        roots.append(assert_reference_steps(f, *args))
        return roots[-1]

    monkeypatch.setattr(search, "root", checked)
    base = harness.load_config(GOLDEN / config / "params.cfg") if config else PARAMS
    harness.run_sweep(harness.SweepConfig(base=base, sweep_variable="power",
                                          sweep_values=(0.1, 1.0, 5.0), trials=10))
    assert len(roots) > 15


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
    """No cell is polished; the rest tie reads the channel once, at x0."""
    reads, original = [], ee.channel.gain_and_slope

    def counted(expansion, x):
        reads.append(x)
        return original(expansion, x)

    monkeypatch.setattr(ee.channel, "gain_and_slope", counted)
    x, fx = polish(lambda t: np.full(np.shape(t), -np.inf), lambda t: 0.0)
    assert fx == -math.inf
    assert x == PARAMS.initial_position  # the rest position ties with the scan
    assert reads == [PARAMS.initial_position]


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
