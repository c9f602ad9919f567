"""The one root finder, search.newton_root and search.newton_max, and the
polish ee.grid_max builds from them.

The root and concave-max tests hold the two searches to their contracts: a
root is returned on its side with f >= 0 and within tol, exact zeros as they
are, at any scale of f; a concave maximum is an end where the slope points out
of the interval, else a root of the slope. grid_max scans the lattice and
polishes the cells next to its best point with newton_max; the grid_polish
tests check that on synthetic objectives with closed-form derivatives, on the
default two-wavelength track (lattice spacing wavelength / 500, rest position
at its center). The polish tests hold every Newton polish of the schemes and
the oracle to reference_max and reference_root (conftest), Brent's method,
on the same cell.
"""

import contextlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maee import bench, channel, ee, harness, search
from maee.channel import build_expansion
from maee.ee import GAIN, Objective, grid_max, grid_scan
from maee.params import SystemParams
from maee.search import newton_max, newton_root

from conftest import make_instance, reference_max, reference_root

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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(coeffs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
       wave=st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 60.0)),
       a=st.floats(-2.0, 2.0), width=st.floats(1e-9, 4.0), level=st.floats(0.01, 0.99),
       scale=st.sampled_from([1e-150, 1e-110, 1.0, 1e100]),
       tol=st.sampled_from([0.0, 1e-15, 1e-12]), swap=st.booleans())
def test_newton_root_lands_on_a_sign_change(coeffs, wave, a, width, level, scale, tol, swap):
    """On polynomials plus a cosine, shifted to change sign on [a, b], with
    one or many roots, at scales from 1e-150 to 1e100, and with tol 0, where
    the loop ends only once no float splits the bracket: the root lies in
    the bracket with f >= 0, and f changes sign within 2 tol of it, or of
    the span f's rounding blurs, or between it and the next float. tol is at most 1e-12 of the functions'
    length scales, as the root tolerance is of the gain's: a converged
    Newton step estimates the distance to the root, which is no bracket when
    tol nears that scale (CHANGES.md, FOUND on search._newton)."""
    amplitude, freq = wave

    def g(t):
        return sum(c * t**k for k, c in enumerate(coeffs)) + amplitude * math.cos(freq * t)

    def g_slope(t):
        return (sum(k * c * t**(k - 1) for k, c in enumerate(coeffs) if k)
                - amplitude * freq * math.sin(freq * t))

    b = a + width
    shift = g(a) + level * (g(b) - g(a))

    def f(t):
        return scale * (g(t) - shift)

    fa, fb = f(a), f(b)
    if fa * fb > 0.0 or math.isnan(fa * fb):
        return
    if swap:
        a, fa, b, fb = b, fb, a, fa
    x = newton_root(lambda t: (f(t), scale * g_slope(t)), a, fa, b, fb, tol)
    assert min(a, b) <= x <= max(a, b)
    assert f(x) >= 0.0
    # f's own rounding, 8 ulps of its terms, blurs where it changes sign by that over f'
    terms = sum(abs(c) * abs(x)**k for k, c in enumerate(coeffs)) + amplitude + abs(shift)
    slope = abs(g_slope(x))
    reach = 2.0 * tol + (8.0 * sys.float_info.epsilon * terms / slope if slope else math.inf)
    lo, hi = min(a, b), max(a, b)
    near = [math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
            *np.linspace(max(x - reach, lo), min(x + reach, hi), 33).tolist()]
    assert f(x) == 0.0 or min(f(t) for t in near if lo <= t <= hi) <= 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-110, 1e-150])
def test_root_does_not_depend_on_the_scale_of_f(scale):
    """A Newton step -f/f' is the same at any scale of f and f', down to the
    scales where Brent's inverse quadratic step underflowed."""
    def fd(t):
        return scale * (math.cos(t) - 0.3), -scale * math.sin(t)

    tol = 1e-12
    x = newton_root(fd, 0.0, fd(0.0)[0], 2.0, fd(2.0)[0], tol)
    assert abs(x - math.acos(0.3)) <= tol
    assert fd(x)[0] >= 0.0


def test_root_swapped_bounds_and_narrow_interval():
    def fd(t):
        return 0.7 - t, -1.0

    for a, b in ((0.0, 2.0), (2.0, 0.0)):
        x = newton_root(fd, a, fd(a)[0], b, fd(b)[0], 1e-9)
        assert abs(x - 0.7) <= 1e-9 and fd(x)[0] >= 0.0
    # a bracket no float splits returns its end with f > 0 without a call
    g = counted(fd)
    after = math.nextafter(0.6, 1.0)
    assert newton_root(g, 0.6, 0.1, after, -0.1, tol=0.0) == 0.6
    assert newton_root(g, after, -0.1, 0.6, 0.1, tol=0.0) == 0.6
    assert g.calls == []


def test_root_returns_exact_zeros():
    f = counted(lambda t: (t - 0.5, 1.0))
    assert newton_root(f, 0.5, 0.0, 1.0, 0.5, 1e-9) == 0.5
    assert newton_root(f, 0.0, -0.5, 0.5, 0.0, 1e-9) == 0.5
    assert f.calls == []  # a zero at an end is returned without a call
    # the first secant step of a line lands on its zero, which is returned as is
    assert newton_root(f, 0.0, -0.5, 1.0, 0.5, 1e-9) == 0.5
    assert f.calls == [0.5]


def test_concave_max_at_the_ends():
    fd = counted(lambda t: (-2.0 * (t - 3.0), -2.0))  # of -(t - 3)^2
    assert newton_max(fd, 4.0, 5.0, 4.0, 1e-9) == 4.0
    assert fd.calls == [4.0]  # a falling start at a settles it
    assert newton_max(fd, 0.0, 1.0, 0.0, 1e-9) == 1.0
    assert newton_max(fd, 0.0, 3.0, 0.0, 1e-9) == 3.0  # a zero slope at b
    assert newton_max(fd, 4.0, 5.0, 5.0, 1e-9) == 4.0  # from b, the far end is read


@pytest.mark.parametrize("peak", [0.123, 0.5, 0.987654])
def test_concave_max_finds_an_interior_max_within_tol(peak):
    """From either end, on a parabola and on a concave function whose
    curvature changes along the interval."""
    for fd in (lambda t: (-2.0 * (t - peak), -2.0),
               lambda t: (-math.sinh(4.0 * (t - peak)), -4.0 * math.cosh(4.0 * (t - peak)))):
        for start in (0.0, 1.0):
            assert abs(newton_max(fd, 0.0, 1.0, start, 1e-12) - peak) <= 1e-12


def test_concave_max_ties_take_a():
    """A slope of 0 at the start keeps the start: a, when the search starts there."""
    assert newton_max(lambda t: (0.0, 0.0), 0.25, 0.75, 0.25, 1e-9) == 0.25
    # a flat top reaching a: the slope is 0 there
    assert newton_max(lambda t: (min(0.0, -2.0 * (t - 0.5)), 0.0 if t < 0.5 else -2.0),
                      0.5, 1.0, 0.5, 1e-9) == 0.5


def polish(objective, derivatives, lo=0.0, hi=PARAMS.region_length):
    """grid_max of objective(xs) with (slope, second) = derivatives(x) on [lo, hi]
    of seed 0's channel."""
    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    return grid_max(expansion, PARAMS, lo, hi, Objective(
        "synthetic", (), lambda xs, gains, params: objective(xs),
        lambda x, side, gain, gain_slope, gain_second, params: derivatives(x)))


@pytest.mark.parametrize("peak", [0.0123, 0.5, 0.77777])
def test_grid_polish_finds_unimodal_max_within_tol(peak):
    peak *= PARAMS.region_length
    x, fx = polish(lambda t: -(t - peak) ** 2, lambda t: (-2.0 * (t - peak), -2.0))
    assert abs(x - peak) <= TOL
    assert fx == -(x - peak) ** 2


def test_grid_polish_argmax_at_first_point():
    assert polish(lambda t: -t, lambda t: (-1.0, 0.0)) == (0.0, 0.0)


def test_grid_polish_argmax_at_last_point():
    end = PARAMS.region_length
    assert polish(lambda t: t, lambda t: (1.0, 0.0)) == (end, end)


def test_grid_polish_all_minus_inf_returned_without_polish(monkeypatch):
    """No cell is polished; the rest tie reads the channel once, at x0."""
    reads, original = [], channel.kept_gain_and_slope

    def recorded(expansion, x):
        reads.append(x)
        return original(expansion, x)

    monkeypatch.setattr(channel, "kept_gain_and_slope", recorded)
    x, fx = polish(lambda t: np.full(np.shape(t), -np.inf), lambda t: (0.0, 0.0))
    assert fx == -math.inf
    assert x == PARAMS.initial_position  # the rest position ties with the scan
    assert reads == [PARAMS.initial_position]


def test_grid_polish_ties_resolve_to_smallest_x():
    spacing = ee.gain_grid(build_expansion(make_instance(0), PARAMS.wavelength),
                           PARAMS.wavelength, PARAMS.region_length).spacing
    peaks = (250 * spacing, 750 * spacing)  # lattice points, either side of the rest position

    def two_peaks(t):
        return np.maximum(-np.abs(t - peaks[0]), -np.abs(t - peaks[1]))

    def derivatives(t):
        near = min(peaks, key=lambda p: abs(t - p))
        return (-math.copysign(1.0, t - near) if t != near else 0.0), 0.0

    assert polish(two_peaks, derivatives) == (peaks[0], 0.0)  # equal peaks: the left one wins
    # a constant keeps the rest position, which comes before the smallest x
    assert polish(lambda t: np.ones(np.shape(t)), lambda t: (0.0, 0.0)) == (
        PARAMS.initial_position, 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_grid_polish_never_worse_than_grid_best(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(1.0, 40.0, 6) / PARAMS.region_length
    phases = rng.uniform(0.0, 2 * np.pi, 6)

    def wiggly(t):
        return np.sum(np.cos(np.multiply.outer(t, freqs) + phases), axis=-1)

    def derivatives(t):
        return (float(-np.sum(freqs * np.sin(t * freqs + phases))),
                float(-np.sum(freqs * freqs * np.cos(t * freqs + phases))))

    lo, hi = sorted(rng.uniform(0.0, PARAMS.region_length, 2))
    x, fx = polish(wiggly, derivatives, lo, hi)
    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    best = float(np.max(wiggly(grid_scan(expansion, PARAMS, lo, hi, GAIN)[0])))
    assert fx >= best - 1e-12 * abs(best)
    assert fx == wiggly(x)
    assert lo <= x <= hi  # the rest position too only when it lies in [lo, hi]


def test_grid_polish_stays_in_an_interval_beside_the_rest_position():
    """A rest position outside [lo, hi] is neither scanned nor kept by the tie
    rule, even where its value would be the best."""
    x0 = PARAMS.initial_position
    for lo, hi in ((0.0, 0.5 * x0), (1.5 * x0, PARAMS.region_length)):
        x, fx = polish(lambda t: -(t - x0) ** 2, lambda t: (-2.0 * (t - x0), -2.0), lo, hi)
        nearest = hi if hi < x0 else lo
        assert (x, fx) == (nearest, -(nearest - x0) ** 2)


def test_grid_polish_feeds_plain_floats_to_the_polish():
    kinds = []

    def derivatives(x, side, gain, gain_slope, gain_second, params):
        kinds.append(tuple(map(type, (x, side, gain, gain_slope, gain_second))))
        return -2.0 * (x - 0.00301), -2.0

    expansion = build_expansion(make_instance(0), PARAMS.wavelength)
    x, fx = grid_max(expansion, PARAMS, 0.0, PARAMS.region_length, Objective(
        "parabola", (), lambda xs, gains, params: -(xs - 0.00301) ** 2, derivatives))
    assert abs(x - 0.00301) <= TOL
    assert type(fx) is float
    assert len(kinds) > 2
    assert all(kind == (float,) * 5 for kind in kinds)


@contextlib.contextmanager
def polishes():
    """Records, inside the block, each of ee.grid_max's Newton searches with the
    value of its objective at a position: ("max", value, fd, a, b, x) for a
    cell's maximizer and ("root", value, fd, a, fa, b, fb, x) for a floor
    crossing."""
    found, searching = [], []
    original = ee.grid_max

    def recorded_grid_max(expansion, params, lo, hi, objective):
        searching.append(lambda t: float(objective.values(
            t, channel.kept_gain_and_slope(expansion, t)[0], params)))
        return original(expansion, params, lo, hi, objective)

    def recorded_max(fd, a, b, start, tol):
        found.append(("max", searching[-1], fd, a, b, search.newton_max(fd, a, b, start, tol)))
        return found[-1][-1]

    def recorded_root(fd, a, fa, b, fb, tol):
        found.append(("root", searching[-1], fd, a, fa, b, fb,
                      search.newton_root(fd, a, fa, b, fb, tol)))
        return found[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ee, "grid_max", recorded_grid_max)
        patch.setattr(ee, "search", SimpleNamespace(newton_max=recorded_max,
                                                    newton_root=recorded_root))
        yield found


def assert_polishes_match_the_reference(found, tol):
    """Each Newton search lands within 2 tol of Brent's on the same cell (both
    stop within tol of the root, Brent's on the side its bracket ends), or,
    on a cell where the objective is not concave, at a position whose value
    is no worse than Brent's. Returns how many took that second way."""
    others = 0
    for kind, value, fd, *rest in found:
        x = rest[-1]
        if kind == "max":
            a, b = rest[:2]
            reference = reference_max(lambda t: fd(t)[0], a, b, tol)
        else:
            a, fa, b, fb = rest[:4]
            reference = reference_root(lambda t: fd(t)[0], a, fa, b, fb, tol)
        if abs(x - reference) > 2.0 * tol:
            assert value(x) >= value(reference), (kind, x, reference)
            others += 1
    return others


@pytest.mark.parametrize("config", [None, "tight_power"])
def test_polish_matches_the_reference_on_a_sweep(config):
    """Every polish of a power sweep, of the gain and the rate (and under
    tight_power's floor, of the oracle's efficiency), matches Brent's on its
    cell; the solver takes its own roots. A cell that ends at the rest
    position, where the travel puts a cusp in the rate and the efficiency,
    need not be concave: there Newton's steps may keep the scan's best point
    while Brent's stop at the cell's other end. Fewer than a quarter of the
    polishes take that way here."""
    base = harness.load_config(GOLDEN / config / "params.cfg") if config else PARAMS
    with polishes() as found:
        for seed in range(10):
            expansion = harness.instance_for(base, seed)
            for power in (0.1, 1.0, 5.0):
                params = harness.params_for_value(base, "power", power)
                bench.evaluate_schemes(expansion, params, bench.SCHEME_ORDER[1:])
                bench.grid_global_ee(expansion, params)
    assert len(found) > 40
    assert any(kind == "root" for kind, *_ in found) == (config is not None)
    others = assert_polishes_match_the_reference(found, base.wavelength * ee.ROOT_TOL_WAVELENGTHS)
    assert others < len(found) // 4


@settings(derandomize=True, deadline=None, max_examples=60)
@given(speed=st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e), rest=st.floats(0.0, 1.0),
       max_tx_power=st.sampled_from([1e-3, 0.01, 1.0, 1e9, 1e152]),
       movement_power=st.sampled_from([0.001, 0.5, 5.0]),
       min_throughput=st.sampled_from([-1.0, 5.0, 10.0, 200.0]),
       num_paths=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
# The reach ends inside the track on both sides of the rest position.
@example(speed=0.0019, rest=0.5, max_tx_power=0.01, movement_power=0.5, min_throughput=10.0,
         num_paths=10, seed=0)
# The oracle's polish crosses the rate floor (search.newton_root).
@example(speed=0.2, rest=0.5, max_tx_power=0.01, movement_power=5.0, min_throughput=10.0,
         num_paths=10, seed=2)
def test_polish_matches_the_reference_on_drawn_params(speed, rest, max_tx_power, movement_power,
                                                      min_throughput, num_paths, seed):
    """On params drawn with reach ends inside the track, transmit powers up to
    1e152 W and rate floors that bind, every polish of the ceiling, max_snr,
    max_throughput and the oracle matches Brent's on its cell."""
    try:
        params = SystemParams(speed=speed, initial_position=rest * PARAMS.region_length,
                              max_tx_power=max_tx_power, movement_power=movement_power,
                              min_throughput=min_throughput, num_paths=num_paths)
    except ValueError as exc:
        assert "overflows" in str(exc)
        return
    with polishes() as found:
        expansion = harness.instance_for(params, seed)
        bench.evaluate_schemes(expansion, params, bench.SCHEME_ORDER[1:])
        bench.grid_global_ee(expansion, params)
    assert found
    assert_polishes_match_the_reference(found, params.wavelength * ee.ROOT_TOL_WAVELENGTHS)
