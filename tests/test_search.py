import math

import numpy as np
import pytest

from maee.search import golden_section_max, grid_polish_max


def parabola(peak):
    return lambda t: -(np.asarray(t, dtype=float) - peak) ** 2


def scan_polish(f, xs, tol):
    """grid_polish_max with the scan values from one array call of f."""
    return grid_polish_max(f, xs, f(xs), tol)


@pytest.mark.parametrize("peak", [0.123, 0.5, 0.987654])
def test_golden_finds_unimodal_max_within_tol(peak):
    x, fx = golden_section_max(lambda t: -(t - peak) ** 2, 0.0, 1.0, tol=1e-9)
    assert abs(x - peak) <= 1e-9
    assert fx == -(x - peak) ** 2


def test_golden_swapped_bounds_and_narrow_interval():
    x, _ = golden_section_max(lambda t: -(t - 0.3) ** 2, 1.0, 0.0, tol=1e-9)
    assert abs(x - 0.3) <= 1e-9
    # an interval already below tol only evaluates its ends
    x, fx = golden_section_max(lambda t: t, 0.5, 0.5 + 1e-12, tol=1e-9)
    assert (x, fx) == (0.5 + 1e-12, 0.5 + 1e-12)


@pytest.mark.parametrize("peak", [0.0123, 0.5, 0.77777])
def test_grid_polish_finds_unimodal_max_within_tol(peak):
    xs = np.linspace(0.0, 1.0, 65)
    x, fx = scan_polish(parabola(peak), xs, tol=1e-9)
    assert abs(x - peak) <= 1e-9
    assert fx == pytest.approx(0.0, abs=1e-17)


def test_grid_polish_argmax_at_first_point():
    xs = np.linspace(0.0, 1.0, 11)
    x, fx = scan_polish(lambda t: -np.asarray(t, dtype=float), xs, tol=1e-9)
    assert (x, fx) == (0.0, 0.0)


def test_grid_polish_argmax_at_last_point():
    xs = np.linspace(0.0, 1.0, 11)
    x, fx = scan_polish(lambda t: np.asarray(t, dtype=float), xs, tol=1e-9)
    assert (x, fx) == (1.0, 1.0)


def test_grid_polish_all_minus_inf_returned_without_polish():
    calls = []

    def nowhere(t):
        calls.append(np.size(t))
        return np.full(np.shape(t), -np.inf)

    xs = np.linspace(0.0, 1.0, 9)
    x, fx = scan_polish(nowhere, xs, tol=1e-9)
    assert fx == -math.inf
    assert x == 0.0
    assert calls == [9]  # the caller's scan only


def test_grid_polish_ties_resolve_to_smallest_x():
    xs = np.linspace(0.0, 1.0, 21)
    x, fx = scan_polish(lambda t: np.ones(np.shape(t)), xs, tol=1e-9)
    assert (x, fx) == (0.0, 1.0)

    def two_peaks(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(-np.abs(t - 0.25), -np.abs(t - 0.75))

    # equal peaks: the left one wins
    x, fx = scan_polish(two_peaks, xs, tol=1e-9)
    assert (x, fx) == (0.25, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_grid_polish_never_worse_than_grid_best(seed):
    rng = np.random.default_rng(seed)
    freqs, phases = rng.uniform(1.0, 40.0, 6), rng.uniform(0.0, 2 * np.pi, 6)

    def wiggly(t):
        t = np.asarray(t, dtype=float)
        return np.sum(np.cos(np.outer(t, freqs) + phases), axis=1)

    xs = np.sort(rng.uniform(0.0, 1.0, 40))
    x, fx = scan_polish(wiggly, xs, tol=1e-9)
    assert fx >= np.max(wiggly(xs))
    assert fx == wiggly(np.array([x]))[0]
    assert xs[0] <= x <= xs[-1]


def test_grid_polish_feeds_plain_floats_to_the_polish():
    kinds = []

    def f(t):
        kinds.append(type(t))
        return -(t - 0.3) ** 2

    xs = np.linspace(0.0, 1.0, 11)
    x, fx = grid_polish_max(f, xs, -(xs - 0.3) ** 2, tol=1e-9)
    assert abs(x - 0.3) <= 1e-9
    assert type(fx) is float
    assert len(kinds) > 2
    assert all(kind is float for kind in kinds)  # the scan values come from the caller
