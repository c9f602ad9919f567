import math
import tracemalloc

import numpy as np
import pytest

from maee.channel import (
    PathAngles,
    build_expansion,
    channel_vector,
    curvature_bound,
    gain_derivative,
    gain_eval,
    gain_second_derivative,
    gain_series,
    sample_instance,
)
from maee.params import SystemParams

from conftest import (direct_gain, field_response, hand_instance, make_instance,
                      single_path_instance, slope_amplitude)


def test_field_response_zero_position():
    angles = make_instance(0).angles
    np.testing.assert_array_equal(field_response(angles, 0.01, 0.0),
                                  np.ones(angles.num_paths, dtype=complex))


def test_field_response_zero_virtual_angle():
    angles = PathAngles(np.array([0.0]), np.array([0.0]), np.array([0.0]))
    np.testing.assert_array_equal(field_response(angles, 0.01, 0.0137), np.array([1.0 + 0j]))


def test_field_response_quarter_turn():
    # 2 pi / 0.01 * 0.0025 * 1 = pi / 2
    angles = PathAngles(np.array([np.pi / 2]), np.array([0.0]), np.array([1.0]))
    value = field_response(angles, 0.01, 0.0025)[0]
    assert value == pytest.approx(1j, abs=1e-12)


@pytest.mark.parametrize("wavelength", [0.0, -0.01])
def test_field_response_rejects_bad_wavelength(wavelength):
    angles = hand_instance().angles
    with pytest.raises(ValueError):
        field_response(angles, wavelength, 0.001)


def test_field_response_unit_magnitude():
    angles = make_instance(3).angles
    for x in (0.0, 0.004, 0.02, -0.07):
        np.testing.assert_allclose(np.abs(field_response(angles, 0.01, x)), 1.0, rtol=1e-12)


def test_channel_vector_phases_vanish_at_origin():
    h = channel_vector(hand_instance(), 0.01, 0.0)
    np.testing.assert_allclose(h, np.array([2.0 + 0j]), atol=1e-15)


def test_channel_vector_zero_matrix():
    instance = single_path_instance(response=0.0, num_antennas=4)
    np.testing.assert_array_equal(channel_vector(instance, 0.01, 0.006), np.zeros(4, complex))


def test_channel_vector_norm_matches_expansion():
    rng = np.random.default_rng(11)
    angles = PathAngles.from_spherical(rng.uniform(0, np.pi, 3), rng.uniform(0, np.pi, 3))
    entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    instance = make_instance(0)
    instance = type(instance)(entries, angles)
    expansion = build_expansion(instance, 0.01)
    for x in np.linspace(0.0, 0.02, 17):
        norm_sq = float(np.sum(np.abs(channel_vector(instance, 0.01, x)) ** 2))
        assert gain_series(expansion, x) == pytest.approx(norm_sq, rel=1e-12)


def test_build_expansion_single_path():
    instance = single_path_instance(response=1.5, num_antennas=4)
    expansion = build_expansion(instance, 0.01)
    assert expansion.constant == pytest.approx(4 * 1.5**2)
    assert expansion.num_pairs == 0


def test_build_expansion_hand_case():
    expansion = build_expansion(hand_instance(), 0.01)
    assert expansion.constant == pytest.approx(2.0)
    assert expansion.num_pairs == 1
    # One unit cross term at wavenumber spread 100 pi: gain 2 + 2 cos(100 pi x).
    for x, expected in ((0.0, 4.0), (0.0025, 2.0 + math.sqrt(2.0)), (0.005, 2.0), (0.01, 0.0)):
        assert gain_series(expansion, x) == pytest.approx(expected, abs=1e-12)
    assert curvature_bound(expansion, 1.0) == pytest.approx(2.0 * (100.0 * math.pi) ** 2)


def test_build_expansion_conjugate_on_swap():
    instance = make_instance(5)
    swapped = type(instance)(
        instance.entries[::-1].copy(),
        PathAngles(instance.angles.elevation[::-1].copy(),
                   instance.angles.azimuth[::-1].copy(),
                   instance.angles.virtual_aoa[::-1].copy()),
    )
    # With two paths the single cross term conjugates under row exchange while
    # its wavenumber spread flips sign, so the series, its curvature bound and
    # the gain itself are order independent; check the L=2 submatrix.
    small = type(instance)(instance.entries[:2], PathAngles(
        instance.angles.elevation[:2], instance.angles.azimuth[:2],
        instance.angles.virtual_aoa[:2]))
    small_swapped = type(instance)(small.entries[::-1].copy(), PathAngles(
        small.angles.elevation[::-1].copy(), small.angles.azimuth[::-1].copy(),
        small.angles.virtual_aoa[::-1].copy()))
    e1 = build_expansion(small, 0.01)
    e2 = build_expansion(small_swapped, 0.01)
    xs = np.linspace(0, 0.02, 64)
    np.testing.assert_allclose(gain_series(e2, xs), gain_series(e1, xs), rtol=1e-12)
    assert curvature_bound(e2, 1.0) == pytest.approx(curvature_bound(e1, 1.0), rel=1e-12)
    np.testing.assert_allclose(gain_eval(e1, xs), gain_eval(e2, xs), rtol=1e-12)
    # Full-size instance reversed: gain unchanged as well.
    e_full = build_expansion(instance, 0.01)
    e_rev = build_expansion(swapped, 0.01)
    np.testing.assert_allclose(gain_eval(e_full, xs), gain_eval(e_rev, xs), rtol=1e-9)


def test_gain_eval_constant_single_path():
    expansion = build_expansion(single_path_instance(), 0.01)
    xs = np.linspace(0, 0.02, 50)
    np.testing.assert_array_equal(gain_eval(expansion, xs),
                                  np.full(50, expansion.constant))


def test_gain_eval_hand_value_origin():
    expansion = build_expansion(hand_instance(), 0.01)
    assert gain_eval(expansion, 0.0) == pytest.approx(4.0, rel=1e-12)


def test_gain_eval_hand_instance_matches_direct():
    instance = hand_instance()
    expansion = build_expansion(instance, 0.01)
    for x in (0.01, 0.0031, 0.02):
        assert gain_eval(expansion, x) == pytest.approx(
            float(direct_gain(instance, 0.01, x)[0]), rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_gain_eval_matches_direct_evaluation(seed, params):
    instance = make_instance(seed)
    expansion = build_expansion(instance, params.wavelength)
    xs = np.linspace(0.0, params.region_length, 1000)
    series = gain_eval(expansion, xs)
    direct = direct_gain(instance, params.wavelength, xs)
    assert np.all(np.abs(series - direct) <= 1e-9 * expansion.constant)


@pytest.mark.parametrize("points, num_paths", [(8001, 60), (40001, 60), (8001, 2000)],
                         ids=["8001", "40001", "8001-L2000"])
def test_gain_eval_memory_bounded(points, num_paths):
    # numpy reports its buffers to tracemalloc; the blocked evaluation keeps
    # the peak independent of the grid length and the path count.
    params = SystemParams(num_paths=num_paths)
    expansion = build_expansion(make_instance(0, params), params.wavelength)
    xs = np.linspace(0.0, 16 * params.wavelength, points)
    tracemalloc.start()
    try:
        gains = gain_eval(expansion, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.shape == (points,)
    assert peak <= 16 * 2**20


def test_gain_nonnegative(params):
    for seed in range(5):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        xs = np.linspace(0.0, params.region_length, 2000)
        assert np.min(gain_eval(expansion, xs)) >= -1e-9


def test_gain_derivative_single_path_zero():
    expansion = build_expansion(single_path_instance(), 0.01)
    assert gain_derivative(expansion, 1.0, 0.004) == 0.0
    assert gain_second_derivative(expansion, 1.0, 0.004) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_gain_derivative_matches_finite_difference(seed, params):
    tx = 1.0
    instance = make_instance(seed)
    expansion = build_expansion(instance, params.wavelength)
    xs = np.linspace(1e-4, params.region_length - 1e-4, 200)
    step = 1e-8
    fd = (np.asarray(gain_eval(expansion, xs + step))
          - np.asarray(gain_eval(expansion, xs - step))) * tx / (2 * step)
    analytic = gain_derivative(expansion, tx, xs)
    scale = slope_amplitude(instance, params.wavelength, tx)
    assert np.all(np.abs(fd - analytic) <= 1e-4 * np.maximum(np.abs(analytic), 1e-3 * scale))


@pytest.mark.parametrize("seed", range(4))
def test_gain_second_derivative_matches_finite_difference(seed, params):
    tx = 1.0
    expansion = build_expansion(make_instance(seed), params.wavelength)
    xs = np.linspace(1e-4, params.region_length - 1e-4, 200)
    step = 1e-6
    fd = (np.asarray(gain_eval(expansion, xs + step))
          - 2 * np.asarray(gain_eval(expansion, xs))
          + np.asarray(gain_eval(expansion, xs - step))) * tx / step**2
    analytic = gain_second_derivative(expansion, tx, xs)
    scale = curvature_bound(expansion, tx)
    assert np.all(np.abs(fd - analytic) <= 1e-3 * np.maximum(np.abs(analytic), 1e-3 * scale))


def test_gain_derivative_small_at_grid_peak(params):
    expansion = build_expansion(make_instance(9), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 10_000)
    gains = gain_eval(expansion, xs)
    idx = int(np.argmax(gains[1:-1])) + 1  # interior stationary point
    derivs = gain_derivative(expansion, 1.0, xs)
    assert abs(derivs[idx]) <= 1e-3 * float(np.max(np.abs(derivs)))


def test_curvature_bound_single_path_floor():
    # A flat gain has zero curvature; no absolute floor stands in for it.
    expansion = build_expansion(single_path_instance(), 0.01)
    assert curvature_bound(expansion, 1.0) == 0.0


def test_curvature_bound_hand_value():
    expansion = build_expansion(hand_instance(), 0.01)
    expected = 8.0 * math.pi**2 * 1.0 * 1.0 * 0.5**2 / 0.01**2
    assert curvature_bound(expansion, 1.0) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_curvature_bound_dominates_grid(seed, params):
    tx = params.max_tx_power
    expansion = build_expansion(make_instance(seed), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 10_000)
    eps = curvature_bound(expansion, tx)
    assert np.max(gain_second_derivative(expansion, tx, xs)) <= eps * (1 + 1e-12)


def test_curvature_bound_rejects_bad_power():
    expansion = build_expansion(hand_instance(), 0.01)
    with pytest.raises(ValueError):
        curvature_bound(expansion, 0.0)


def test_sample_instance_mean_power(params):
    rng = np.random.default_rng(42)
    total, count = 0.0, 0
    while count < 100_000:
        instance = sample_instance(params, rng)
        total += float(np.sum(np.abs(instance.entries) ** 2))
        count += instance.entries.size
    assert total / count == pytest.approx(params.path_gain_variance, rel=0.02)


def test_sample_instance_virtual_angle_range(params):
    rng = np.random.default_rng(1)
    for _ in range(100):
        instance = sample_instance(params, rng)
        assert np.all(np.abs(instance.angles.virtual_aoa) <= 1.0)
        np.testing.assert_allclose(
            instance.angles.virtual_aoa,
            np.sin(instance.angles.elevation) * np.cos(instance.angles.azimuth),
            rtol=1e-15)


def test_sample_instance_deterministic(params):
    a = sample_instance(params, np.random.default_rng(123))
    b = sample_instance(params, np.random.default_rng(123))
    np.testing.assert_array_equal(a.entries, b.entries)
    np.testing.assert_array_equal(a.angles.elevation, b.angles.elevation)
    np.testing.assert_array_equal(a.angles.azimuth, b.angles.azimuth)
    np.testing.assert_array_equal(a.angles.virtual_aoa, b.angles.virtual_aoa)


def test_path_angles_reject_inconsistent_lengths():
    with pytest.raises(ValueError):
        PathAngles(np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        PathAngles(np.zeros(1), np.zeros(1), np.array([1.5]))
