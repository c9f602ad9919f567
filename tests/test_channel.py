import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from maee import channel
from maee.channel import (
    PathResponseMatrix,
    build_expansion,
    channel_vector,
    curvature_bound,
    gain_and_slope,
    gain_eval,
    gain_lattice,
    gain_series,
    kept_gain_and_slope,
    sample_instance,
)
from maee.invariants import gain_forms
from maee.params import MAX_BS_ANTENNAS, MAX_PATHS, MAX_RESPONSE_ENTRIES, SystemParams

from conftest import (direct_gain, field_response, hand_instance, make_instance,
                      single_path_instance)


def test_field_response_zero_position():
    virtual_aoa = make_instance(0).virtual_aoa
    np.testing.assert_array_equal(field_response(virtual_aoa, 0.01, 0.0),
                                  np.ones(virtual_aoa.size, dtype=complex))


def test_field_response_zero_virtual_angle():
    np.testing.assert_array_equal(field_response([0.0], 0.01, 0.0137), np.array([1.0 + 0j]))


def test_field_response_quarter_turn():
    # 2 pi / 0.01 * 0.0025 * 1 = pi / 2
    value = field_response([1.0], 0.01, 0.0025)[0]
    assert value == pytest.approx(1j, abs=1e-12)


@pytest.mark.parametrize("wavelength", [0.0, -0.01])
def test_field_response_rejects_bad_wavelength(wavelength):
    with pytest.raises(ValueError, match="wavelength"):
        build_expansion(hand_instance(), wavelength)


def test_field_response_unit_magnitude():
    virtual_aoa = make_instance(3).virtual_aoa
    for x in (0.0, 0.004, 0.02, -0.07):
        np.testing.assert_allclose(np.abs(field_response(virtual_aoa, 0.01, x)), 1.0,
                                   rtol=1e-12)


def test_channel_vector_phases_vanish_at_origin():
    h = channel_vector(build_expansion(hand_instance(), 0.01), 0.0)
    np.testing.assert_allclose(h, np.array([2.0 + 0j]), atol=1e-15)


def test_channel_vector_zero_matrix():
    expansion = build_expansion(single_path_instance(response=0.0, num_antennas=4), 0.01)
    np.testing.assert_array_equal(channel_vector(expansion, 0.006), np.zeros(4, complex))


def test_channel_vector_norm_matches_expansion():
    rng = np.random.default_rng(11)
    elevation, azimuth = rng.uniform(0, np.pi, 3), rng.uniform(0, np.pi, 3)
    entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    instance = PathResponseMatrix(entries, np.sin(elevation) * np.cos(azimuth))
    expansion = build_expansion(instance, 0.01)
    for x in np.linspace(0.0, 0.02, 17):
        norm_sq = float(np.sum(np.abs(channel_vector(expansion, x)) ** 2))
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
    assert curvature_bound(expansion) == pytest.approx(2.0 * (100.0 * math.pi) ** 2)


def test_build_expansion_conjugate_on_swap():
    instance = make_instance(5)
    swapped = PathResponseMatrix(instance.entries[::-1].copy(),
                                 instance.virtual_aoa[::-1].copy())
    # With two paths the single cross term conjugates under row exchange while
    # its wavenumber spread flips sign, so the series, its curvature bound and
    # the gain itself are order independent; check the L=2 submatrix.
    small = PathResponseMatrix(instance.entries[:2], instance.virtual_aoa[:2])
    small_swapped = PathResponseMatrix(small.entries[::-1].copy(),
                                       small.virtual_aoa[::-1].copy())
    e1 = build_expansion(small, 0.01)
    e2 = build_expansion(small_swapped, 0.01)
    xs = np.linspace(0, 0.02, 64)
    np.testing.assert_allclose(gain_series(e2, xs), gain_series(e1, xs), rtol=1e-12)
    assert curvature_bound(e2) == pytest.approx(curvature_bound(e1), rel=1e-12)
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


@pytest.mark.parametrize("form, points, num_paths", [
    (gain_eval, 8001, 60), (gain_eval, 40001, 60), (gain_eval, 8001, 2000),
    (gain_series, 8001, 60), (gain_series, 40001, 60), (gain_series, 1001, 2000)],
    ids=["8001", "40001", "8001-L2000", "series-8001", "series-40001", "series-1001-L2000"])
def test_gain_eval_memory_bounded(form, points, num_paths):
    # numpy reports its buffers to tracemalloc; the point read of each position
    # and the series' blocks keep the peak independent of the grid length and
    # the path count.
    params = SystemParams(num_paths=num_paths)
    expansion = build_expansion(make_instance(0, params), params.wavelength)
    xs = np.linspace(0.0, 16 * params.wavelength, points)
    tracemalloc.start()
    try:
        gains = form(expansion, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.shape == (points,)
    assert peak <= 16 * 2**20


def test_gain_blocks_bounded_in_antennas_as_well_as_paths(monkeypatch):
    """A block of positions of the series holds at most _BLOCK_ENTRIES channel
    entries (rows x N) as well as steering entries (rows x L): at N = 4096 a
    block takes 16 rows, not 2048; gain_eval reads one row at a time. Default
    shapes keep 2048-row blocks."""
    params = SystemParams(num_bs_antennas=4096, num_paths=2)
    instance = make_instance(0, params)
    expansion = build_expansion(instance, params.wavelength)
    rows, original = [], channel._steering

    def recorded(wavenumbers, x):
        rows.append(len(x) if np.ndim(x) else 1)
        return original(wavenumbers, x)

    monkeypatch.setattr(channel, "_steering", recorded)
    xs = np.linspace(0.0, params.region_length, 101)
    for form, most in ((gain_eval, 1), (gain_series, 16)):
        rows.clear()
        gains = form(expansion, xs)
        assert max(rows) == most and most * params.num_bs_antennas <= channel._BLOCK_ENTRIES
        assert np.allclose(gains, direct_gain(instance, params.wavelength, xs), rtol=1e-9)
    for num_paths in (10, 30):
        default = SystemParams(num_paths=num_paths)
        assert channel._block_rows(
            build_expansion(make_instance(0, default), default.wavelength)) == 2048


@pytest.mark.parametrize("num_paths, num_antennas, track_wavelengths", [
    (1, 16, 2.0), (2, 4, 1e3), (10, 16, 1e4), (30, 16, 16.0), (200, 64, 100.0)])
def test_gain_lattice_matches_gain_eval(num_paths, num_antennas, track_wavelengths):
    """The lattice built from two steering tables is the gain at its points,
    to the phase rounding both forms carry, out to 1e4 wavelengths."""
    params = SystemParams(num_paths=num_paths, num_bs_antennas=num_antennas,
                          region_length=track_wavelengths * SystemParams().wavelength)
    expansion = build_expansion(make_instance(0, params), params.wavelength)
    spacing = params.wavelength / 500
    count = int(track_wavelengths * 500) + 2
    assert gain_lattice(expansion, spacing, count).shape == (count,)
    points = np.unique(np.r_[np.linspace(0, count - 1, 2001).astype(int), np.arange(70)])
    assert gain_forms(expansion, params, points * spacing) <= 1.0


@pytest.mark.parametrize("count", [0, 1, 2, 3, 33, 2049, 4097])
def test_gain_lattice_points_do_not_depend_on_its_length(count):
    params = SystemParams(num_paths=30)
    expansion = build_expansion(make_instance(2, params), params.wavelength)
    longest = gain_lattice(expansion, params.wavelength / 500, 4100)
    assert np.array_equal(gain_lattice(expansion, params.wavelength / 500, count),
                          longest[:count])


@pytest.mark.parametrize("num_paths, num_antennas, count", [
    (MAX_PATHS, MAX_RESPONSE_ENTRIES // MAX_PATHS, 20_000),
    (MAX_RESPONSE_ENTRIES // MAX_BS_ANTENNAS, MAX_BS_ANTENNAS, 20_000),
    (10, MAX_BS_ANTENNAS, 300_000)])
def test_gain_lattice_arrays_bounded_by_a_block(num_paths, num_antennas, count, monkeypatch):
    """No steering table, steering block or channel block of the lattice holds
    more than rows x max(L, N) entries, whatever its length: counted on each
    array the kernel builds, with the channel products skipped so the test
    stays small, then by tracemalloc's peak on a short lattice with them. The
    shapes are the caps of SystemParams, so raising a cap past what the
    lattice's table of _LATTICE_INNER rows allows fails here."""
    params = SystemParams(num_paths=num_paths, num_bs_antennas=num_antennas)
    expansion = build_expansion(make_instance(0, params), params.wavelength)
    bound = channel._block_rows(expansion) * max(num_paths, num_antennas)
    sizes, steering, blocks = [], channel._steering, channel._reduce_blocks

    def recorded_steering(wavenumbers, x):
        sizes.append(np.size(x) * wavenumbers.size)
        return steering(wavenumbers, x)

    def recorded_blocks(count, block, rows, reduce):
        def recorded_rows(start, stop):
            f = rows(start, stop)
            sizes.append(f.base.size if f.base is not None else f.size)
            return f
        return blocks(count, block, recorded_rows, lambda f: np.zeros(len(f)))

    monkeypatch.setattr(channel, "_steering", recorded_steering)
    monkeypatch.setattr(channel, "_reduce_blocks", recorded_blocks)
    gain_lattice(expansion, params.wavelength / 500, count)
    assert len(sizes) > count // channel._block_rows(expansion)
    assert max(sizes) <= bound
    monkeypatch.undo()
    tracemalloc.start()
    try:
        gain_lattice(expansion, params.wavelength / 500, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * bound


def test_gain_series_builds_each_steering_block_once(monkeypatch):
    """gain_series reads every Gram row block against a block of steering
    rows built once: one _steering call per block of positions, not one per
    block of positions and Gram row block."""
    scenario = SystemParams(num_paths=600)
    expansion = build_expansion(make_instance(0, scenario), scenario.wavelength)
    rows = channel._block_rows(expansion)
    assert rows == 109  # six Gram row blocks of 600 paths
    calls, original = [], channel._steering

    def counted(wavenumbers, x):
        calls.append(np.size(x))
        return original(wavenumbers, x)

    monkeypatch.setattr(channel, "_steering", counted)
    xs = np.linspace(0.0, scenario.region_length, 500)
    gain_series(expansion, xs)
    assert calls == [109] * 4 + [64]  # five blocks of positions
    assert gain_series(expansion, 0.0123) == pytest.approx(gain_eval(expansion, 0.0123),
                                                           rel=1e-12)
    assert gain_forms(expansion, scenario, xs) <= 1.0


def test_kept_point_read_once_per_instance(params, monkeypatch):
    """kept_gain_and_slope reads a position once per instance, off one
    steering row, and gives gain_and_slope's pair bit for bit and the second
    derivative of the Gram series sum_ab Re(G_ba exp(j x (k_a - k_b))),
    G = E E^H, within 1e-12 of the curvature bound; a copy made by
    dataclasses.replace starts without the kept reads."""
    expansion = build_expansion(make_instance(2), params.wavelength)
    rows, original = [], channel._steering

    def recorded(wavenumbers, x):
        rows.append(x)
        return original(wavenumbers, x)

    monkeypatch.setattr(channel, "_steering", recorded)
    first = kept_gain_and_slope(expansion, 0.0123)
    assert kept_gain_and_slope(expansion, 0.0123) is first
    assert rows == [0.0123] and expansion.points == {0.0123: first}
    assert first[:2] == gain_and_slope(expansion, 0.0123)
    entries, k = make_instance(2).entries, expansion.wavenumbers
    spread = np.subtract.outer(k, k)  # k_a - k_b
    series = -np.sum(((entries @ entries.conj().T).T * spread**2
                      * np.exp(1j * 0.0123 * spread)).real)
    assert abs(first[2] - series) <= 1e-12 * expansion.curvature
    copy = replace(expansion, constant=expansion.constant)
    assert copy.points == {} and copy == expansion


def test_gain_and_slope_gain_equals_gain_eval_bit_for_bit(params):
    """gain_eval gives gain_and_slope's gain, bit for bit, at every entry of a
    float, a 0-d array, 1-D and 2-D arrays and an empty array, in x's shape."""
    xs = np.linspace(0.0, params.region_length, 1001)
    for seed, num_paths in ((0, 10), (1, 1), (2, 30), (3, 200)):
        scenario = SystemParams(num_paths=num_paths)
        expansion = build_expansion(make_instance(seed, scenario), params.wavelength)
        for x in (0.0, 0.0031, np.float64(0.0123), params.region_length):
            assert gain_and_slope(expansion, x)[0] == gain_eval(expansion, x)
        for x in (np.array(0.0123), xs, xs[:1000].reshape(40, 25), np.zeros((0, 3))):
            gains = gain_eval(expansion, x)
            assert np.shape(gains) == np.shape(x)
            assert np.ravel(gains).tolist() == [gain_and_slope(expansion, t)[0]
                                                for t in np.ravel(x).tolist()]
        assert type(gain_eval(expansion, np.array(0.0123))) is float


@pytest.mark.parametrize("num_paths", [1, 10, 30])
def test_slope_table_matches_scaling_the_steering_row(num_paths):
    """h' = f (jk conj(E)), read off the kept table, equals the steering row
    scaled by jk before the product, (f jk) conj(E), up to rounding: the two
    slopes 2 Re(h^H h') differ by at most 1e-15 of their Cauchy-Schwarz bound
    2 |h| |h'| (measured: 1.7e-16 at L = 1, 10 and 30). At one path the slope
    is rounding alone, so no bound relative to the slope itself holds."""
    params = SystemParams(num_paths=num_paths)
    rng = np.random.default_rng(num_paths)
    for seed in range(10):
        expansion = build_expansion(make_instance(seed, params), params.wavelength)
        jk = 1j * expansion.wavenumbers
        for x in rng.uniform(0.0, params.region_length, 50).tolist():
            f = np.exp(1j * x * expansion.wavenumbers)
            h, scaled = f @ expansion.response_conj, (f * jk) @ expansion.response_conj
            reference = 2.0 * np.sum(h.conj() * scaled).real
            bound = 2.0 * np.linalg.norm(h) * np.linalg.norm(scaled)
            assert abs(gain_and_slope(expansion, x)[1] - reference) <= 1e-15 * bound


def test_gain_nonnegative(params):
    for seed in range(5):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        xs = np.linspace(0.0, params.region_length, 2000)
        assert np.min(gain_eval(expansion, xs)) >= -1e-9


def test_gain_derivative_single_path_zero():
    expansion = build_expansion(single_path_instance(), 0.01)
    assert gain_and_slope(expansion, 0.004)[1] == 0.0
    assert kept_gain_and_slope(expansion, 0.004)[2] == 0.0


def test_gain_derivative_small_at_grid_peak(params):
    expansion = build_expansion(make_instance(9), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 10_000)
    gains = gain_eval(expansion, xs)
    idx = int(np.argmax(gains[1:-1])) + 1  # interior stationary point
    derivs = np.array([gain_and_slope(expansion, x)[1] for x in xs])
    assert abs(derivs[idx]) <= 1e-3 * float(np.max(np.abs(derivs)))


def test_curvature_bound_single_path_floor():
    # A flat gain has zero curvature; no absolute floor stands in for it.
    expansion = build_expansion(single_path_instance(), 0.01)
    assert curvature_bound(expansion) == 0.0


def test_curvature_bound_hand_value():
    expansion = build_expansion(hand_instance(), 0.01)
    expected = 8.0 * math.pi**2 * 1.0 * 1.0 * 0.5**2 / 0.01**2
    assert curvature_bound(expansion) == pytest.approx(expected, rel=1e-15)


def test_sample_instance_mean_power(params):
    rng = np.random.default_rng(42)
    total, count = 0.0, 0
    while count < 100_000:
        instance = sample_instance(params, rng)
        total += float(np.sum(np.abs(instance.entries) ** 2))
        count += instance.entries.size
    assert total / count == pytest.approx(params.path_gain_variance, rel=0.02)


def _redraw(seed, params):
    """The draws sample_instance makes, in its order: elevations, azimuths, real, imag."""
    rng = np.random.default_rng(seed)
    elevation = rng.uniform(0, np.pi, params.num_paths)
    azimuth = rng.uniform(0, np.pi, params.num_paths)
    shape = (params.num_paths, params.num_bs_antennas)
    return elevation, azimuth, rng.standard_normal(shape), rng.standard_normal(shape)


def test_sample_instance_virtual_angle_range(params):
    rng = np.random.default_rng(1)
    for _ in range(100):
        instance = sample_instance(params, rng)
        assert np.all(np.abs(instance.virtual_aoa) <= 1.0)
    # The golden CSVs depend on the draw order: elevations, then azimuths.
    elevation, azimuth, _, _ = _redraw(1, params)
    instance = sample_instance(params, np.random.default_rng(1))
    np.testing.assert_array_equal(instance.virtual_aoa, np.sin(elevation) * np.cos(azimuth))


def test_sample_instance_deterministic(params):
    a = sample_instance(params, np.random.default_rng(123))
    b = sample_instance(params, np.random.default_rng(123))
    np.testing.assert_array_equal(a.entries, b.entries)
    np.testing.assert_array_equal(a.virtual_aoa, b.virtual_aoa)
    elevation, azimuth, real, imag = _redraw(123, params)
    np.testing.assert_array_equal(a.virtual_aoa, np.sin(elevation) * np.cos(azimuth))
    scale = np.sqrt(params.path_gain_variance / 2.0)
    np.testing.assert_array_equal(a.entries, (real + 1j * imag) * scale)


def test_path_response_matrix_rejects_bad_input():
    for entries, virtual_aoa in (
        (np.ones((2, 1)), np.zeros(3)),             # one angle per row
        (np.ones((1, 1)), np.array([1.5])),         # |virtual angle| <= 1
        (np.ones((1, 1)), np.array([np.nan])),
        (np.ones((0, 1)), np.zeros(0)),             # at least one path
        (np.array([[1.0, np.inf]]), np.zeros(1)),   # finite entries
    ):
        with pytest.raises(ValueError):
            PathResponseMatrix(entries, virtual_aoa)
