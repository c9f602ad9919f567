import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from maee.channel import build_expansion, gain_eval, kept_gain_and_slope
from maee.ee import (
    GAIN,
    Objective,
    ee_upper_bound,
    efficiency_curve,
    efficiency_of_gains,
    efficiency_derivatives,
    energy_efficiency,
    gain_grid,
    grid_max,
    grid_scan,
    reach_interval,
)
from maee.params import MAX_REGION_WAVELENGTHS, SystemParams

from conftest import make_instance, single_path_instance


def rest_snr(gain, params):
    """Received SNR read back from the throughput T log2(1 + SNR) of a block at rest."""
    breakdown = energy_efficiency(params.initial_position, gain, params)
    return 2.0 ** (breakdown.throughput / params.block_duration) - 1.0


def test_snr_zero_gain(params):
    assert rest_snr(0.0, params) == 0.0


def test_snr_reference_parameters(params):
    # SNR 0.01 W * 1e-6 / 1e-10 W = 100
    breakdown = energy_efficiency(params.initial_position, 1e-6, params)
    assert breakdown.throughput == pytest.approx(params.block_duration * math.log2(101.0),
                                                 rel=1e-12)


def test_snr_linear_in_power(params):
    doubled = replace(params, max_tx_power=2 * params.max_tx_power)
    assert rest_snr(3e-7, doubled) == pytest.approx(2 * rest_snr(3e-7, params), rel=1e-12)


def test_snr_rejects_negative_gain(params):
    with pytest.raises(ValueError, match="gain"):
        energy_efficiency(params.initial_position, -1e-3, params)
    # the direct gain is a sum of squares, so no negative gain is float noise
    with pytest.raises(ValueError, match="gain"):
        energy_efficiency(params.initial_position, -1e-12, params)


def movement_part(breakdown, params):
    """Movement share of a breakdown's energy: total minus transmit energy."""
    move_time = abs(breakdown.x - params.initial_position) / params.speed
    return breakdown.energy - params.max_tx_power * (params.block_duration - move_time)


def test_movement_energy_rate(params):
    assert params.move_energy_rate == pytest.approx(2.5)


def test_movement_energy_zero_at_rest(params):
    assert movement_part(energy_efficiency(params.initial_position, 1e-8, params), params) == 0.0


def test_movement_energy_reference(params):
    b = energy_efficiency(params.initial_position + 0.01, 1e-8, params)
    assert movement_part(b, params) == pytest.approx(0.025)


def test_movement_energy_symmetric(params):
    delta = 0.004
    right = energy_efficiency(params.initial_position + delta, 1e-8, params)
    left = energy_efficiency(params.initial_position - delta, 1e-8, params)
    assert movement_part(right, params) == pytest.approx(movement_part(left, params))


def test_movement_energy_outside_region_raises(params):
    with pytest.raises(ValueError):
        energy_efficiency(params.region_length + 1e-6, 1e-8, params)
    with pytest.raises(ValueError):
        energy_efficiency(-1e-6, 1e-8, params)


def test_total_energy_at_rest(params):
    assert energy_efficiency(params.initial_position, 1e-8, params).energy == pytest.approx(0.05)


def test_total_energy_reference(params):
    # 2.5 J/m * 0.01 m + 0.01 W * (5 - 0.05) s
    b = energy_efficiency(params.initial_position + 0.01, 1e-8, params)
    assert b.energy == pytest.approx(0.0745)


def test_total_energy_boundary_move():
    p = SystemParams(block_duration=0.05)
    # moving the full 0.01 m takes exactly the block; only movement energy remains
    assert energy_efficiency(0.0, 1e-8, p).energy == pytest.approx(p.move_energy_rate * 0.01)


def test_total_energy_move_exceeding_block_raises():
    p = SystemParams(block_duration=0.01)
    with pytest.raises(ValueError):
        energy_efficiency(0.0, 1e-8, p)


def test_throughput_at_rest_snr3(params):
    gain = 3.0 * params.noise_power / params.max_tx_power
    assert energy_efficiency(params.initial_position, gain, params).throughput == pytest.approx(
        10.0)


def test_throughput_zero_gain(params):
    assert energy_efficiency(params.initial_position + 0.003, 0.0, params).throughput == 0.0


def test_throughput_zero_time_regardless_of_gain():
    p = SystemParams(block_duration=0.05)
    b = energy_efficiency(0.0, 1.0, p)
    assert b.throughput == pytest.approx(0.0, abs=1e-12)


def test_energy_efficiency_at_rest_identity(params):
    gain = 2.3e-8
    breakdown = energy_efficiency(params.initial_position, gain, params)
    snr = params.max_tx_power * gain / params.noise_power
    expected = math.log2(1.0 + snr) / params.max_tx_power
    assert breakdown.ee == pytest.approx(expected, rel=1e-12)
    assert breakdown.energy == params.max_tx_power * params.block_duration


def test_energy_efficiency_zero_gain_infeasible(params):
    breakdown = energy_efficiency(params.initial_position, 0.0, params)
    assert breakdown.ee == 0.0
    assert not breakdown.feasible


def test_energy_efficiency_reference_chain(params):
    gain = 1e-3  # SNR 1e5 at the default powers
    x = params.initial_position + 0.01
    breakdown = energy_efficiency(x, gain, params)
    assert breakdown.throughput == pytest.approx(4.95 * math.log2(1 + 1e5), rel=1e-12)
    assert breakdown.energy == pytest.approx(0.0745, rel=1e-12)
    assert breakdown.ee == pytest.approx(breakdown.throughput / 0.0745, rel=1e-12)
    assert breakdown.feasible


@pytest.mark.parametrize("seed", range(3))
def test_ee_times_energy_equals_throughput(seed, params):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = rng.uniform(0, params.region_length)
        gain = rng.uniform(0, 1e-7)
        b = energy_efficiency(x, gain, params)
        assert b.ee * b.energy == pytest.approx(b.throughput, rel=1e-9)


def test_ee_monotone_in_gain(params):
    x = params.initial_position + 0.004
    values = [energy_efficiency(x, g, params).ee for g in (0.0, 1e-9, 1e-8, 1e-7, 1e-6)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_zero_move_independent_of_movement_params(params):
    gain = 3e-8
    base = energy_efficiency(params.initial_position, gain, params).ee
    for power, speed in ((0.1, 0.05), (5.0, 1.0), (0.5, 0.01)):
        other = replace(params, movement_power=power, speed=speed)
        assert energy_efficiency(other.initial_position, gain, other).ee == pytest.approx(
            base, rel=1e-12)


def test_efficiency_curve_matches_scalar(params):
    """energy_efficiency runs efficiency_of_gains' formula on Python floats
    with numpy's log2, so its record holds the bits of the array entries, on
    random params, positions (the reach ends and the rest position among
    them) and gains from 0 to SNRs of ~1e6."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        region = float(rng.uniform(0.005, 0.05))
        scenario = replace(
            params, region_length=region, initial_position=float(rng.uniform(0.0, region)),
            movement_power=float(rng.choice([0.0, rng.uniform(0.001, 5.0)])),
            speed=float(10.0 ** rng.uniform(-3.5, 0.0)), block_duration=float(rng.uniform(0.5, 10.0)),
            max_tx_power=float(10.0 ** rng.uniform(-3.0, 0.0)),
            min_throughput=float(rng.uniform(0.0, 20.0)))
        lo, hi = reach_interval(scenario)
        xs = np.array([lo, hi, scenario.initial_position, *rng.uniform(lo, hi, 40)])
        gains = np.array([0.0, *(10.0 ** rng.uniform(-14.0, -4.0, len(xs) - 1))])
        ee_vals, rates, energies, feasible = efficiency_of_gains(xs, gains, scenario)
        for i, (x, gain) in enumerate(zip(xs.tolist(), gains.tolist())):
            b = energy_efficiency(x, gain, scenario)
            assert (b.ee, b.throughput, b.energy, b.feasible) == (
                ee_vals[i], rates[i], energies[i], feasible[i])
    expansion = build_expansion(make_instance(4), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 64)
    curve = zip(*efficiency_curve(expansion, params, xs))
    for x, gain, entries in zip(xs.tolist(), gain_eval(expansion, xs).tolist(), curve):
        b = energy_efficiency(x, gain, params)
        assert (b.ee, b.throughput, b.energy, b.feasible) == entries


def test_ee_upper_bound_constant_gain(params):
    instance = single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas)
    expansion = build_expansion(instance, params.wavelength)
    ceiling = ee_upper_bound(expansion, params)
    bound, x_bar = ceiling.ee, ceiling.x
    assert x_bar == params.initial_position  # every position ties; stay at rest
    snr = params.max_tx_power * expansion.constant / params.noise_power
    expected = math.log2(1.0 + snr) / params.max_tx_power
    assert bound == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("movement_power", [0.5, 0.001])
@pytest.mark.parametrize("seed", range(3))
def test_efficiency_slopes_match_differences(seed, movement_power, params):
    """The closed-form slopes and second derivatives of the rate and the
    efficiency match central differences of efficiency_of_gains on either
    side of x0, and one-sided differences at x0 (the second derivative by
    the four-point stencil, exact to second order), with the movement power
    above and below P_t. The gain's derivatives are kept_gain_and_slope's."""
    params = replace(params, movement_power=movement_power)
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x0, step, wide = params.initial_position, 1e-7 * params.wavelength, 1e-4 * params.wavelength

    def rate_and_ee(x):
        ratio, rate, _, _ = efficiency_of_gains(x, gain_eval(expansion, x), params)
        return np.array([rate, ratio])

    for x, side in ((x0 - 0.3 * params.wavelength, -1.0), (x0 + 0.2 * params.wavelength, 1.0),
                    (x0, 1.0), (x0, -1.0)):
        rate, ratio = efficiency_derivatives(x, side, *kept_gain_and_slope(expansion, x), params)
        slopes, seconds = np.array([rate[0], ratio[0]]), np.array([rate[1], ratio[1]])
        if x == x0:
            expected = (rate_and_ee(x0 + side * step) - rate_and_ee(x0)) / (side * step)
            curvature = (2.0 * rate_and_ee(x0) - 5.0 * rate_and_ee(x0 + side * wide)
                         + 4.0 * rate_and_ee(x0 + 2.0 * side * wide)
                         - rate_and_ee(x0 + 3.0 * side * wide)) / wide**2
        else:
            expected = (rate_and_ee(x + step) - rate_and_ee(x - step)) / (2 * step)
            curvature = (rate_and_ee(x + wide) - 2.0 * rate_and_ee(x)
                         + rate_and_ee(x - wide)) / wide**2
        scale = rate_and_ee(x) / params.wavelength
        assert np.all(np.abs(slopes - expected) <= 1e-5 * scale), (x, side)
        assert np.all(np.abs(seconds - curvature) <= 1e-4 * scale / params.wavelength), (x, side)


@pytest.mark.parametrize("fields, ends", [
    # the free-movement sweep point whose polish read the reach end 5 mm
    ({"speed": 0.001}, (0.005,)),
    # both ends of that sweep point: 0.015 - 0.01 rounds below v T, leaving
    # 8.9e-16 s, rounding the block cannot use
    ({"speed": 0.001}, (0.005, 0.015)),
    # exact binary fractions: both ends lie exactly v T from x0
    ({"speed": 2.0**-10, "block_duration": 4.0, "initial_position": 2.0**-7},
     (2.0**-8, 3 * 2.0**-8)),
], ids=["sweep", "sweep-both-ends", "both-ends"])
def test_zero_energy_reach_end_has_zero_efficiency(fields, ends, params):
    """With free movement (P = 0) and no time left at the reach end, up to
    T * 1e-12 of move-time rounding, the block's energy is 0: the efficiency
    there is 0, and so are its derivatives."""
    params = replace(params, movement_power=0.0, min_throughput=0.0, **fields)
    expansion = build_expansion(make_instance(0), params.wavelength)
    assert [x for x in reach_interval(params) if x in ends] == list(ends)
    for x in ends:
        ratio, rate, energy, _ = efficiency_of_gains(x, kept_gain_and_slope(expansion, x)[0],
                                                     params)
        assert (ratio, rate, energy) == (0.0, 0.0, 0.0)
        for side in (-1.0, 1.0):
            rate_derivatives, ee_derivatives = efficiency_derivatives(
                x, side, *kept_gain_and_slope(expansion, x), params)
            assert ee_derivatives == (0.0, 0.0)
            assert all(math.isfinite(d) for d in rate_derivatives)


@pytest.mark.parametrize("interval", ["reach", "region"])
def test_grid_max_ties_stay_at_rest(interval, params):
    """A constant objective, or one that beats the rest position by rounding
    only, keeps the rest position; a real gain elsewhere moves."""
    params = replace(params, speed=0.001)  # reach 5 mm around the 10 mm rest position
    lo, hi = reach_interval(params) if interval == "reach" else (0.0, params.region_length)
    expansion = build_expansion(make_instance(0), params.wavelength)
    x0 = params.initial_position

    scale = 10 / params.wavelength

    def bump(size):
        return Objective(f"bump {size}", (),
                         lambda xs, gains, params: 1.0 + size * np.exp(-(scale * (xs - lo)) ** 2),
                         lambda x, side, gain, slope, second, params: (
                             -2.0 * size * scale * scale * (x - lo) * bell(x),
                             -2.0 * size * scale * scale * (1.0 - 2.0 * (scale * (x - lo)) ** 2)
                             * bell(x)))

    def bell(x):
        return math.exp(-(scale * (x - lo)) ** 2)

    flat = Objective("flat", (), lambda xs, gains, params: 0.0 * gains + 1.0,
                     lambda x, side, gain, slope, second, params: (0.0, 0.0))
    assert grid_max(expansion, params, lo, hi, flat) == (x0, 1.0)
    assert grid_max(expansion, params, lo, hi, bump(1e-13)) == (x0, 1.0)
    x, value = grid_max(expansion, params, lo, hi, bump(1e-9))
    assert x == lo and value == 1.0 + 1e-9


def test_ee_upper_bound_equality_when_recentered(params):
    expansion = build_expansion(make_instance(8), params.wavelength)
    ceiling = ee_upper_bound(expansion, params)
    bound, x_bar = ceiling.ee, ceiling.x
    recentered = replace(params, initial_position=x_bar)
    gain = max(gain_eval(expansion, x_bar), 0.0)
    assert energy_efficiency(x_bar, gain, recentered).ee == pytest.approx(bound, rel=1e-9)


def reachable_grid(params):
    """Positions of the reachable slice of the gain lattice."""
    expansion = build_expansion(make_instance(0), params.wavelength)
    return grid_scan(expansion, params, *reach_interval(params), GAIN)[0]


def test_reachable_grid_spans_reach(params):
    full = reachable_grid(params)
    assert full[0] == 0.0 and full[-1] == params.region_length
    assert np.max(np.diff(full)) <= params.wavelength / 500 * (1 + 1e-9)
    slow = replace(params, speed=0.001)  # reach 5 mm around the 10 mm rest position
    part = reachable_grid(slow)
    assert part[0] == pytest.approx(0.005) and part[-1] == pytest.approx(0.015)


def test_reachable_grid_contains_rest_position(params):
    # reach 1 um: a grid of 2e-5 m steps would span [x0 - 1e-6, x0 + 1e-6] only
    tiny = replace(params, speed=1e-4, block_duration=0.01)
    xs = reachable_grid(tiny)
    assert len(xs) == 3 and xs[1] == tiny.initial_position
    off_grid = replace(params, initial_position=0.0123456)
    xs = reachable_grid(off_grid)
    assert off_grid.initial_position in xs
    assert np.all(np.diff(xs) > 0)
    assert len(xs) == len(reachable_grid(params)) + 1


def test_grid_scan_reads_lattice_points_whatever_the_grid_length(params):
    """Point m is m * wavelength/500 on any grid, with the same gain, so a
    slice of a longer grid equals the grid built for the slice alone. Each
    grid is built on a fresh expansion, which keeps no lattice yet."""
    for num_paths, num_antennas in ((10, 16), (30, 16), (1, 16), (3, 4)):
        scenario = replace(params, num_paths=num_paths, num_bs_antennas=num_antennas)
        instance = make_instance(1, scenario)

        def fresh():
            return build_expansion(instance, params.wavelength)

        expansion = fresh()
        longest = gain_grid(expansion, params.wavelength, 16.5 * params.wavelength)
        # 2048 and 2049 points end on a full block and on a one-row tail
        for steps in (0.0, 0.5, 1000.0, 2045.5, 2046.5, 2047.5, 3500.0, 8000.0):
            length = steps * params.wavelength / 500
            grid = gain_grid(fresh(), params.wavelength, length)
            count = len(grid.gains)
            assert grid.spacing == longest.spacing == params.wavelength / 500
            assert count >= 2 and (count - 1) * grid.spacing >= length
            assert count < len(longest.gains)
            assert np.array_equal(grid.gains, longest.gains[:count])
        region = replace(scenario, region_length=0.07, initial_position=0.0300001)
        alone = grid_scan(fresh(), region, 0.001, 0.05, GAIN)
        within = grid_scan(expansion, region, 0.001, 0.05, GAIN)
        assert expansion.gain_grids[params.wavelength / 500] is longest
        for got, want in zip(within, alone):
            assert np.array_equal(got, want)


def test_grid_scan_matches_searchsorted_on_the_lattice_positions(params):
    """grid_scan finds its index range by arithmetic. It must pick the
    lattice points that np.searchsorted picks on the positions m * spacing,
    which a stored array used to hold, with their lattice gains: at lattice
    points, one ulp either side of them and in between, on a short track and
    on the 1e4-wavelength cap. The rest position is added only inside [lo, hi].
    An added point's gain is its kept point read, and GAIN's values are the gains."""
    rng = np.random.default_rng(5)
    for region in (params.region_length, MAX_REGION_WAVELENGTHS * params.wavelength):
        scenario = replace(params, region_length=region)
        expansion = build_expansion(make_instance(0, scenario), scenario.wavelength)
        grid = gain_grid(expansion, scenario.wavelength, region)
        positions = np.arange(len(grid.gains)) * grid.spacing
        picks = positions[rng.integers(0, len(positions) - 1, 30)].tolist()
        starts = [0.0, *picks, *rng.uniform(0.0, region, 30).tolist()]
        for lo in [math.nextafter(x, d) for x in starts for d in (-1.0, 2.0 * region)] + starts:
            for width in (0.0, 0.5, 1.0, 3.0):
                lo = min(max(lo, 0.0), region)
                hi = min(lo + width * grid.spacing, region)
                first = np.searchsorted(positions, lo)
                last = np.searchsorted(positions, hi, side="right")
                want = dict(zip(positions[first:last].tolist(), grid.gains[first:last].tolist()))
                x0 = scenario.initial_position
                ends = {lo, hi, x0} if lo <= x0 <= hi else {lo, hi}
                missing = sorted(ends - want.keys())
                want.update((x, kept_gain_and_slope(expansion, x)[0]) for x in missing)
                xs, gains, i = grid_scan(expansion, scenario, lo, hi, GAIN)
                assert xs.tolist() == sorted(want)
                assert gains.tolist() == [want[x] for x in sorted(want)]
                assert i == int(np.argmax(gains))


def test_gain_grid_holds_one_float_array(params):
    """A lattice over the 1e4-wavelength cap (5,000,002 points) keeps its
    gains and nothing the size of its positions (numpy reports its buffers to
    tracemalloc)."""
    region = MAX_REGION_WAVELENGTHS * params.wavelength
    expansion = build_expansion(single_path_instance(), params.wavelength)
    tracemalloc.start()
    try:
        grid = gain_grid(expansion, params.wavelength, region)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid.gains) == 5_000_002
    assert 8 * len(grid.gains) <= held <= 8 * len(grid.gains) + 2**16


def test_grid_max_reads_the_rest_value_off_gain_and_slope(params):
    """The stay-at-rest tie reads the rest value with kept_gain_and_slope, as
    the polish reads a position, not off the lattice: 1,000 wavelengths out,
    at lattice point 499,000, the two gains differ in their phase rounding.
    The kept gain is gain_and_slope's and gain_eval's bit for bit."""
    far = replace(params, region_length=10.0, initial_position=9.98)
    x0 = far.initial_position
    expansion = build_expansion(make_instance(0, far), far.wavelength)
    x, value = grid_max(expansion, far, 9.9, 10.0, Objective(
        "gain at rest", (), lambda xs, gains, params: np.where(xs == x0, gains, 0.0),
        lambda x, side, gain, slope, second, params: (0.0, 0.0)))
    lattice = gain_grid(expansion, far.wavelength, 10.0)
    rest = 499_000
    assert rest * lattice.spacing == x0
    assert x == x0 and value == gain_eval(expansion, x0) != lattice.gains[rest]


def test_gain_grid_kept_on_its_expansion(params, gain_reads):
    """A lattice is built once per spacing and kept on the expansion: a
    shorter request reads it, a longer one builds it again, and another
    spacing or a copy made by dataclasses.replace builds its own. No build
    evaluates the gain point by point."""
    expansion = build_expansion(make_instance(0), params.wavelength)
    sizes = gain_reads.lattices
    region, wavelength = params.region_length, params.wavelength

    def points(length, wavelength=wavelength):
        return int(length / (wavelength / 500)) + 2

    first = gain_grid(expansion, wavelength, region)
    count = len(first.gains)
    assert sizes == [points(region)] and count == points(region)
    assert gain_grid(expansion, wavelength, 0.5 * region) is first
    assert gain_grid(expansion, wavelength, (count - 2) * first.spacing) is first
    longer = gain_grid(expansion, wavelength, 2 * region)
    assert sizes == [points(region), points(2 * region)]
    assert np.array_equal(longer.gains[:count], first.gains)
    assert gain_grid(expansion, wavelength, region) is longer
    other = gain_grid(expansion, 2 * wavelength, region)
    assert sizes[2:] == [points(region, 2 * wavelength)]
    assert gain_grid(expansion, wavelength, region) is longer
    assert gain_grid(expansion, 2 * wavelength, region) is other
    copy = replace(expansion, constant=expansion.constant)
    assert copy.gain_grids == {} and copy == expansion
    gain_grid(copy, wavelength, region)
    assert sizes[3:] == [points(region)]
    assert gain_reads.evals == []


def test_zero_energy_position_has_zero_efficiency(params):
    # free movement and a reach shorter than the track: the reach edge has
    # neither time nor energy left (dyadic values keep the edge exact)
    free = replace(params, movement_power=0.0, region_length=2.0**-5,
                   initial_position=2.0**-6, speed=2.0**-10, block_duration=8.0)
    edge = free.initial_position + free.speed * free.block_duration
    breakdown = energy_efficiency(edge, 1e-8, free)
    assert breakdown.energy == 0.0 and breakdown.throughput == 0.0
    assert breakdown.ee == 0.0
    expansion = build_expansion(make_instance(3), params.wavelength)
    ee_vals, rates, energies, _ = efficiency_curve(expansion, free,
                                                   [free.initial_position, edge])
    assert energies[1] == 0.0 and rates[1] == 0.0
    assert ee_vals[0] > 0.0 and ee_vals[1] == 0.0


def test_params_bound_the_region_in_wavelengths():
    # position grids are sized in wavelengths, so the region bounds every grid
    limit = MAX_REGION_WAVELENGTHS * SystemParams().wavelength
    assert SystemParams(region_length=limit, initial_position=0.0).region_length == limit
    for wavelength in (1e-6, 1e-200, 1e-308, 5e-324):
        with pytest.raises(ValueError, match="wavelengths"):
            SystemParams(wavelength=wavelength)


@pytest.mark.parametrize("name, bad", [
    *((name, 0.0) for name in ("wavelength", "region_length", "max_tx_power", "speed",
                               "block_duration", "noise_power", "distance")),
    *((name, -1.0) for name in ("movement_power", "pathloss_ref")),
])
def test_params_sign_checks_name_the_field(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be (positive|nonnegative), got"):
        SystemParams(**{name: bad})


@pytest.mark.parametrize("name, bad", [("num_paths", 2.5), ("num_paths", 10.0),
                                       ("num_bs_antennas", True), ("num_bs_antennas", "16")])
def test_params_count_fields_must_be_integers(name, bad):
    """A count that is a float, a bool or a string fails at construction with
    one ValueError naming the field, not later inside numpy."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        SystemParams(**{name: bad})


def test_params_count_fields_take_numpy_integers():
    params = SystemParams(num_paths=np.int64(3), num_bs_antennas=np.int32(4))
    assert make_instance(0, params).entries.shape == (3, 4)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(region_length=-1.0)
    with pytest.raises(ValueError):
        SystemParams(initial_position=0.021)
    with pytest.raises(ValueError):
        SystemParams(speed=0.0)
    with pytest.raises(ValueError):
        SystemParams(tolerance=1.5)
    with pytest.raises(ValueError):
        SystemParams(noise_power=0.0)
