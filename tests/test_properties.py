"""Property tests over the valid SystemParams ranges: the gain is finite and
nonnegative, every scheme and the grid oracle return finite efficiencies
that keep their order, and the searches ee.grid_max keeps on an instance,
the schemes' and the oracle's, are keyed on every field their ee.Objective
record reads."""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from maee.bench import SCHEME_ORDER, evaluate_schemes, grid_global_ee  # noqa: E402
from maee.channel import build_expansion, gain_eval, sample_instance  # noqa: E402
from maee.invariants import gain_forms, solver_bracketing  # noqa: E402
from maee.params import SystemParams  # noqa: E402

RTOL = 1e-9


@st.composite
def system_params(draw):
    wavelength = SystemParams().wavelength
    region = draw(st.floats(0.1, 4.0)) * wavelength
    return SystemParams(
        region_length=region,
        initial_position=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * region,
        num_paths=draw(st.integers(1, 10)),
        num_bs_antennas=draw(st.integers(1, 16)),
        movement_power=draw(st.floats(0.0, 5.0)),
        speed=10.0 ** draw(st.floats(-5.0, 1.0)),
        block_duration=draw(st.floats(0.01, 5.0)),
        min_throughput=draw(st.floats(-1.0, 50.0)),
        distance=10.0 ** draw(st.floats(0.0, 3.0)),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(params=system_params(), seed=st.integers(0, 2**32 - 1))
# Tiny reach with costly movement: the efficiency has a cusp at the rest position.
@example(params=SystemParams(speed=1e-4, block_duration=0.01, movement_power=5.0,
                             min_throughput=0.0), seed=0)
# Free movement: the reach edge has neither time nor energy left.
@example(params=SystemParams(movement_power=0.0, speed=1e-3, min_throughput=0.0), seed=3)
# Rest position ~1e4 reaches from a reach edge: x0 -/+ v T rounds past the reach.
@example(params=SystemParams(initial_position=0.007, speed=1e-5, block_duration=0.01,
                             min_throughput=0.0), seed=0)
@example(params=SystemParams(
    wavelength=0.5780370180655061, region_length=18.778702092243336,
    initial_position=18.778702092243336, num_paths=8, num_bs_antennas=5,
    max_tx_power=58.19605990120938, movement_power=0.04251158796674027,
    speed=4.0484609627373655e-05, block_duration=0.006889622418388565, min_throughput=-1.0,
    noise_power=2.2645930505431263e-13, pathloss_ref=7.658609128677377e-05,
    distance=49.144582163809986, tolerance=0.010952465948171149), seed=2458245685)
def test_schemes_finite_and_ordered(params, seed):
    expansion = build_expansion(sample_instance(params, np.random.default_rng(seed)),
                                params.wavelength)
    results = evaluate_schemes(expansion, params)
    oracle = grid_global_ee(expansion, params)
    everything = [*results.values(), oracle]

    assert all(math.isfinite(r.ee) for r in everything)
    ceiling = results["upper_bound"].ee
    assert all(r.ee <= ceiling * (1.0 + RTOL) for r in everything)
    fpa = results["fpa"]
    if fpa.feasible:
        assert oracle.ee >= fpa.ee * (1.0 - RTOL)
    # proposed between fpa and the oracle, and infeasible only when the oracle is
    assert solver_bracketing(expansion, params) <= 1.0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(movement_power=st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e),
       speed=st.floats(-10.0, 1.0).map(lambda e: 10.0 ** e),
       max_tx_power=st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 2**32 - 1))
# P/v overflows: the movement energy rate is inf, and inf * 0 is nan at rest.
@example(movement_power=1e308, speed=0.2, max_tx_power=0.01, seed=0)
@example(movement_power=1e300, speed=1e-10, max_tx_power=0.01, seed=0)
# P_t T and P_t/sigma2 overflow: every scheme read ee=nan, throughput=inf.
@example(movement_power=0.5, speed=0.2, max_tx_power=1e308, seed=0)
def test_valid_params_give_finite_records_at_extreme_powers(movement_power, speed,
                                                             max_tx_power, seed):
    """Params whose block energy or SNR would overflow are rejected; any
    params that construct give finite records for every scheme and the oracle."""
    try:
        params = SystemParams(movement_power=movement_power, speed=speed,
                              max_tx_power=max_tx_power)
    except ValueError as exc:
        assert "overflows" in str(exc)
        return
    expansion = build_expansion(sample_instance(params, np.random.default_rng(seed)),
                                params.wavelength)
    records = [*evaluate_schemes(expansion, params).values(), grid_global_ee(expansion, params)]
    assert all(math.isfinite(value) for r in records
               for value in (r.ee, r.throughput, r.energy))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pathloss_exponent=st.floats(-20.0, 5.0), distance_exponent=st.floats(0.0, 4.0),
       num_paths=st.integers(1, 300), num_bs_antennas=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_gain_finite_and_nonnegative_at_extreme_scales(pathloss_exponent, distance_exponent,
                                                        num_paths, num_bs_antennas, seed):
    params = SystemParams(pathloss_ref=10.0 ** pathloss_exponent,
                          distance=10.0 ** distance_exponent,
                          num_paths=num_paths, num_bs_antennas=num_bs_antennas)
    expansion = build_expansion(sample_instance(params, np.random.default_rng(seed)),
                                params.wavelength)
    xs = np.linspace(0.0, params.region_length, 401)
    gains = gain_eval(expansion, xs)
    assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)
    assert gain_eval(expansion, params.initial_position) >= 0.0
    # Same function as the series and the lattice, to float error relative to the gain's scale.
    assert gain_forms(expansion, params, xs) <= 1.0



def scenario_at(scale, value, num_paths, num_bs_antennas):
    """Default params but for rho_0 = value dB, or for a wavelength of 10^-value m
    with the track and rest position scaled with it: larger values overflow."""
    if scale == "rho_0":
        return SystemParams(pathloss_ref=10.0 ** (value / 10.0), num_paths=num_paths,
                            num_bs_antennas=num_bs_antennas)
    wavelength = 10.0 ** -value
    return SystemParams(wavelength=wavelength, region_length=2.0 * wavelength,
                        initial_position=wavelength, num_paths=num_paths,
                        num_bs_antennas=num_bs_antennas)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(scale=st.sampled_from(["rho_0", "wavelength"]), margin=st.floats(0.0, 1.0),
       num_paths=st.integers(1, 30), num_bs_antennas=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_params_at_the_gain_and_curvature_scale_bounds_give_finite_records(
        scale, margin, num_paths, num_bs_antennas, seed):
    """Params whose SNR or curvature scale would overflow are rejected. Params
    up to a margin (dB of rho_0, decades of wavelength) inside that bound give
    finite records for every scheme and the oracle, with no RuntimeWarning."""
    def at(value):
        return scenario_at(scale, value, num_paths, num_bs_antennas)

    accepted, rejected = (-40.0, 3080.0) if scale == "rho_0" else (2.0, 200.0)
    for _ in range(60):
        middle = 0.5 * (accepted + rejected)
        try:
            at(middle)
            accepted = middle
        except ValueError as exc:
            assert "overflows" in str(exc)
            rejected = middle
    with pytest.raises(ValueError, match="overflows"):
        at(accepted + 1.0)
    params = at(accepted - margin)
    expansion = build_expansion(sample_instance(params, np.random.default_rng(seed)),
                                params.wavelength)
    records = [*evaluate_schemes(expansion, params).values(), grid_global_ee(expansion, params)]
    assert all(math.isfinite(value) for r in records
               for value in (r.ee, r.throughput, r.energy))


# The new value of one field from a unit draw u, given the base params: T, v,
# P_t, sigma2, x0, A (x0 stays inside, the track shrinks or grows), R_TH or P.
NEW_VALUE = {
    "block_duration": lambda base, u: 0.5 + 9.5 * u,
    "speed": lambda base, u: 10.0 ** (3.5 * u - 3.5),
    "max_tx_power": lambda base, u: 10.0 ** (3.0 * u - 3.0),
    "noise_power": lambda base, u: 10.0 ** (4.0 * u - 12.0),
    "initial_position": lambda base, u: u * base.region_length,
    "region_length": lambda base, u: base.initial_position + (0.5 + 7.5 * u) * base.wavelength,
    "min_throughput": lambda base, u: 12.0 * u,
    "movement_power": lambda base, u: 5.0 * u,
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(speed=st.sampled_from([0.2, 0.0019]), rest=st.sampled_from([0.0, 0.5, 1.0]),
       field=st.sampled_from(sorted(NEW_VALUE)), u=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_kept_searches_key_on_every_field_they_read(speed, rest, field, u, seed):
    """Evaluated at params and then at a copy with one field changed, one
    expansion gives every scheme but the proposed optimizer the records a
    fresh expansion gives: the searches it keeps (ee.grid_max) cannot
    answer for params they do not read alike. At v = 0.0019 m/s the reach
    covers under half the track, so T, v and x0 move the searched interval;
    from a rest position at an end of the track, only its other end moves."""
    default = SystemParams()
    base = SystemParams(speed=speed, initial_position=rest * default.region_length)
    changed = replace(base, **{field: NEW_VALUE[field](base, u)})
    instance = sample_instance(base, np.random.default_rng(seed))
    schemes = SCHEME_ORDER[1:]
    shared = build_expansion(instance, base.wavelength)
    evaluate_schemes(shared, base, schemes)
    fresh = build_expansion(instance, base.wavelength)
    assert evaluate_schemes(shared, changed, schemes) == evaluate_schemes(fresh, changed, schemes)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(speed=st.sampled_from([0.2, 0.0019]), rest=st.sampled_from([0.0, 0.5, 1.0]),
       floor=st.sampled_from([SystemParams().min_throughput, 1e3]),
       field=st.sampled_from(sorted(NEW_VALUE)), u=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
# At R_TH = 1e3 the fallback's answer moves with T, from the rest position
# 0 to 8.6 mm; at R_TH = 9 bits/Hz the floor moves the answer from 0 to 8.3 mm.
@example(speed=0.2, rest=0.0, floor=1e3, field="block_duration", u=0.75, seed=0)
@example(speed=0.2, rest=0.0, floor=SystemParams().min_throughput, field="min_throughput",
         u=0.75, seed=0)
def test_kept_oracle_keys_on_every_field_it_reads(speed, rest, floor, field, u, seed):
    """Evaluated at params and then at a copy with one field changed, one
    expansion gives the oracle record a fresh expansion gives: its kept
    searches (ee.FEASIBLE_EFFICIENCY, and ee.EFFICIENCY where no position
    meets the rate floor) cannot answer for params they do not read alike.
    No position meets a floor of 1e3 bits/Hz, so the oracle falls back to
    ee.EFFICIENCY at every such params but a changed floor."""
    default = SystemParams()
    base = SystemParams(speed=speed, initial_position=rest * default.region_length,
                        min_throughput=floor)
    changed = replace(base, **{field: NEW_VALUE[field](base, u)})
    instance = sample_instance(base, np.random.default_rng(seed))
    shared = build_expansion(instance, base.wavelength)
    grid_global_ee(shared, base)
    fresh = build_expansion(instance, base.wavelength)
    assert grid_global_ee(shared, changed) == grid_global_ee(fresh, changed)
