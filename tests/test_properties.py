"""Property tests over the valid SystemParams ranges: the gain is finite and
nonnegative, and every scheme and the grid oracle return finite efficiencies
that keep their order."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from maee.bench import evaluate_schemes, grid_global_ee, oracle_slack  # noqa: E402
from maee.channel import build_expansion, gain_eval, gain_series, sample_instance  # noqa: E402
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
    proposed, fpa = results["proposed"], results["fpa"]
    if fpa.feasible:
        assert proposed.ee >= fpa.ee * (1.0 - RTOL)
        assert oracle.ee >= fpa.ee * (1.0 - RTOL)
    if oracle.feasible:
        assert proposed.feasible
        assert proposed.ee <= oracle.ee + oracle_slack(expansion, params, oracle)


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
    # Same function as the series, to float error relative to the gain's scale.
    assert np.all(np.abs(gains - gain_series(expansion, xs)) <= 1e-9 * expansion.constant)
