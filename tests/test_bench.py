import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maee import bench
from maee.bench import (
    evaluate_schemes,
    grid_global_ee,
    oracle_slack,
    scheme_fpa,
    scheme_max_snr,
    scheme_max_throughput,
    scheme_proposed,
    scheme_upper_bound,
)
from maee.channel import build_expansion, gain_eval, sample_instance
from maee.ee import (
    EFFICIENCY,
    FEASIBLE_EFFICIENCY,
    GAIN,
    RATE,
    ee_upper_bound,
    efficiency_curve,
    efficiency_of_gains,
    energy_efficiency,
    grid_scan,
    reach_interval,
)
from maee.harness import load_config
from maee.invariants import solver_bracketing
from maee.params import SystemParams
from maee.solver import optimize

from conftest import make_instance, single_path_instance

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("movement_power", [SystemParams().movement_power, 0.0],
                         ids=["default_power", "free_movement"])
def test_oracle_single_path(movement_power):
    """One path gives the same gain everywhere. With free movement the efficiency
    then ties to the last bits at every position that leaves communication
    time, and every position search stays at rest."""
    params = SystemParams(movement_power=movement_power)
    expansion = build_expansion(
        single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas),
        params.wavelength)
    result = grid_global_ee(expansion, params)
    assert result.x == params.initial_position
    for scheme in (scheme_max_throughput, scheme_max_snr, scheme_upper_bound):
        assert scheme(expansion, params).x == params.initial_position, scheme.__name__
    expected = math.log2(
        1.0 + params.max_tx_power * expansion.constant / params.noise_power
    ) / params.max_tx_power
    assert result.ee == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_resolution_refinement(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    lo, hi = reach_interval(params)
    dense = np.linspace(lo, hi, int(math.ceil((hi - lo) / (params.wavelength / 1000))) + 1)
    ee_vals, _, _, feasible = efficiency_curve(expansion, params, dense)
    best_dense = float(np.max(np.where(feasible, ee_vals, -np.inf)))
    assert grid_global_ee(expansion, params).ee == pytest.approx(best_dense, rel=1e-6)


def _searches(params):
    """Each grid search as (name, scheme, interval, objective record, value of its record)."""
    reach = reach_interval(params)
    return [
        ("upper_bound", scheme_upper_bound, (0.0, params.region_length), lambda r: GAIN,
         lambda e, r: gain_eval(e, r.x)),
        ("max_snr", scheme_max_snr, reach, lambda r: GAIN, lambda e, r: gain_eval(e, r.x)),
        ("max_throughput", scheme_max_throughput, reach, lambda r: RATE,
         lambda e, r: r.throughput),
        ("oracle", grid_global_ee, reach,
         lambda r: FEASIBLE_EFFICIENCY if r.feasible else EFFICIENCY, lambda e, r: r.ee),
    ]


@pytest.mark.parametrize("config", ["default", "tight_power"])
def test_grid_searches_polish_their_cells(config):
    """Each of the four grid searches returns a value at least the best of
    its lattice scan and the best of a 2001-point gain_eval scan over the
    lattice cells on both sides of its record, to a relative 1e-12. On
    tight_power the rate floor cuts the oracle's best cell on 9 of the 50
    seeds, where the answer is a root of rate - R_TH."""
    params = (load_config(GOLDEN / config / "params.cfg") if config != "default"
              else SystemParams())
    for seed in range(50):
        expansion = build_expansion(make_instance(seed, params), params.wavelength)
        for name, scheme, interval, objective_of, value_of in _searches(params):
            record = scheme(expansion, params)
            objective, value = objective_of(record), value_of(expansion, record)
            xs, gains, _ = grid_scan(expansion, params, *interval, GAIN)
            if name == "oracle":  # a floor root lands on the feasible side
                assert record.feasible == bool(np.any(efficiency_of_gains(xs, gains, params)[3]))
            near = int(np.argmin(np.abs(xs - record.x)))
            cells = np.linspace(xs[max(near - 1, 0)], xs[min(near + 1, len(xs) - 1)], 2001)
            for best in (np.max(objective.values(xs, gains, params)),
                         np.max(objective.values(cells, gain_eval(expansion, cells), params))):
                assert value >= best - 1e-12 * abs(best), (config, seed, name)


def test_oracle_slack_at_the_rest_cusp():
    """Moving 1e-6 m costs 10 times the whole block's energy when the reach is
    that short, so the efficiency has a cusp at x0, where the oracle stays.
    The slack is the change over the oracle's root tolerance, not over a
    coarser polish bracket, which read 0.83 of the efficiency here."""
    params = SystemParams(speed=1e-4, block_duration=0.01, movement_power=5.0,
                          min_throughput=0.0)
    for seed in range(4):
        expansion = build_expansion(make_instance(seed, params), params.wavelength)
        oracle = grid_global_ee(expansion, params)
        assert oracle.x == params.initial_position
        assert oracle_slack(expansion, params, oracle) <= 1e-5 * oracle.ee


@pytest.mark.parametrize("seed", range(6))
def test_oracle_below_upper_bound(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    bound = ee_upper_bound(expansion, params).ee
    assert grid_global_ee(expansion, params).ee <= bound * (1 + 1e-9)


def test_oracle_reports_infeasible_floor(params):
    strict = replace(params, min_throughput=1e6)
    expansion = build_expansion(make_instance(0), params.wavelength)
    result = grid_global_ee(expansion, strict)
    assert not result.feasible


def test_upper_bound_scheme_consistency(params):
    expansion = build_expansion(make_instance(3), params.wavelength)
    result = scheme_upper_bound(expansion, params)
    ceiling = ee_upper_bound(expansion, params)
    bound, x_bar = ceiling.ee, ceiling.x
    assert result.ee == pytest.approx(bound, rel=1e-12)
    assert result.x == x_bar
    assert result.ee * result.energy == pytest.approx(result.throughput, rel=1e-9)
    assert result.energy == pytest.approx(params.max_tx_power * params.block_duration)


@pytest.mark.parametrize("seed", range(4))
def test_max_throughput_dominates_rates(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    result = scheme_max_throughput(expansion, params)
    xs = np.linspace(0.0, params.region_length, 1500)
    _, rates, _, _ = efficiency_curve(expansion, params, xs)
    assert result.throughput >= float(np.max(rates)) - 1e-9 * float(np.max(rates))


@pytest.mark.parametrize("seed", range(4))
def test_max_throughput_ee_below_oracle(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    result = scheme_max_throughput(expansion, params)
    oracle = grid_global_ee(expansion, params)
    assert result.ee <= oracle.ee * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_max_snr_position_equals_upper_bound_x(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    snr_result = scheme_max_snr(expansion, params)
    bound_result = scheme_upper_bound(expansion, params)
    assert snr_result.x == bound_result.x


@pytest.mark.parametrize("seed", range(4))
def test_max_snr_gain_dominates_grid(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    result = scheme_max_snr(expansion, params)
    xs = np.linspace(0.0, params.region_length, 1500)
    best_grid_gain = float(np.max(gain_eval(expansion, xs)))
    assert gain_eval(expansion, result.x) >= best_grid_gain - 1e-9 * best_grid_gain


def test_max_snr_includes_movement_cost(params):
    expansion = build_expansion(make_instance(5), params.wavelength)
    result = scheme_max_snr(expansion, params)
    breakdown = energy_efficiency(result.x, max(gain_eval(expansion, result.x), 0.0), params)
    assert result.ee == pytest.approx(breakdown.ee, rel=1e-12)
    assert result.energy == pytest.approx(breakdown.energy, rel=1e-12)


def test_fpa_equals_rest_breakdown(params):
    expansion = build_expansion(make_instance(2), params.wavelength)
    result = scheme_fpa(expansion, params)
    gain = max(gain_eval(expansion, params.initial_position), 0.0)
    breakdown = energy_efficiency(params.initial_position, gain, params)
    assert result.x == params.initial_position
    assert result.ee == pytest.approx(breakdown.ee, rel=1e-12)
    snr = params.max_tx_power * gain / params.noise_power
    assert result.ee == pytest.approx(math.log2(1.0 + snr) / params.max_tx_power, rel=1e-12)


def test_fpa_independent_of_movement_params(params):
    expansion = build_expansion(make_instance(2), params.wavelength)
    base = scheme_fpa(expansion, params)
    other = scheme_fpa(expansion, replace(params, movement_power=3.0, speed=0.9))
    assert other.ee == pytest.approx(base.ee, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_scheme_ordering_invariant(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    bound = ee_upper_bound(expansion, params).ee
    oracle = grid_global_ee(expansion, params)
    fpa = scheme_fpa(expansion, params)
    max_snr = scheme_max_snr(expansion, params)

    if fpa.feasible:
        assert fpa.ee <= oracle.ee * (1 + 1e-9)
    assert oracle.ee <= bound * (1 + 1e-9)
    assert max_snr.ee <= bound * (1 + 1e-9)
    assert solver_bracketing(expansion, params) == 0.0  # proposed between fpa and the oracle


def test_upper_bound_equality_when_rest_at_peak(params):
    expansion = build_expansion(make_instance(4), params.wavelength)
    x_bar = ee_upper_bound(expansion, params).x
    recentered = replace(params, initial_position=x_bar)
    snr_result = scheme_max_snr(expansion, recentered)
    bound_result = scheme_upper_bound(expansion, recentered)
    assert snr_result.ee == pytest.approx(bound_result.ee, rel=1e-9)
    assert snr_result.throughput == pytest.approx(bound_result.throughput, rel=1e-9)
    assert snr_result.energy == pytest.approx(bound_result.energy, rel=1e-9)


def test_flat_gain_max_snr_stays_at_rest():
    # one path: the gain is the same everywhere, so every position ties the rest position
    params = SystemParams(num_paths=1)
    expansion = build_expansion(sample_instance(params, np.random.default_rng(3)),
                                params.wavelength)
    snr = scheme_max_snr(expansion, params)
    fpa = scheme_fpa(expansion, params)
    assert snr.x == params.initial_position
    assert snr.ee == fpa.ee
    assert scheme_upper_bound(expansion, params).x == params.initial_position


def test_scheme_results_mutually_consistent(params):
    expansion = build_expansion(make_instance(1), params.wavelength)
    for result in evaluate_schemes(expansion, params).values():
        if result.energy > 0:
            assert result.ee * result.energy == pytest.approx(result.throughput,
                                                              rel=1e-9, abs=1e-12)


def test_evaluate_schemes_calls_the_module_attribute(params, monkeypatch):
    """Schemes are looked up on maee.bench at call time, so a wrapper set on
    the module attribute, as benchmarks/tracer.py sets, is the one called."""
    calls = []

    def wrapped(expansion, params):
        calls.append(expansion)
        return scheme_fpa(expansion, params)

    monkeypatch.setattr(bench, "scheme_fpa", wrapped)
    expansion = build_expansion(make_instance(1), params.wavelength)
    results = evaluate_schemes(expansion, params, schemes=("fpa",))
    assert calls == [expansion] and results["fpa"] == scheme_fpa(expansion, params)


def test_evaluate_schemes_subset_and_order(params):
    expansion = build_expansion(make_instance(1), params.wavelength)
    results = evaluate_schemes(expansion, params, schemes=("fpa", "max_snr"))
    assert list(results) == ["max_snr", "fpa"]  # canonical order, subset only
    with pytest.raises(ValueError):
        evaluate_schemes(expansion, params, schemes=("fpa", "nonsense"))


# Instances where the optimizer used to stop 1e-10..9e-10 bits/Hz below a
# binding rate floor (inside the surrogate's feasibility slack), so a feasible
# trial was reported infeasible.
@pytest.mark.parametrize("seed", [9782499630118762339, 13898896239080442400,
                                  16926990316465219604])
def test_proposed_feasible_at_binding_floor(seed):
    tight = SystemParams(min_throughput=10.0, movement_power=0.5)
    expansion = build_expansion(
        sample_instance(tight, np.random.default_rng(seed)), tight.wavelength)
    proposed = scheme_proposed(expansion, tight)
    assert proposed.feasible
    assert proposed.throughput >= tight.min_throughput
    assert grid_global_ee(expansion, tight).feasible


@pytest.mark.parametrize("region_wavelengths", [1.0, 2.0, 4.0])
def test_slow_antenna_schemes_stay_within_reach(region_wavelengths):
    # reach speed * T = 5 mm is shorter than the track
    region = region_wavelengths * 0.01
    slow = SystemParams(speed=0.001, region_length=region, initial_position=region / 2)
    reach = slow.speed * slow.block_duration
    for seed in range(8):
        expansion = build_expansion(make_instance(seed, slow), slow.wavelength)
        results = evaluate_schemes(expansion, slow)
        ceiling = results["upper_bound"]
        for name, result in results.items():
            assert math.isfinite(result.ee)
            assert result.ee <= ceiling.ee * (1 + 1e-9)
            if name != "upper_bound":
                assert abs(result.x - slow.initial_position) <= reach * (1 + 1e-12)


@pytest.mark.parametrize("exponent", [-80, -60, -40, -20, 20])
def test_results_invariant_to_power_of_two_link_scale(exponent, params):
    # Scaling pathloss_ref and noise_power by 2**k leaves every SNR bit-identical
    # (power-of-two scaling is exact in floating point), so no tolerance may
    # carry an absolute scale: every result must match exactly.
    scale = 2.0 ** exponent
    scaled = replace(params, pathloss_ref=params.pathloss_ref * scale,
                     noise_power=params.noise_power * scale)
    for seed in range(20):
        expansion = build_expansion(make_instance(seed, params), params.wavelength)
        scaled_expansion = build_expansion(make_instance(seed, scaled), scaled.wavelength)
        assert evaluate_schemes(scaled_expansion, scaled) == evaluate_schemes(expansion, params)
        assert grid_global_ee(scaled_expansion, scaled) == grid_global_ee(expansion, params)


@pytest.mark.parametrize("config", [None, "tight_power"])
def test_searches_on_one_expansion_share_one_gain_grid(config, gain_reads):
    """The optimizer (with its restart scan under tight_power's rate floor),
    every scheme, the oracle and the ceiling read the one lattice kept on
    the expansion: it is built once. The slices' ends and rest position are
    lattice points here, so no slice adds a position, and a reported
    position is read by kept_gain_and_slope: no gain_eval runs at all."""
    params = load_config(GOLDEN / config / "params.cfg") if config else SystemParams()
    expansion = build_expansion(make_instance(4, params), params.wavelength)
    report = optimize(expansion, params)
    assert (report.trace[0][1] != params.initial_position) == (config is not None)
    evaluate_schemes(expansion, params)
    grid_global_ee(expansion, params)
    ee_upper_bound(expansion, params)
    assert gain_reads.lattices == [int(params.region_length / (params.wavelength / 500)) + 2]
    assert gain_reads.evals == []
