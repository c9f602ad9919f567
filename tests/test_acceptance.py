"""Acceptance suite: one test per criterion, run with `pytest tests/test_acceptance.py -v`.

Each test prints a summary line (visible with -s); the -v test outcome itself
is the per-criterion pass/fail record. Criteria with stated runtime budgets
assert them.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maee.bench import grid_global_ee
from maee.channel import build_expansion, curvature_bound, gain_and_slope
from maee.ee import (
    ROOT_TOL_WAVELENGTHS,
    ee_upper_bound,
    efficiency_at,
    efficiency_curve,
    reach_interval,
)
from maee.harness import SweepConfig, emit_csv, run_sweep
from maee.invariants import (ceiling_dominance, curvature_dominance, derivatives, gain_forms,
                             solver_bracketing)
from maee.params import SystemParams
from maee.solver import (
    DELTA_FLOOR_WAVELENGTHS,
    FEASIBILITY_SLACK,
    TRUST_WINDOW_WAVELENGTHS,
    _build_surrogate,
    optimize,
    solve_subproblem,
)

from conftest import hand_instance, make_instance


REGION_VALUES = (0.5, 1.0, 1.5, 2.0)
POWER_VALUES = (0.1, 0.5, 1.0, 2.0, 5.0)
MASTER_SEED = 0


@pytest.fixture(scope="module")
def region_sweep():
    cfg = SweepConfig(base=SystemParams(), sweep_variable="region",
                      sweep_values=REGION_VALUES, trials=200,
                      master_seed=MASTER_SEED)
    start = time.perf_counter()
    records, aggregates = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, records, aggregates, elapsed


def agg_means(aggregates):
    return {(row.sweep_value, row.scheme): row.mean_ee for row in aggregates}


def worst_margin(check, params, xs):
    """The largest margin of an invariants check over the instances of seeds 0-49."""
    return max(check(build_expansion(make_instance(seed), params.wavelength), params, xs)
               for seed in range(50))


def test_criterion_1_closed_form_equivalence(params):
    start = time.perf_counter()
    worst = worst_margin(gain_forms, params, np.linspace(0.0, params.region_length, 1000))
    elapsed = time.perf_counter() - start
    assert worst <= 1.0 and elapsed < 5.0
    print(f"criterion 1 PASS: closed-form equivalence, worst margin {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_derivative_suite(params):
    xs = np.linspace(1e-4, params.region_length - 1e-4, 200)
    worst = worst_margin(derivatives, params, xs)
    assert worst <= 1.0
    print(f"criterion 2 PASS: derivative suite, worst margin {worst:.2e}")


def test_criterion_3_curvature_bound(params):
    # no excess at all: the second derivative stays at or under the bound itself
    xs = np.linspace(0.0, params.region_length, 10_000)
    assert worst_margin(curvature_dominance, params, xs) == 0.0
    hand = build_expansion(hand_instance(), 0.01)
    expected = 8.0 * math.pi**2 * 1.0 * 1.0 * 0.5**2 / 0.01**2
    assert curvature_bound(hand) == pytest.approx(expected, rel=1e-15)
    print(f"criterion 3 PASS: curvature bound dominates on 50 instances; "
          f"hand case = {expected:.6f}")


def test_criterion_4_efficiency_ceiling(params):
    worst_gap, worst = 0.0, 0.0
    xs = np.linspace(0.0, params.region_length, 2000)
    for seed in range(100):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        worst = max(worst, ceiling_dominance(expansion, params, xs))
        ceiling = ee_upper_bound(expansion, params)
        recentered = replace(params, initial_position=ceiling.x)
        report = optimize(expansion, recentered)
        assert report.result.ee >= (1.0 - 1e-6) * ceiling.ee
        worst_gap = max(worst_gap, 1.0 - report.result.ee / ceiling.ee)
    assert worst <= 1.0
    print(f"criterion 4 PASS: ceiling dominates on 100 instances (worst margin {worst:.2e}); "
          f"worst recentered-start gap {worst_gap:.2e}")


_MINORIZER_CASES = {
    "default": SystemParams(),
    "binding_floor": SystemParams(min_throughput=10.0),
    "flagged": SystemParams(movement_power=0.001),  # P < P_t
    "slow": SystemParams(speed=1e-3),  # the reach covers half the track
}


def test_criterion_5_surrogate_properties():
    """SCA rests on the surrogate minorizing the shifted Dinkelbach objective
    rate - alpha (energy - P_t T) on the trust window, and touching it at the
    iterate wherever the travel slack is not floored."""
    worst_gap, worst_contact, contacts = -math.inf, 0.0, 0
    for params in _MINORIZER_CASES.values():
        half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
        delta_floor = params.wavelength * DELTA_FLOOR_WAVELENGTHS
        reach_lo, reach_hi = reach_interval(params)
        for seed in range(20):
            expansion = build_expansion(make_instance(seed, params), params.wavelength)
            curvature = params.max_tx_power * curvature_bound(expansion)
            for center in np.linspace(reach_lo, reach_hi, 5).tolist():
                alpha = efficiency_at(expansion, params, center).ee
                objective = _build_surrogate(params, center, *gain_and_slope(expansion, center),
                                             alpha, curvature).objective
                xs = np.append(np.linspace(max(center - half, reach_lo),
                                           min(center + half, reach_hi), 401), center)
                _, rate, energy, _ = efficiency_curve(expansion, params, xs)
                shift = alpha * (energy - params.max_tx_power * params.block_duration)
                scale = np.abs(rate) + np.abs(shift)
                values = np.array([objective(x) for x in xs.tolist()])
                gap = (values - (rate - shift)) / scale
                assert np.all(gap <= 1e-12)
                worst_gap = max(worst_gap, float(np.max(gap)))
                if abs(center - params.initial_position) <= delta_floor:
                    continue
                if gap[-1] == -math.inf:  # the rate floor binds at the iterate
                    assert rate[-1] < params.min_throughput
                    continue
                assert abs(gap[-1]) <= 1e-12
                worst_contact = max(worst_contact, abs(float(gap[-1])))
                contacts += 1
    assert contacts > 0
    print(f"criterion 5 PASS: surrogate minorizes on {len(_MINORIZER_CASES)} scenarios x 20 "
          f"instances x 5 centers (worst excess {worst_gap:.1e} relative); contact at "
          f"{contacts} iterates to {worst_contact:.1e} relative")


def test_subproblem_reaches_the_dense_grid_maximum():
    """solve_subproblem's value is at least the best of the surrogate on a
    4001-point grid of the trust window plus the center and x0, to a relative
    1e-12, on every scenario of criterion 5, and a position other than the
    center clears the rate floor by FEASIBILITY_SLACK. The nine centers span
    the reach, so x0 lies inside some windows, on the edge of others and
    outside the rest."""
    subproblems, worst = 0, -math.inf
    for params in _MINORIZER_CASES.values():
        x0, half = params.initial_position, TRUST_WINDOW_WAVELENGTHS * params.wavelength
        reach_lo, reach_hi = reach_interval(params)
        for seed in range(40):
            expansion = build_expansion(make_instance(seed, params), params.wavelength)
            curvature = params.max_tx_power * curvature_bound(expansion)
            for center in np.linspace(reach_lo, reach_hi, 9).tolist():
                alpha = efficiency_at(expansion, params, center).ee
                surrogate = _build_surrogate(params, center, *gain_and_slope(expansion, center),
                                             alpha, curvature)
                lo, hi = max(center - half, reach_lo), min(center + half, reach_hi)
                xs = [*np.linspace(lo, hi, 4001).tolist(), center]
                if lo <= x0 <= hi:
                    xs.append(x0)
                best = max(map(surrogate.objective, xs))
                step = solve_subproblem(surrogate, params, (reach_lo, reach_hi),
                                        params.wavelength * ROOT_TOL_WAVELENGTHS)
                if best == -math.inf:
                    continue
                x, value = step
                assert lo <= x <= hi and value == surrogate.objective(x)
                # a new position clears the floor, so its true rate passes optimize's check
                assert x == center or surrogate.net(x) >= params.min_throughput + FEASIBILITY_SLACK
                assert value >= best - 1e-12 * abs(best), (params, seed, center)
                worst = max(worst, (best - value) / abs(best))
                subproblems += 1
    print(f"dense-grid check PASS: {subproblems} subproblems, worst shortfall "
          f"{worst:.1e} relative")


def test_criterion_6_solver_against_oracle(params):
    start = time.perf_counter()
    trials = 200
    reached, converged, logged_gaps = 0, 0, []
    for seed in range(trials):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        # no excess at all: never above the oracle, under the fixed antenna or
        # with a falling ratio estimate
        assert solver_bracketing(expansion, params) == 0.0
        report = optimize(expansion, params)
        if report.status == "converged" and report.iterations <= 100:
            converged += 1
        ratio = report.result.ee / grid_global_ee(expansion, params).ee
        if ratio >= 0.99:
            reached += 1
        else:
            logged_gaps.append((seed, round(ratio, 4)))
    elapsed = time.perf_counter() - start

    assert reached >= 0.80 * trials
    assert converged >= 0.99 * trials
    assert elapsed < 60.0
    print(f"criterion 6 PASS: {reached}/{trials} runs within 1% of the oracle, "
          f"{converged}/{trials} converged, {elapsed:.1f}s; local-method gaps: "
          f"{logged_gaps}")


def test_criterion_7_region_size_trends(region_sweep):
    _, _, aggregates, elapsed = region_sweep
    means = agg_means(aggregates)
    bound_means = [means[(v, "upper_bound")] for v in REGION_VALUES]
    assert all(b > a for a, b in zip(bound_means, bound_means[1:]))
    for value in REGION_VALUES:
        assert means[(value, "proposed")] >= means[(value, "fpa")]
    assert means[(2.0, "max_snr")] < means[(2.0, "proposed")]
    assert elapsed < 300.0
    print(f"criterion 7 PASS: ceiling means {[round(m, 2) for m in bound_means]} "
          f"increase; proposed dominates fpa at every region size; {elapsed:.1f}s")


def test_criterion_8_movement_power_trends():
    cfg = SweepConfig(base=SystemParams(), sweep_variable="power",
                      sweep_values=POWER_VALUES, trials=200,
                      master_seed=MASTER_SEED)
    start = time.perf_counter()
    _, aggregates = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    means = agg_means(aggregates)

    proposed = [means[(v, "proposed")] for v in POWER_VALUES]
    assert all(b <= a for a, b in zip(proposed, proposed[1:]))
    snr = [means[(v, "max_snr")] for v in POWER_VALUES]
    assert all(b < a for a, b in zip(snr, snr[1:]))
    gap = abs(means[(5.0, "proposed")] - means[(5.0, "fpa")]) / means[(5.0, "fpa")]
    assert gap <= 0.05
    assert elapsed < 300.0
    print(f"criterion 8 PASS: proposed means {[round(m, 2) for m in proposed]} "
          f"nonincreasing, fpa gap at 5 W = {gap:.2%}, {elapsed:.1f}s")


def test_criterion_9_reproducibility(region_sweep, tmp_path):
    cfg, records, aggregates, _ = region_sweep
    first = emit_csv(records, aggregates, tmp_path / "run1")

    parallel_cfg = replace(cfg, workers=2)
    records2, aggregates2 = run_sweep(parallel_cfg)
    second = emit_csv(records2, aggregates2, tmp_path / "run2")

    raw1 = Path(first[0]).read_bytes()
    raw2 = Path(second[0]).read_bytes()
    agg1 = Path(first[1]).read_bytes()
    agg2 = Path(second[1]).read_bytes()
    assert raw1 == raw2
    assert agg1 == agg2
    print(f"criterion 9 PASS: byte-identical CSVs across worker counts "
          f"({len(raw1)} raw bytes)")
