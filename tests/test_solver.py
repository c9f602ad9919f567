import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from maee import solver
from maee.bench import grid_global_ee
from maee.channel import build_expansion, curvature_bound, gain_eval
from maee.ee import ee_upper_bound, efficiency_at, energy_efficiency
from maee.params import SystemParams
from maee.solver import (
    DELTA_FLOOR_WAVELENGTHS,
    GAMMA_FLOOR,
    TRUST_WINDOW_WAVELENGTHS,
    _build_surrogate,
    bilinear_upper,
    h_of_x,
    optimize,
    solve_subproblem,
    taylor_bounds,
)

from conftest import direct_gain, make_instance, single_path_instance


def curvature(expansion, params):
    """The instance's curvature bound, as optimize computes it once per run."""
    return curvature_bound(expansion, params.max_tx_power)


def tangent_state(x, expansion, params):
    """Taylor bounds tangent at the iterate x, and the true ratio there."""
    return (taylor_bounds(expansion, params, x, curvature(expansion, params)),
            efficiency_at(expansion, params, x).ee)


def tangent_slacks(bounds, params):
    """Travel and rate slacks (delta, gamma) tangent at the bounds' center."""
    lower, _ = bounds
    return (abs(lower.center - params.initial_position),
            math.log2(1.0 + max(lower.value, 0.0) / params.noise_power))


def floored_slacks(bounds, params):
    """Tangent slacks floored as the surrogate floors them."""
    delta, gamma = tangent_slacks(bounds, params)
    return max(delta, params.wavelength * DELTA_FLOOR_WAVELENGTHS), max(gamma, GAMMA_FLOOR)


def eliminated_slacks(x, bounds, params):
    """Closed-form slack optima (beta, gamma, delta) at one position: the gain
    slack meets its lower Taylor cap, the travel slack the distance and the
    rate slack the linearized rate constraint."""
    lower, upper = bounds
    _, gamma_loc = floored_slacks(bounds, params)
    noise = params.noise_power
    level = noise * 2.0 ** gamma_loc
    gamma = gamma_loc + (float(upper(x)) - (level - noise)) / (level * math.log(2.0))
    return max(float(lower(x)), 0.0), max(gamma, 0.0), abs(x - params.initial_position)


def eliminated_objective(x, bounds, params, alpha):
    """Eliminated surrogate objective at one position; -inf when the floor fails."""
    return float(_build_surrogate(bounds, params, alpha)(np.array([x]))[0])


def surrogate_value(x, beta, gamma, delta, bounds, params, alpha):
    """Objective of the convexified subproblem at explicit slack values."""
    delta_loc, gamma_loc = floored_slacks(bounds, params)
    rate_term = params.block_duration * np.log2(1.0 + beta / params.noise_power)
    product = bilinear_upper(delta, gamma, delta_loc, gamma_loc)
    return (rate_term - product / params.speed
            - delta / params.speed * alpha * (params.movement_power - params.max_tx_power))


def brute_force_slacks(x, bounds, params, alpha, n=121):
    """Oracle: best slack triple on a dense feasible box for fixed position.

    Axes start at the analytically binding boundary values, so the grid
    contains the exact constrained optimum whenever the elimination is right.
    """
    delta_loc, gamma_loc = floored_slacks(bounds, params)
    noise = params.noise_power

    beta_hi, gamma_lo, delta_lo = eliminated_slacks(x, bounds, params)
    betas = np.linspace(0.0, beta_hi, n)
    gammas = np.linspace(gamma_lo, gamma_lo + 2.0, n)
    deltas = np.linspace(delta_lo, delta_lo + params.wavelength / 4, n)

    B, G, D = np.meshgrid(betas, gammas, deltas, indexing="ij")
    rate_term = params.block_duration * np.log2(1.0 + B / noise)
    product = bilinear_upper(D, G, delta_loc, gamma_loc)
    objective = (rate_term - product / params.speed
                 - D / params.speed * alpha * (params.movement_power - params.max_tx_power))
    feasible = rate_term - product / params.speed >= params.min_throughput - 1e-9
    objective = np.where(feasible, objective, -np.inf)
    flat = int(np.argmax(objective))
    i, j, k = np.unravel_index(flat, objective.shape)
    return float(objective[i, j, k]), (float(betas[i]), float(gammas[j]), float(deltas[k]))


def test_h_of_x_constant(params):
    expansion = build_expansion(single_path_instance(), params.wavelength)
    for x in (0.0, 0.007, 0.02):
        assert h_of_x(expansion, params, x) == pytest.approx(
            params.max_tx_power * expansion.constant, rel=1e-12)


def test_h_of_x_matches_direct(params):
    instance = make_instance(2)
    expansion = build_expansion(instance, params.wavelength)
    xs = np.linspace(0.0, params.region_length, 40)
    direct = params.max_tx_power * direct_gain(instance, params.wavelength, xs)
    np.testing.assert_allclose(h_of_x(expansion, params, xs), direct, rtol=1e-9)


def test_h_of_x_scales_with_power(params):
    expansion = build_expansion(make_instance(2), params.wavelength)
    doubled = replace(params, max_tx_power=2 * params.max_tx_power)
    assert h_of_x(expansion, doubled, 0.004) == pytest.approx(
        2 * h_of_x(expansion, params, 0.004), rel=1e-12)


def test_dinkelbach_matches_efficiency(params):
    # optimize refreshes its Dinkelbach ratio with efficiency_at
    expansion = build_expansion(make_instance(6), params.wavelength)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, params.region_length, 100):
        gain = max(gain_eval(expansion, float(x)), 0.0)
        assert efficiency_at(expansion, params, float(x)).ee == pytest.approx(
            energy_efficiency(float(x), gain, params).ee, rel=1e-12)


def test_dinkelbach_at_rest(params):
    expansion = build_expansion(make_instance(6), params.wavelength)
    x0 = params.initial_position
    gain = max(gain_eval(expansion, x0), 0.0)
    expected = math.log2(1.0 + params.max_tx_power * gain / params.noise_power) / params.max_tx_power
    assert efficiency_at(expansion, params, x0).ee == pytest.approx(expected, rel=1e-12)


def test_dinkelbach_zero_gain(params):
    expansion = build_expansion(single_path_instance(response=0.0), params.wavelength)
    assert efficiency_at(expansion, params, params.initial_position).ee == 0.0


def test_bilinear_hand_value():
    assert bilinear_upper(2.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
    assert bilinear_upper(2.0, 0.0, 1.0, 1.0) >= 0.0


def test_bilinear_tangency_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d, g = rng.uniform(1e-6, 1e3, 2)
        assert abs(bilinear_upper(d, g, d, g) - d * g) <= 1e-12 * d * g


def test_bilinear_dominates_product():
    rng = np.random.default_rng(4)
    delta, gamma, d_loc, g_loc = rng.uniform(1e-6, 1e3, size=(4, 10_000))
    bound = bilinear_upper(delta, gamma, d_loc, g_loc)
    assert np.all(bound >= delta * gamma - 1e-12 * np.maximum(delta * gamma, 1.0))


def test_bilinear_rejects_nonpositive_locals():
    with pytest.raises(ValueError):
        bilinear_upper(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bilinear_upper(1.0, 1.0, 1.0, -2.0)


@pytest.mark.parametrize("seed", range(4))
def test_taylor_tangency(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = 0.0123
    lower, upper = taylor_bounds(expansion, params, x_i, curvature(expansion, params))
    h_val = h_of_x(expansion, params, x_i)
    assert lower(x_i) == pytest.approx(h_val, rel=1e-12)
    assert upper(x_i) == pytest.approx(h_val, rel=1e-12)
    step = 1e-9
    slope = (lower(x_i + step) - lower(x_i - step)) / (2 * step)
    assert slope == pytest.approx(
        float(np.asarray(params.max_tx_power)
              * (gain_eval(expansion, x_i + step) - gain_eval(expansion, x_i - step))
              / (2 * step)), rel=1e-3)


@pytest.mark.parametrize("seed", range(4))
def test_taylor_sandwich_dense(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 3000)
    h_vals = h_of_x(expansion, params, xs)
    for x_i in (0.0, 0.004, params.initial_position, 0.0178):
        lower, upper = taylor_bounds(expansion, params, x_i, curvature(expansion, params))
        slack = 1e-12 * (1.0 + np.abs(h_vals))
        assert np.all(lower(xs) <= h_vals + slack)
        assert np.all(upper(xs) >= h_vals - slack)


def test_taylor_single_path_nearly_flat(params):
    expansion = build_expansion(single_path_instance(), params.wavelength)
    lower, upper = taylor_bounds(expansion, params, params.initial_position,
                                 curvature(expansion, params))
    xs = np.linspace(0.0, params.region_length, 100)
    h_vals = h_of_x(expansion, params, xs)
    # floored curvature keeps the gap below eps/2 * A^2
    gap = 0.5 * 1e-12 * params.region_length**2
    assert np.all(np.abs(lower(xs) - h_vals) <= gap + 1e-18)
    assert np.all(np.abs(upper(xs) - h_vals) <= gap + 1e-18)


def test_eliminate_slacks_tangency(params):
    expansion = build_expansion(make_instance(3), params.wavelength)
    x_i = 0.0137
    bounds, _ = tangent_state(x_i, expansion, params)
    beta, gamma, delta = eliminated_slacks(x_i, bounds, params)
    assert beta == pytest.approx(h_of_x(expansion, params, x_i), rel=1e-12)
    assert delta == pytest.approx(abs(x_i - params.initial_position), rel=1e-12)
    assert gamma == pytest.approx(tangent_slacks(bounds, params)[1], rel=1e-9)


def test_eliminate_slacks_single_path_at_rest(params):
    expansion = build_expansion(
        single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas),
        params.wavelength)
    bounds, _ = tangent_state(params.initial_position, expansion, params)
    beta, gamma, delta = eliminated_slacks(params.initial_position, bounds, params)
    assert delta == 0.0
    assert beta == pytest.approx(params.max_tx_power * expansion.constant, rel=1e-12)
    assert gamma >= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_eliminate_slacks_matches_slack_grid(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = params.initial_position + 0.0015  # healthy travel-slack local point
    bounds, alpha = tangent_state(x_i, expansion, params)
    for x in (x_i, x_i + 0.0004, x_i - 0.0011):
        assert eliminated_objective(x, bounds, params, alpha) > -math.inf
        beta, gamma, delta = eliminated_slacks(x, bounds, params)
        analytic = float(surrogate_value(x, beta, gamma, delta, bounds, params, alpha))
        assert eliminated_objective(x, bounds, params, alpha) == pytest.approx(analytic, rel=1e-12)
        brute, slacks = brute_force_slacks(x, bounds, params, alpha)
        assert analytic >= brute - 1e-12 * abs(brute)
        assert analytic == pytest.approx(brute, rel=1e-4)
        assert slacks[0] == pytest.approx(beta, abs=max(beta / 120, 1e-15))
        assert slacks[2] == pytest.approx(delta, abs=params.wavelength / 4 / 120 + 1e-15)


def test_eliminate_slacks_blocked_from_degenerate_local_point(params):
    """At a zero-travel local point the product bound explodes with distance:
    the elimination and the brute-force box must agree the move is blocked."""
    expansion = build_expansion(make_instance(0), params.wavelength)
    bounds, alpha = tangent_state(params.initial_position, expansion, params)
    x = params.initial_position + 0.0004
    assert eliminated_objective(x, bounds, params, alpha) == -math.inf
    brute, _ = brute_force_slacks(x, bounds, params, alpha)
    assert brute == -math.inf


def test_eliminate_slacks_infeasible_returns_none(params):
    strict = replace(params, min_throughput=1e6)
    expansion = build_expansion(make_instance(0), params.wavelength)
    bounds, alpha = tangent_state(strict.initial_position, expansion, strict)
    assert eliminated_objective(strict.initial_position, bounds, strict, alpha) == -math.inf


def test_solve_subproblem_single_path_stays(params):
    expansion = build_expansion(
        single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas),
        params.wavelength)
    _, alpha = tangent_state(params.initial_position, expansion, params)
    x, _ = solve_subproblem(params.initial_position, expansion, params, alpha,
                            curvature(expansion, params))
    assert x == pytest.approx(params.initial_position, abs=1e-12)


def test_solve_subproblem_fixed_point_at_peak(params):
    expansion = build_expansion(make_instance(12), params.wavelength)
    _, x_bar = ee_upper_bound(expansion, params)
    recentered = replace(params, initial_position=x_bar)
    _, alpha = tangent_state(x_bar, expansion, recentered)
    x, _ = solve_subproblem(x_bar, expansion, recentered, alpha,
                            curvature(expansion, recentered))
    assert abs(x - x_bar) <= recentered.wavelength * 1e-4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("offset", [0.0, 0.0015])
def test_solve_subproblem_matches_joint_grid(seed, offset, params):
    """Oracle: dense grid over position x slack box reproduces the 1-D solve."""
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = params.initial_position + offset
    bounds, alpha = tangent_state(x_i, expansion, params)
    _, objective = solve_subproblem(x_i, expansion, params, alpha, curvature(expansion, params))

    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    lo = max(0.0, x_i - half)
    hi = min(params.region_length, x_i + half)
    best = -math.inf
    for x in np.linspace(lo, hi, 257):
        value, _ = brute_force_slacks(float(x), bounds, params, alpha, n=33)
        best = max(best, value)
    assert objective >= best - 1e-9 * max(abs(best), 1.0)
    assert objective == pytest.approx(best, rel=1e-3)


_FORM_CASES = {
    "default": SystemParams(),
    "binding_floor": SystemParams(min_throughput=10.0),
    "flagged": SystemParams(movement_power=0.001),  # P < P_t
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(_FORM_CASES))
def test_surrogate_float_form_matches_array_form(case, seed):
    """The golden polish evaluates the surrogate on floats, the scan on arrays:
    both forms must agree bit for bit, on the trust-window edges, at x == x0,
    and where the rate floor binds (both -inf)."""
    params = _FORM_CASES[case]
    expansion = build_expansion(make_instance(seed, params), params.wavelength)
    x0, half = params.initial_position, TRUST_WINDOW_WAVELENGTHS * params.wavelength
    blocked = 0
    for center in (0.0, x0 - 0.13 * half, x0, x0 + 1.24 * half, params.region_length):
        bounds, alpha = tangent_state(center, expansion, params)
        objective = _build_surrogate(bounds, params, alpha)
        lo = max(0.0, center - half)
        hi = min(params.region_length, center + half)
        xs = np.unique(np.append(np.linspace(lo, hi, 65), [center, x0]))
        for x, value in zip(xs.tolist(), objective(xs)):
            scalar = objective(x)
            assert type(scalar) is float
            assert scalar == value, (center, x)
        blocked += int(np.sum(objective(xs) == -np.inf))
    if case == "binding_floor":
        assert blocked > 0


def test_optimize_single_path(params):
    expansion = build_expansion(
        single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas),
        params.wavelength)
    report = optimize(expansion, params)
    assert report.status == "converged"
    assert report.x == pytest.approx(params.initial_position, abs=1e-12)
    expected = math.log2(
        1.0 + params.max_tx_power * expansion.constant / params.noise_power
    ) / params.max_tx_power
    assert report.ee == pytest.approx(expected, rel=1e-12)


def test_optimize_recentred_start_reaches_bound(params):
    for seed in range(6):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        bound, x_bar = ee_upper_bound(expansion, params)
        recentered = replace(params, initial_position=x_bar)
        report = optimize(expansion, recentered)
        assert report.ee >= (1.0 - 1e-6) * bound


@pytest.mark.parametrize("seed", range(25))
def test_optimize_bracketing_and_monotone(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    report = optimize(expansion, params)
    oracle = grid_global_ee(expansion, params)
    start = efficiency_at(expansion, params, params.initial_position).ee
    gain0 = max(gain_eval(expansion, params.initial_position), 0.0)
    start_feasible = energy_efficiency(params.initial_position, gain0, params).feasible

    assert report.status in ("converged", "iteration-cap")
    assert report.iterations <= 100
    if start_feasible:
        assert report.ee >= start - 1e-9
    assert report.ee <= oracle.ee + 1e-9
    alphas = [row[2] for row in report.trace]
    assert all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:]))


def test_optimize_report_consistency(params):
    expansion = build_expansion(make_instance(17), params.wavelength)
    report = optimize(expansion, params)
    gain = max(gain_eval(expansion, report.x), 0.0)
    assert report.ee == pytest.approx(energy_efficiency(report.x, gain, params).ee, rel=1e-12)
    # final trace row carries the converged ratio estimate
    assert report.trace[-1][2] == pytest.approx(report.ee, rel=1e-9)


def test_optimize_infeasible_when_floor_unreachable(params):
    strict = replace(params, min_throughput=1e6)
    expansion = build_expansion(make_instance(0), params.wavelength)
    report = optimize(expansion, strict)
    assert report.status == "infeasible"
    assert not grid_global_ee(expansion, strict).feasible


def test_optimize_restarts_from_feasible_region():
    # rest position at a boundary with a tight floor: full-block rate at the
    # start may miss the floor while better positions satisfy it
    params = SystemParams(initial_position=0.0, min_throughput=9.0)
    hit = 0
    for seed in range(30):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        gain0 = max(gain_eval(expansion, 0.0), 0.0)
        if energy_efficiency(0.0, gain0, params).feasible:
            continue
        report = optimize(expansion, params)
        oracle = grid_global_ee(expansion, params)
        if oracle.feasible:
            hit += 1
            assert report.status in ("converged", "iteration-cap")
            gain = max(gain_eval(expansion, report.x), 0.0)
            assert energy_efficiency(report.x, gain, params).throughput >= \
                params.min_throughput - 1e-6
        else:
            assert report.status == "infeasible"
    assert hit > 0  # the scenario must actually exercise the restart path


def test_optimize_builds_one_surrogate_per_subproblem(params, monkeypatch):
    """The AM-GM coefficients come from one bilinear_upper call per surrogate
    build: one per subproblem plus the start objective's, none per evaluation."""
    calls = Counter()
    for name in ("bilinear_upper", "solve_subproblem"):
        def counted(*args, _name=name, _original=getattr(solver, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solver, name, counted)
    optimize(build_expansion(make_instance(1), params.wavelength), params)
    assert calls["solve_subproblem"] > 1
    assert calls["bilinear_upper"] == calls["solve_subproblem"] + 1


def test_optimize_computes_curvature_bound_once(params, monkeypatch):
    """The Taylor curvature constant depends only on the instance."""
    calls = Counter()
    original = solver.channel.curvature_bound

    def counted(*args):
        calls["curvature_bound"] += 1
        return original(*args)

    monkeypatch.setattr(solver.channel, "curvature_bound", counted)
    optimize(build_expansion(make_instance(1), params.wavelength), params)
    assert calls["curvature_bound"] == 1


def test_optimize_scans_surrogate_arrays_once_per_subproblem(params, monkeypatch):
    """The array form runs once per subproblem scan; the golden polish and the
    start objective evaluate the float form."""
    kinds = Counter()
    build, subproblem = solver._build_surrogate, solver.solve_subproblem

    def counted_build(*args):
        objective = build(*args)

        def counted(xs):
            kinds[type(xs).__name__] += 1
            return objective(xs)
        return counted

    def counted_subproblem(*args):
        kinds["solve_subproblem"] += 1
        return subproblem(*args)

    monkeypatch.setattr(solver, "_build_surrogate", counted_build)
    monkeypatch.setattr(solver, "solve_subproblem", counted_subproblem)
    optimize(build_expansion(make_instance(1), params.wavelength), params)
    assert kinds["solve_subproblem"] > 1
    assert kinds["ndarray"] == kinds["solve_subproblem"]
    assert kinds["float"] > kinds["solve_subproblem"]
    assert set(kinds) == {"ndarray", "float", "solve_subproblem"}


def test_optimize_flags_low_movement_power(params):
    cheap = replace(params, movement_power=0.001)
    expansion = build_expansion(make_instance(1), params.wavelength)
    report = optimize(expansion, cheap)
    assert report.power_assumption_violated
    assert not optimize(expansion, params).power_assumption_violated
