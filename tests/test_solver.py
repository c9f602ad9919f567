import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from maee import solver
from maee.bench import grid_global_ee, scheme_proposed
from maee.channel import build_expansion, curvature_bound, gain_derivative, gain_eval
from maee.ee import ee_upper_bound, efficiency_at, energy_efficiency
from maee.params import SystemParams
from maee.solver import (
    DELTA_FLOOR_WAVELENGTHS,
    GAMMA_FLOOR,
    TRUST_WINDOW_WAVELENGTHS,
    _build_surrogate,
    optimize,
    solve_subproblem,
)

from conftest import make_instance, single_path_instance


def curvature(expansion, params):
    """The instance's curvature bound, as optimize computes it once per run."""
    return params.max_tx_power * curvature_bound(expansion)


def scaled_gain(expansion, params, x):
    """h = P_t * gain, the quantity the Taylor bounds sandwich."""
    return params.max_tx_power * gain_eval(expansion, x)


class Tangent:
    """The paper's bound forms at an iterate c, written out as the reference
    for the closed-form elimination: the Taylor sandwich of h and the floored
    tangent slacks (delta_c, gamma_c) of the AM-GM product bound."""

    def __init__(self, center, expansion, params):
        self.center, self.expansion = center, expansion
        self.curvature = curvature(expansion, params)
        self.value = scaled_gain(expansion, params, center)
        self.slope = params.max_tx_power * gain_derivative(expansion, center)
        self.half = 0.5 * self.curvature
        self.delta = max(abs(center - params.initial_position),
                         params.wavelength * DELTA_FLOOR_WAVELENGTHS)
        self.gamma = max(math.log2(1.0 + max(self.value, 0.0) / params.noise_power), GAMMA_FLOOR)

    def lower(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        return self.value + self.slope * dx - self.half * dx * dx

    def upper(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        return self.value + self.slope * dx + self.half * dx * dx

    def product_bound(self, delta, gamma):
        """AM-GM upper bound on delta * gamma, exact at (self.delta, self.gamma)."""
        return 0.5 * (self.gamma / self.delta * delta * delta
                      + self.delta / self.gamma * gamma * gamma)


def tangent_state(x, expansion, params):
    """Bound forms tangent at the iterate x, and the true ratio there."""
    return Tangent(x, expansion, params), efficiency_at(expansion, params, x).ee


def eliminated_slacks(x, tangent, params):
    """Closed-form slack optima (beta, gamma, delta) at one position: the gain
    slack meets its lower Taylor cap, the travel slack the distance and the
    rate slack the linearized rate constraint."""
    noise = params.noise_power
    level = noise * 2.0 ** tangent.gamma
    gamma = tangent.gamma + (float(tangent.upper(x)) - (level - noise)) / (level * math.log(2.0))
    return max(float(tangent.lower(x)), 0.0), max(gamma, 0.0), abs(x - params.initial_position)


def eliminated_objective(x, tangent, params, alpha):
    """Eliminated surrogate objective at one position; -inf when the floor fails."""
    objective = _build_surrogate(tangent.expansion, params, tangent.center, alpha,
                                 tangent.curvature)
    return float(objective(np.array([x]))[0])


def surrogate_value(x, beta, gamma, delta, tangent, params, alpha):
    """Objective of the convexified subproblem at explicit slack values."""
    rate_term = params.block_duration * np.log2(1.0 + beta / params.noise_power)
    product = tangent.product_bound(delta, gamma)
    return (rate_term - product / params.speed
            - delta / params.speed * alpha * (params.movement_power - params.max_tx_power))


def brute_force_slacks(x, tangent, params, alpha, n=121):
    """Oracle: best slack triple on a dense feasible box for fixed position.

    Axes start at the analytically binding boundary values, so the grid
    contains the exact constrained optimum whenever the elimination is right.
    """
    noise = params.noise_power
    beta_hi, gamma_lo, delta_lo = eliminated_slacks(x, tangent, params)
    betas = np.linspace(0.0, beta_hi, n)
    gammas = np.linspace(gamma_lo, gamma_lo + 2.0, n)
    deltas = np.linspace(delta_lo, delta_lo + params.wavelength / 4, n)

    B, G, D = np.meshgrid(betas, gammas, deltas, indexing="ij")
    rate_term = params.block_duration * np.log2(1.0 + B / noise)
    product = tangent.product_bound(D, G)
    objective = (rate_term - product / params.speed
                 - D / params.speed * alpha * (params.movement_power - params.max_tx_power))
    feasible = rate_term - product / params.speed >= params.min_throughput - 1e-9
    objective = np.where(feasible, objective, -np.inf)
    flat = int(np.argmax(objective))
    i, j, k = np.unravel_index(flat, objective.shape)
    return float(objective[i, j, k]), (float(betas[i]), float(gammas[j]), float(deltas[k]))


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


@pytest.mark.parametrize("seed", range(4))
def test_taylor_tangency(seed, params):
    """The bounds touch h at the center with gain_derivative's slope."""
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = 0.0123
    tangent = Tangent(x_i, expansion, params)
    h_val = scaled_gain(expansion, params, x_i)
    assert tangent.lower(x_i) == pytest.approx(h_val, rel=1e-12)
    assert tangent.upper(x_i) == pytest.approx(h_val, rel=1e-12)
    step = 1e-9
    slope = (tangent.lower(x_i + step) - tangent.lower(x_i - step)) / (2 * step)
    assert slope == pytest.approx(
        (scaled_gain(expansion, params, x_i + step) - scaled_gain(expansion, params, x_i - step))
        / (2 * step), rel=1e-3)


@pytest.mark.parametrize("seed", range(4))
def test_taylor_sandwich_dense(seed, params):
    """Half of curvature_bound keeps the parabolas on either side of h everywhere."""
    expansion = build_expansion(make_instance(seed), params.wavelength)
    xs = np.linspace(0.0, params.region_length, 3000)
    h_vals = scaled_gain(expansion, params, xs)
    for x_i in (0.0, 0.004, params.initial_position, 0.0178):
        tangent = Tangent(x_i, expansion, params)
        slack = 1e-12 * (1.0 + np.abs(h_vals))
        assert np.all(tangent.lower(xs) <= h_vals + slack)
        assert np.all(tangent.upper(xs) >= h_vals - slack)


def test_taylor_single_path_nearly_flat(params):
    """A single path's gain is flat and its curvature bound 0: both bounds are exact."""
    expansion = build_expansion(single_path_instance(), params.wavelength)
    tangent = Tangent(params.initial_position, expansion, params)
    xs = np.linspace(0.0, params.region_length, 100)
    h_vals = scaled_gain(expansion, params, xs)
    np.testing.assert_array_equal(tangent.lower(xs), h_vals)
    np.testing.assert_array_equal(tangent.upper(xs), h_vals)


def test_eliminate_slacks_tangency(params):
    expansion = build_expansion(make_instance(3), params.wavelength)
    x_i = 0.0137
    tangent, _ = tangent_state(x_i, expansion, params)
    beta, gamma, delta = eliminated_slacks(x_i, tangent, params)
    assert beta == pytest.approx(scaled_gain(expansion, params, x_i), rel=1e-12)
    assert delta == pytest.approx(abs(x_i - params.initial_position), rel=1e-12)
    assert gamma == pytest.approx(math.log2(1.0 + tangent.value / params.noise_power), rel=1e-9)


def test_eliminate_slacks_single_path_at_rest(params):
    expansion = build_expansion(
        single_path_instance(response=1e-4, num_antennas=params.num_bs_antennas),
        params.wavelength)
    tangent, _ = tangent_state(params.initial_position, expansion, params)
    beta, gamma, delta = eliminated_slacks(params.initial_position, tangent, params)
    assert delta == 0.0
    assert beta == pytest.approx(params.max_tx_power * expansion.constant, rel=1e-12)
    assert gamma >= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_eliminate_slacks_matches_slack_grid(seed, params):
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = params.initial_position + 0.0015  # healthy travel-slack local point
    tangent, alpha = tangent_state(x_i, expansion, params)
    for x in (x_i, x_i + 0.0004, x_i - 0.0011):
        assert eliminated_objective(x, tangent, params, alpha) > -math.inf
        beta, gamma, delta = eliminated_slacks(x, tangent, params)
        analytic = float(surrogate_value(x, beta, gamma, delta, tangent, params, alpha))
        assert eliminated_objective(x, tangent, params, alpha) == pytest.approx(analytic, rel=1e-12)
        brute, slacks = brute_force_slacks(x, tangent, params, alpha)
        assert analytic >= brute - 1e-12 * abs(brute)
        assert analytic == pytest.approx(brute, rel=1e-4)
        assert slacks[0] == pytest.approx(beta, abs=max(beta / 120, 1e-15))
        assert slacks[2] == pytest.approx(delta, abs=params.wavelength / 4 / 120 + 1e-15)


def test_eliminate_slacks_blocked_from_degenerate_local_point(params):
    """At a zero-travel local point the product bound explodes with distance:
    the elimination and the brute-force box must agree the move is blocked."""
    expansion = build_expansion(make_instance(0), params.wavelength)
    tangent, alpha = tangent_state(params.initial_position, expansion, params)
    x = params.initial_position + 0.0004
    assert eliminated_objective(x, tangent, params, alpha) == -math.inf
    brute, _ = brute_force_slacks(x, tangent, params, alpha)
    assert brute == -math.inf


def test_eliminate_slacks_infeasible_returns_none(params):
    strict = replace(params, min_throughput=1e6)
    expansion = build_expansion(make_instance(0), params.wavelength)
    tangent, alpha = tangent_state(strict.initial_position, expansion, strict)
    assert eliminated_objective(strict.initial_position, tangent, strict, alpha) == -math.inf


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
    x_bar = ee_upper_bound(expansion, params).x
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
    tangent, alpha = tangent_state(x_i, expansion, params)
    _, objective = solve_subproblem(x_i, expansion, params, alpha, curvature(expansion, params))

    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    lo = max(0.0, x_i - half)
    hi = min(params.region_length, x_i + half)
    best = -math.inf
    for x in np.linspace(lo, hi, 257):
        value, _ = brute_force_slacks(float(x), tangent, params, alpha, n=33)
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
        alpha = efficiency_at(expansion, params, center).ee
        objective = _build_surrogate(expansion, params, center, alpha, curvature(expansion, params))
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
    assert report.result.x == pytest.approx(params.initial_position, abs=1e-12)
    expected = math.log2(
        1.0 + params.max_tx_power * expansion.constant / params.noise_power
    ) / params.max_tx_power
    assert report.result.ee == pytest.approx(expected, rel=1e-12)


def test_optimize_recentred_start_reaches_bound(params):
    for seed in range(6):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        ceiling = ee_upper_bound(expansion, params)
        bound, x_bar = ceiling.ee, ceiling.x
        recentered = replace(params, initial_position=x_bar)
        report = optimize(expansion, recentered)
        assert report.result.ee >= (1.0 - 1e-6) * bound


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
        assert report.result.ee >= start - 1e-9
    assert report.result.ee <= oracle.ee + 1e-9
    alphas = [row[2] for row in report.trace]
    assert all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:]))


def test_optimize_report_consistency(params):
    expansion = build_expansion(make_instance(17), params.wavelength)
    report = optimize(expansion, params)
    gain = max(gain_eval(expansion, report.result.x), 0.0)
    assert report.result.ee == pytest.approx(
        energy_efficiency(report.result.x, gain, params).ee, rel=1e-12)
    # final trace row carries the converged ratio estimate
    assert report.trace[-1][2] == pytest.approx(report.result.ee, rel=1e-9)


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
            gain = max(gain_eval(expansion, report.result.x), 0.0)
            assert energy_efficiency(report.result.x, gain, params).throughput >= \
                params.min_throughput - 1e-6
        else:
            assert report.status == "infeasible"
    assert hit > 0  # the scenario must actually exercise the restart path


def test_optimize_builds_one_surrogate_per_subproblem(params, monkeypatch):
    """Each surrogate build reads the gain and its slope at the iterate once:
    one build per subproblem plus the start objective's, none per evaluation.
    The other gain reads are optimize's efficiency checks (the start and one
    after each inner loop), all at single positions; no final recheck."""
    calls, sizes = Counter(), set()
    for module, name in ((solver, "solve_subproblem"), (solver.channel, "gain_and_slope"),
                         (solver.channel, "gain_eval")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            if _name == "gain_eval":
                sizes.add(np.size(args[1]))
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    optimize(build_expansion(make_instance(1), params.wavelength), params)
    assert calls == {"solve_subproblem": 2, "gain_and_slope": 3, "gain_eval": 2}
    assert sizes == {1}


def test_surrogate_built_from_one_steering_row(params, monkeypatch):
    """A surrogate build reads the gain and its slope at the center off one
    steering row, and evaluating the surrogate reads the channel no more."""
    expansion = build_expansion(make_instance(3), params.wavelength)
    calls, original = [], solver.channel._steering

    def counted(wavenumbers, x):
        calls.append(np.size(x))
        return original(wavenumbers, x)

    monkeypatch.setattr(solver.channel, "_steering", counted)
    objective = _build_surrogate(expansion, params, 0.0123, 100.0,
                                 params.max_tx_power * curvature_bound(expansion))
    objective(np.linspace(0.01, 0.015, 65))
    objective(0.0125)
    assert calls == [1]


def test_optimize_reports_the_accepted_record_when_a_subproblem_fails(params, monkeypatch):
    """An inner iterate that never passed the efficiency check is not reported:
    when the next subproblem finds no feasible position, the run returns the
    record of the accepted start."""
    expansion = build_expansion(make_instance(1), params.wavelength)
    moved = params.initial_position + 0.125 * params.wavelength
    steps = iter([(moved, 1.0), None])
    monkeypatch.setattr(solver, "solve_subproblem", lambda *args: next(steps))
    report = optimize(expansion, params)
    start = efficiency_at(expansion, params, params.initial_position)
    assert start.feasible
    assert report.status == "converged"
    assert report.result == start
    assert report.result.x != moved
    assert [row[1] for row in report.trace] == [params.initial_position]


def test_scheme_proposed_reuses_the_optimizer_record(params, monkeypatch):
    """The proposed scheme's record is the one optimize verified: no
    efficiency evaluation follows the optimizer run."""
    events, reports = [], []
    original_at, original_optimize = solver.ee.efficiency_at, solver.optimize

    def counted_at(*args):
        events.append("efficiency_at")
        return original_at(*args)

    def watched_optimize(*args, **kwargs):
        reports.append(original_optimize(*args, **kwargs))
        events.append("optimize returned")
        return reports[-1]

    monkeypatch.setattr(solver.ee, "efficiency_at", counted_at)
    monkeypatch.setattr(solver, "optimize", watched_optimize)
    result = scheme_proposed(build_expansion(make_instance(1), params.wavelength), params)
    assert events.count("efficiency_at") >= 2
    assert events[-1] == "optimize returned"
    assert result is reports[0].result


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


def test_optimize_memory_bounded_at_many_paths():
    """No path-pair array: building the expansion and optimizing at L = 2000
    stays within a few blocks of steering and Gram entries (numpy reports its
    buffers to tracemalloc)."""
    params = SystemParams(num_paths=2000)
    instance = make_instance(0, params)
    tracemalloc.start()
    try:
        report = optimize(build_expansion(instance, params.wavelength), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.result.ee)
    assert peak <= 16 * 2**20
