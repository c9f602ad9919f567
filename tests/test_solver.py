import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maee import search, solver
from maee.bench import grid_global_ee, scheme_proposed
from maee.channel import (
    build_expansion,
    curvature_bound,
    gain_and_slope,
    gain_eval,
)
from maee.ee import (
    ROOT_TOL_WAVELENGTHS,
    ee_upper_bound,
    efficiency_at,
    energy_efficiency,
    reach_interval,
)
from maee.harness import SweepConfig, run_trial
from maee.invariants import derivatives, solver_bracketing
from maee.params import SystemParams
from maee.solver import (
    DELTA_FLOOR_WAVELENGTHS,
    FEASIBILITY_SLACK,
    GAMMA_FLOOR,
    TRUST_WINDOW_WAVELENGTHS,
    _build_surrogate,
    optimize,
    solve_subproblem,
)

from conftest import make_instance, single_path_instance


def curvature(expansion, params):
    """The instance's curvature bound at the transmit power, as optimize reads it."""
    return params.max_tx_power * curvature_bound(expansion)


def run_limits(params):
    """The reach interval and root tolerance optimize hands each subproblem of a run."""
    return reach_interval(params), params.wavelength * ROOT_TOL_WAVELENGTHS


def surrogate_at(expansion, params, center, alpha, curvature):
    """The subproblem surrogate at center, from the gain and slope optimize reads there."""
    return _build_surrogate(params, center, *gain_and_slope(expansion, center), alpha, curvature)


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
        self.slope = params.max_tx_power * gain_and_slope(expansion, center)[1]
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
    return surrogate_at(tangent.expansion, params, tangent.center, alpha,
                        tangent.curvature).objective(x)


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
    """The bounds touch h at the center with gain_and_slope's slope, which is
    the gain's (invariants.derivatives)."""
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = 0.0123
    tangent = Tangent(x_i, expansion, params)
    h_val = scaled_gain(expansion, params, x_i)
    assert tangent.lower(x_i) == pytest.approx(h_val, rel=1e-12)
    assert tangent.upper(x_i) == pytest.approx(h_val, rel=1e-12)
    step = 1e-9
    slope = (tangent.lower(x_i + step) - tangent.lower(x_i - step)) / (2 * step)
    assert slope == pytest.approx(tangent.slope, rel=1e-3)
    assert derivatives(expansion, params, [x_i]) <= 1.0


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
    x, _ = solve_subproblem(surrogate_at(expansion, params, params.initial_position, alpha,
                                         curvature(expansion, params)),
                            params, *run_limits(params))
    assert x == pytest.approx(params.initial_position, abs=1e-12)


def test_solve_subproblem_fixed_point_at_peak(params):
    expansion = build_expansion(make_instance(12), params.wavelength)
    x_bar = ee_upper_bound(expansion, params).x
    recentered = replace(params, initial_position=x_bar)
    _, alpha = tangent_state(x_bar, expansion, recentered)
    x, _ = solve_subproblem(surrogate_at(expansion, recentered, x_bar, alpha,
                                         curvature(expansion, recentered)),
                            recentered, *run_limits(recentered))
    assert abs(x - x_bar) <= recentered.wavelength * 1e-4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("offset", [0.0, 0.0015])
def test_solve_subproblem_matches_joint_grid(seed, offset, params):
    """Oracle: dense grid over position x slack box reproduces the 1-D solve."""
    expansion = build_expansion(make_instance(seed), params.wavelength)
    x_i = params.initial_position + offset
    tangent, alpha = tangent_state(x_i, expansion, params)
    _, objective = solve_subproblem(
        surrogate_at(expansion, params, x_i, alpha, curvature(expansion, params)),
        params, *run_limits(params))

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


def array_objective(xs, tangent, params, alpha):
    """The eliminated objective on an array of positions, transcribed from the
    bound forms with numpy (-inf where net misses the floor by more than
    FEASIBILITY_SLACK), and net."""
    noise = params.noise_power
    level = noise * 2.0 ** tangent.gamma
    beta = np.maximum(tangent.lower(xs), 0.0)
    gamma = np.maximum(tangent.gamma + (tangent.upper(xs) - (level - noise))
                       / (level * math.log(2.0)), 0.0)
    delta = np.abs(xs - params.initial_position)
    value = surrogate_value(xs, beta, gamma, delta, tangent, params, alpha)
    net = params.block_duration * np.log2(1.0 + beta / noise) \
        - tangent.product_bound(delta, gamma) / params.speed
    return np.where(net >= params.min_throughput - FEASIBILITY_SLACK, value, -np.inf), net


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(_FORM_CASES))
def test_surrogate_float_form_matches_array_form(case, seed):
    """The surrogate has one form, on Python floats, which the subproblem
    solve evaluates. It must match an array transcription of the bound forms
    (array_objective) to rounding, on the trust-window edges, at x == x0 and
    where the rate floor binds, where both read -inf."""
    params = _FORM_CASES[case]
    expansion = build_expansion(make_instance(seed, params), params.wavelength)
    x0, half = params.initial_position, TRUST_WINDOW_WAVELENGTHS * params.wavelength
    blocked = 0
    for center in (0.0, x0 - 0.13 * half, x0, x0 + 1.24 * half, params.region_length):
        alpha = efficiency_at(expansion, params, center).ee
        surrogate = surrogate_at(expansion, params, center, alpha, curvature(expansion, params))
        lo = max(0.0, center - half)
        hi = min(params.region_length, center + half)
        xs = np.unique(np.append(np.linspace(lo, hi, 65), [center, x0]))
        reference, net = array_objective(xs, Tangent(center, expansion, params), params, alpha)
        values = [surrogate.objective(x) for x in xs.tolist()]
        assert all(type(value) is float for value in values)
        values = np.array(values)
        near_floor = np.abs(net - (params.min_throughput - FEASIBILITY_SLACK)) <= 1e-9
        finite = np.isfinite(reference)
        assert np.array_equal(finite | near_floor, np.isfinite(values) | near_floor)
        both = finite & np.isfinite(values)
        np.testing.assert_allclose(values[both], reference[both], rtol=1e-11, atol=1e-11)
        blocked += int(np.sum(~finite))
    if case == "binding_floor":
        assert blocked > 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(_FORM_CASES))
def test_surrogate_derivative_matches_central_differences(case, seed):
    """derivative(side, rate)(x) is the slope of the objective on side's side
    of x0, or of net for side 0, with the rate term's slope where beta > 0,
    and the second derivative: central differences of the objective and of
    the slope agree away from the kinks at x0, beta = 0 and gamma = 0, on
    the trust-window edges and where the rate floor binds."""
    params = _FORM_CASES[case]
    expansion = build_expansion(make_instance(seed, params), params.wavelength)
    x0, half = params.initial_position, TRUST_WINDOW_WAVELENGTHS * params.wavelength
    step = params.wavelength * 1e-7
    checked = blocked = 0
    for center in (0.0, x0 - 0.13 * half, x0, x0 + 1.24 * half, params.region_length):
        alpha = efficiency_at(expansion, params, center).ee
        surrogate = surrogate_at(expansion, params, center, alpha, curvature(expansion, params))
        tangent = Tangent(center, expansion, params)
        for x in np.linspace(center - half, center + half, 41).tolist():
            ends = (x - step, x + step)
            (beta_lo, gamma_lo, _), (beta_hi, gamma_hi, _) = (
                eliminated_slacks(t, tangent, params) for t in ends)
            if ends[0] <= x0 <= ends[1] or (beta_lo > 0) != (beta_hi > 0) \
                    or (gamma_lo > 0) != (gamma_hi > 0):
                continue
            side = 1.0 if x > x0 else -1.0
            for f, f_side in ((surrogate.net, 0.0), (surrogate.objective, side)):
                lo, hi = f(ends[0]), f(ends[1])
                if not math.isfinite(lo + hi):
                    blocked += 1
                    continue
                slope_at = surrogate.derivative(f_side, beta_lo > 0)
                slope, second = slope_at(x)
                rounding = 1e-13 * max(abs(lo), abs(hi)) / step
                assert (hi - lo) / (2 * step) == pytest.approx(slope, rel=1e-5, abs=rounding)
                lo, hi = slope_at(ends[0])[0], slope_at(ends[1])[0]
                rounding = 1e-13 * max(abs(lo), abs(hi)) / step
                assert (hi - lo) / (2 * step) == pytest.approx(second, rel=1e-5, abs=rounding)
                checked += 1
    assert checked > 100
    if case == "binding_floor":
        assert blocked > 0


# The most surrogate evaluations one piece of a subproblem takes: four searches
# worth (the maximizer, net's maximizer, and the floor crossing, which reads net
# and its slope at each point), each at worst twice as many steps as bisecting
# the trust window down to the root tolerance (a Newton step need only halve
# the step before last), plus a few reads of the ends and of net.
_PIECE_EVALUATIONS = 4 * (2 * math.ceil(math.log2(2.0 * TRUST_WINDOW_WAVELENGTHS
                                                  / ROOT_TOL_WAVELENGTHS)) + 6)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(scale=st.sampled_from([1e-150, 1e-100, 1e-20, 1.0, 1e20, 1e100]),
       gain=st.floats(0.0, 2.0), tilt=st.floats(-1.0, 1.0), bound=st.floats(0.0, 4.0),
       alpha=st.floats(0.0, 1e3), movement_power=st.sampled_from([0.001, 0.5, 50.0]),
       offset=st.floats(-1.0, 1.0), level=st.floats(0.0, 1.0),
       second=st.sampled_from([None, math.nan, math.inf, -math.inf, 0.0]))
def test_newton_roots_match_brent_and_keep_to_the_floor(scale, gain, tilt, bound, alpha,
                                                         movement_power, offset, level, second):
    """The surrogate's roots by safeguarded Newton steps, on surrogates drawn
    across gain scales 1e-150 to 1e100 (slope and curvature scaled by the
    wavenumber), flagged P < P_t, pieces where beta is clipped at 0 and
    targets across the range of net on a piece. The slope is at most
    sqrt(2 gain curvature), as a curvature bound makes it: the upper Taylor
    bound then stays >= 0, and gamma meets its clip at 0 only by rounding,
    at the smallest scales. Each piece's maximizer is at least as good as
    Brent's (search.concave_max on the slope alone) less rounding, or within
    tol of it where net's terms cancel to far below their own size; a finite
    floor crossing has net >= target; and no piece takes more than
    _PIECE_EVALUATIONS evaluations. A second derivative replaced by nan,
    +-inf or 0 still ends within that cap."""
    params = SystemParams(movement_power=movement_power)
    x0, k = params.initial_position, 2.0 * math.pi / params.wavelength
    center = x0 + offset * x0
    slope = tilt * math.sqrt(2.0 * gain * bound)
    built = _build_surrogate(params, center, scale * gain, scale * k * slope, alpha,
                             params.max_tx_power * scale * k * k * bound)
    count = [0]

    def counted(fn):
        def wrapper(t):
            count[0] += 1
            return fn(t)
        return wrapper

    def derivative(side, rate):
        slope_at = built.derivative(side, rate)
        if second is None:
            return counted(slope_at)
        return counted(lambda t: (slope_at(t)[0], second))

    s = solver._Surrogate(center, built.rate_span, built.objective, counted(built.net), derivative)
    drift = alpha * (params.movement_power - params.max_tx_power) / params.speed

    def value(t):  # the objective without its floor
        return built.net(t) - abs(t - x0) * drift

    reach, tol = run_limits(params)
    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    lo, hi = max(center - half, reach[0]), min(center + half, reach[1])
    cuts = sorted({lo, hi, *(t for t in (x0, *s.rate_span) if lo < t < hi)})
    for a, b in zip(cuts, cuts[1:]):
        side, rate = (1.0 if a >= x0 else -1.0), s.rate_span[0] < 0.5 * (a + b) < s.rate_span[1]
        x = search.newton_max(derivative(side, rate), a, b, min(max(center, a), b), tol)
        brent = search.concave_max(lambda t: built.derivative(side, rate)(t)[0], a, b, tol)
        assert a <= x <= b
        if second is None:  # a concave value within tol of its peak is short by at most |slope| tol
            margin = (1e-12 * (abs(built.net(brent)) + abs((brent - x0) * drift))
                      + abs(built.derivative(side, rate)(x)[0]) * tol + 1e-300)
            assert value(x) >= value(brent) - margin or abs(x - brent) <= tol
        nets = [built.net(t) for t in np.linspace(a, b, 17).tolist()]
        target = min(nets) + level * (max(nets) - min(nets))
        count[0] = 0
        x, objective = solver._piece_max(s, a, b, side, rate, target, tol)
        assert count[0] <= _PIECE_EVALUATIONS
        assert a <= x <= b
        if objective > -math.inf:
            assert built.net(x) >= target


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
    assert report.status in ("converged", "iteration-cap")
    assert report.iterations <= 100
    # no excess at all: never above the oracle, under the fixed antenna or
    # with a falling ratio estimate
    assert solver_bracketing(expansion, params) == 0.0


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
    """optimize reads each iterate's channel once: gain_and_slope at the start
    and at each subproblem result that moved off its center, one steering row
    each. The start's trace objective and the first subproblem share one
    surrogate, and each iterate's efficiency record comes from the gain
    already read, so no gain_eval runs and no surrogate is built twice."""
    calls = Counter()
    for module, name in ((solver, "_build_surrogate"), (solver.channel, "gain_and_slope"),
                         (solver.channel, "gain_eval")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    subproblem = solver.solve_subproblem

    def counted_subproblem(surrogate, *args):
        step = subproblem(surrogate, *args)
        calls["solve_subproblem"] += 1
        calls["moved"] += step is not None and step[0] != surrogate.center
        return step

    monkeypatch.setattr(solver, "solve_subproblem", counted_subproblem)
    runs = 5
    for seed in range(runs):
        optimize(build_expansion(make_instance(seed), params.wavelength), params)
    assert calls["moved"] > 0 and calls["solve_subproblem"] > calls["moved"]
    assert calls["gain_and_slope"] == runs + calls["moved"]
    assert calls["_build_surrogate"] == calls["solve_subproblem"]
    assert calls["gain_eval"] == 0


def test_surrogate_built_from_one_steering_row(params, monkeypatch):
    """A surrogate is built from the gain and slope at its center, read off
    one steering row; evaluating it and solving its subproblem read the
    channel no more."""
    expansion = build_expansion(make_instance(3), params.wavelength)
    calls, original = [], solver.channel._steering

    def counted(wavenumbers, x):
        calls.append(np.size(x))
        return original(wavenumbers, x)

    monkeypatch.setattr(solver.channel, "_steering", counted)
    surrogate = _build_surrogate(params, 0.0123, *gain_and_slope(expansion, 0.0123), 100.0,
                                 params.max_tx_power * curvature_bound(expansion))
    surrogate.objective(0.0125)
    surrogate.derivative(1.0, True)(0.0125)
    solve_subproblem(surrogate, params, *run_limits(params))
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
    original_at, original_optimize = solver.ee.energy_efficiency, solver.optimize

    def counted_at(*args):
        events.append("energy_efficiency")
        return original_at(*args)

    def watched_optimize(*args, **kwargs):
        reports.append(original_optimize(*args, **kwargs))
        events.append("optimize returned")
        return reports[-1]

    monkeypatch.setattr(solver.ee, "energy_efficiency", counted_at)
    monkeypatch.setattr(solver, "optimize", watched_optimize)
    result = scheme_proposed(build_expansion(make_instance(1), params.wavelength), params)
    assert events.count("energy_efficiency") >= 2
    assert events[-1] == "optimize returned"
    assert result is reports[0].result


def test_optimize_computes_curvature_bound_once(params, monkeypatch):
    """The Taylor curvature constant depends only on the instance: it is kept
    on the expansion, so every run on it, and every sweep value of a 5-value
    power trial, reads one computation; a dataclasses.replace copy computes
    its own."""
    calls = Counter()
    original = solver.channel.curvature_bound

    def counted(*args):
        calls["curvature_bound"] += 1
        return original(*args)

    monkeypatch.setattr(solver.channel, "curvature_bound", counted)
    expansion = build_expansion(make_instance(1), params.wavelength)
    optimize(expansion, params)
    optimize(expansion, replace(params, movement_power=2.0))
    assert calls["curvature_bound"] == 1
    optimize(replace(expansion, constant=expansion.constant), params)
    assert calls["curvature_bound"] == 2
    cfg = SweepConfig(base=params, sweep_variable="power",
                      sweep_values=(0.1, 0.5, 1.0, 2.0, 5.0), trials=1)
    run_trial(cfg, 0)
    assert calls["curvature_bound"] == 3


def optimize_without_early_stop(expansion, params):
    """optimize with an inner loop that, when a subproblem returns its own
    center, rebuilds the surrogate there and solves it again."""
    x = params.initial_position
    gain, slope = gain_and_slope(expansion, x)
    result = energy_efficiency(x, gain, params)
    flagged = params.movement_power < params.max_tx_power
    if not result.feasible:
        x = solver._best_feasible_position(expansion, params)
        if x is None:
            return solver.SolverReport(result, 0, [], "infeasible", flagged)
        gain, slope = gain_and_slope(expansion, x)
        result = energy_efficiency(x, gain, params)
    curvature = params.max_tx_power * curvature_bound(expansion)
    surrogate = solver._build_surrogate(params, x, gain, slope, result.ee, curvature)
    trace, status, outer_used = [(0, x, result.ee, surrogate.objective(x))], "iteration-cap", 0
    for outer in range(1, solver.OUTER_CAP + 1):
        outer_used, stalled, inner_prev = outer, False, -math.inf
        for _ in range(solver.INNER_CAP):
            step = solver.solve_subproblem(surrogate, params, *run_limits(params))
            if step is None:
                stalled = True
                break
            x, objective = step
            if x != surrogate.center:
                gain, slope = gain_and_slope(expansion, x)
            improvement, inner_prev = objective - inner_prev, objective
            if improvement <= params.tolerance:
                break
            surrogate = solver._build_surrogate(params, x, gain, slope, result.ee, curvature)
        if stalled:
            status = "converged"
            break
        checked = energy_efficiency(x, gain, params)
        if checked.ee < result.ee or not checked.feasible:
            status = "converged"
            break
        trace.append((outer, x, checked.ee, objective))
        finished, result = abs(checked.ee - result.ee) <= params.tolerance, checked
        if finished:
            status = "converged"
            break
        surrogate = solver._build_surrogate(params, x, gain, slope, result.ee, curvature)
    return solver.SolverReport(result, outer_used, trace, status, flagged)


def test_optimize_never_solves_the_same_subproblem_twice(params, monkeypatch):
    """A subproblem that returns its own center ends the inner loop: on seeds
    0-19 no subproblem gets a surrogate with the previous one's center and
    alpha, every report equals the one of the loop that solves it again, and
    that loop solves more subproblems."""
    built, solved = {}, []
    build, subproblem = solver._build_surrogate, solver.solve_subproblem

    def recorded_build(params, center, gain, slope, alpha, curvature):
        surrogate = build(params, center, gain, slope, alpha, curvature)
        built[id(surrogate)] = (surrogate, center, alpha)  # kept alive, so no id is reused
        return surrogate

    def recorded_subproblem(surrogate, *args):
        solved.append(built[id(surrogate)][1:])
        return subproblem(surrogate, *args)

    monkeypatch.setattr(solver, "_build_surrogate", recorded_build)
    monkeypatch.setattr(solver, "solve_subproblem", recorded_subproblem)
    saved = 0
    for seed in range(20):
        expansion = build_expansion(make_instance(seed), params.wavelength)
        for power in (0.1, 1.0, 5.0):
            scenario = replace(params, movement_power=power)
            solved.clear()
            reference = optimize_without_early_stop(expansion, scenario)
            saved += len(solved)
            solved.clear()
            assert optimize(expansion, scenario) == reference
            assert all(a != b for a, b in zip(solved, solved[1:]))
            saved -= len(solved)
    assert saved > 0


def test_subproblem_evaluates_the_surrogate_a_few_times(monkeypatch):
    """A subproblem evaluates the surrogate at piece ends and Newton points
    only: a few dozen float calls at most (17 at most on these runs, 20
    under Brent's method)."""
    counts, current = [], []
    build, subproblem = solver._build_surrogate, solver.solve_subproblem

    def counted(fn):
        def wrapper(*args):
            current[-1] += 1
            return fn(*args)
        return wrapper

    def counted_build(*args):
        s = build(*args)
        return solver._Surrogate(s.center, s.rate_span, counted(s.objective), counted(s.net),
                                 lambda side, rate: counted(s.derivative(side, rate)))

    def counted_subproblem(*args):
        current.append(0)
        step = subproblem(*args)
        counts.append(current[-1])
        return step

    monkeypatch.setattr(solver, "_build_surrogate", counted_build)
    monkeypatch.setattr(solver, "solve_subproblem", counted_subproblem)
    current.append(0)  # counts the start's trace objective, outside any subproblem
    for params in _FORM_CASES.values():
        for seed in range(10):
            optimize(build_expansion(make_instance(seed, params), params.wavelength), params)
    assert len(counts) >= 30
    assert max(counts) <= 40


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
