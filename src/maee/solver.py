"""Antenna-position optimizer: Dinkelbach outer loop around an SCA inner loop.

The efficiency ratio is non-concave in the position because the gain is an
oscillatory cosine series. The Dinkelbach variable alpha reduces it to the
parametric difference rate - alpha * (energy - P_t T). With the travel slack
delta = |x - x0| and the rate slack gamma (bits/s/Hz), that is

    T log2(1 + h(x)/sigma2) - delta gamma / v - alpha (P - P_t) delta / v,

h = P_t * gain, gamma >= log2(1 + h/sigma2). Each SCA subproblem replaces
what is still non-convex with bounds built at the current iterate c:

    h(c) + h'(c) (x - c) -/+ C/2 (x - c)^2   lower/upper Taylor bounds on h,
    (gamma_c/delta_c delta^2 + delta_c/gamma_c gamma^2) / 2 >= delta gamma,

where C (channel.curvature_bound) dominates |h''| everywhere, the AM-GM
bound is exact at the tangent slacks (delta_c, gamma_c) of c, and
log2(1 + h/sigma2) is linearized at gamma_c. Each bound only lowers the
objective, so the surrogate minorizes it and touches it at c.

For a fixed position the slacks then have closed-form optima (the rate term
takes the lower Taylor bound; the travel slack meets the distance and the
rate slack the linearized rate constraint under the upper bound). Each
convex subproblem therefore collapses to a one-dimensional concave search
over a trust window around c, solved by a scan plus golden polish. The
window always contains c itself, which makes the surrogate objective
sequence nondecreasing by construction. The surrogate is built once per
subproblem and the curvature constant once per optimize run. The scan
evaluates the surrogate on an array of positions; the golden polish
evaluates it on Python floats, with the same IEEE operations in the same
order, so both give identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, ee, search
from .params import SystemParams

DELTA_FLOOR_WAVELENGTHS = 1e-6   # keeps the AM-GM coefficients finite at zero travel
GAMMA_FLOOR = 1e-12              # bits/Hz floor for the rate-slack local point
TRUST_WINDOW_WAVELENGTHS = 0.25  # half-width of the subproblem search window
FEASIBILITY_SLACK = 1e-9         # absolute slack on the throughput constraint
OUTER_CAP = 100                  # Dinkelbach iterations per run
INNER_CAP = 50                   # SCA subproblems per Dinkelbach iteration
_SCAN_POINTS = 65


@dataclass
class SolverReport:
    """Outcome of one optimizer run.

    result is the true efficiency record (ee.efficiency_at) of the last
    accepted iterate, never read off a surrogate: the start, the restart, or
    the last outer iterate that passed the check. For an infeasible run it is
    the infeasible record at the rest position. trace rows are
    (iteration, x, alpha, surrogate objective), one per accepted iterate; alpha
    is the true efficiency of x.
    """

    result: ee.EEBreakdown
    iterations: int
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)
    status: str = "converged"  # converged | iteration-cap | infeasible
    power_assumption_violated: bool = False


def _build_surrogate(expansion: channel.GainExpansion, params: SystemParams,
                     center: float, alpha: float, curvature: float):
    """Eliminated surrogate objective of the subproblem at center, as a function of positions.

    curvature is channel.curvature_bound of the instance at the transmit
    power. With h = P_t * gain, value = h(c), slope = h'(c) and
    half = curvature / 2, the bounds are base -/+ half * dx^2 with
    base = value + slope * dx, dx = x - c. The tangent slacks are
    delta_c = max(|c - x0|, wavelength * DELTA_FLOOR_WAVELENGTHS) and
    gamma_c = max(log2(1 + max(value, 0)/sigma2), GAMMA_FLOOR), so the AM-GM
    coefficients (gamma_c/delta_c and delta_c/gamma_c, halved) stay finite.
    At a position x the slacks are

        beta  = max(base - half dx^2, 0)
        gamma = max(gamma_c + (base + half dx^2 - (level - sigma2)) / (level ln 2), 0)
        delta = |x - x0|,          level = sigma2 2^gamma_c,

    and the objective is net - alpha (P - P_t) delta / v with
    net = T log2(1 + beta/sigma2) - (coef_delta delta^2 + coef_gamma gamma^2) / v,
    or -inf where net misses the rate floor by more than FEASIBILITY_SLACK.

    The returned function takes a position or an array of positions. Its
    float form repeats the array form's operations in order (max, abs and a
    conditional for np.maximum, np.abs and np.where; the log stays np.log2,
    which math.log2 differs from in the last bit), so the two agree exactly.
    """
    x0, noise, speed = params.initial_position, params.noise_power, params.speed
    value = params.max_tx_power * channel.gain_eval(expansion, center)
    slope = channel.gain_derivative(expansion, params.max_tx_power, center)
    half = 0.5 * curvature
    delta_local = max(abs(center - x0), params.wavelength * DELTA_FLOOR_WAVELENGTHS)
    gamma_local = max(math.log2(1.0 + max(value, 0.0) / noise), GAMMA_FLOOR)
    coef_delta = 0.5 * (gamma_local / delta_local)
    coef_gamma = 0.5 * (delta_local / gamma_local)
    level = noise * 2.0 ** gamma_local
    level_offset, level_scale = level - noise, level * math.log(2.0)
    duration = params.block_duration
    power_gap = params.movement_power - params.max_tx_power
    floor = params.min_throughput - FEASIBILITY_SLACK

    def objective(xs):
        dx = xs - center
        base = value + slope * dx
        curve = half * dx * dx  # lower bound: base - curve, upper: base + curve
        if isinstance(xs, float):
            beta = max(base - curve, 0.0)
            gamma = max(gamma_local + (base + curve - level_offset) / level_scale, 0.0)
            delta = abs(xs - x0)
            rate_term = duration * float(np.log2(1.0 + beta / noise))
            product = coef_delta * delta * delta + coef_gamma * gamma * gamma
            net = rate_term - product / speed
            return net - delta / speed * alpha * power_gap if net >= floor else -math.inf
        beta = np.maximum(base - curve, 0.0)
        gamma = np.maximum(gamma_local + (base + curve - level_offset) / level_scale, 0.0)
        delta = np.abs(xs - x0)
        rate_term = duration * np.log2(1.0 + beta / noise)
        product = coef_delta * delta * delta + coef_gamma * gamma * gamma
        net = rate_term - product / speed
        return np.where(net >= floor, net - delta / speed * alpha * power_gap, -np.inf)

    return objective


def solve_subproblem(x: float, expansion: channel.GainExpansion, params: SystemParams,
                     alpha: float, curvature: float) -> tuple[float, float] | None:
    """Maximize the eliminated surrogate over the trust window around x.

    curvature is the instance's curvature bound (see _build_surrogate). The
    window is clipped to ee.reach_interval. The candidate set always
    contains x itself, so the accepted objective never drops below the
    tangency value. Returns the chosen position and its surrogate objective,
    or None when no position in the window satisfies the rate floor.
    """
    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    lo, hi = ee.reach_interval(params)
    lo, hi = max(x - half, lo), min(x + half, hi)
    xs = search.insert_sorted(np.linspace(lo, hi, _SCAN_POINTS), x)
    objective = _build_surrogate(expansion, params, x, alpha, curvature)
    best_x, best_val = search.grid_polish_max(
        objective, xs, objective(xs), tol=params.wavelength * ee.POLISH_TOL_WAVELENGTHS)
    if best_val == -math.inf:
        return None
    return best_x, best_val


def _best_feasible_position(expansion: channel.GainExpansion, params: SystemParams,
                            grid: ee.GainGrid | None) -> float | None:
    """Best-true-efficiency reachable position meeting the rate floor, or None.

    Exhaustive grid check; used to verify infeasibility before declaring it
    and to restart from a feasible point when the start violates the floor.
    """
    xs, gains = ee.grid_slice(expansion, params, *ee.reach_interval(params), grid)
    ee_vals, _, _, feasible = ee.efficiency_of_gains(xs, gains, params)
    if not np.any(feasible):
        return None
    masked = np.where(feasible, ee_vals, -np.inf)
    return float(xs[int(np.argmax(masked))])


def optimize(expansion: channel.GainExpansion, params: SystemParams, *,
             grid: ee.GainGrid | None = None) -> SolverReport:
    """Run the full Dinkelbach + SCA loop from the configured rest position.

    Each outer iteration runs the SCA inner loop at a fixed ratio estimate
    until the surrogate objective stalls, then refreshes the estimate with the
    true efficiency of the new iterate. The outer loop stops once the estimate
    moves by less than the configured tolerance. An iterate that would lower
    the estimate (possible only through the tiny slack floors), or that misses
    the true rate floor (the surrogate allows FEASIBILITY_SLACK), is rejected
    and treated as converged; this keeps the ratio sequence nondecreasing and
    every accepted iterate feasible. The report carries the efficiency record
    computed when the last iterate was accepted; nothing is evaluated again.

    A start position violating the rate floor triggers one verified restart
    from the best feasible position on grid, the instance's ee.GainGrid; if
    no reachable position meets the floor the status is "infeasible". When
    the movement power is below the transmit power the run is flagged: the
    travel slack then rewards movement inside the surrogate, a regime the
    bound analysis does not cover.
    """
    flagged = params.movement_power < params.max_tx_power

    result = ee.efficiency_at(expansion, params, params.initial_position)
    if not result.feasible:
        restart = _best_feasible_position(expansion, params, grid)
        if restart is None:
            return SolverReport(result=result, iterations=0, trace=[],
                                status="infeasible", power_assumption_violated=flagged)
        result = ee.efficiency_at(expansion, params, restart)

    x = result.x  # the ratio estimate alpha is result.ee throughout
    curvature = channel.curvature_bound(expansion, params.max_tx_power)
    objective = _build_surrogate(expansion, params, x, result.ee, curvature)(x)
    trace = [(0, x, result.ee, objective)]

    status = "iteration-cap"
    outer_used = 0
    for outer in range(1, OUTER_CAP + 1):
        outer_used = outer
        stalled = False
        inner_prev = -math.inf
        for _ in range(INNER_CAP):
            step = solve_subproblem(x, expansion, params, result.ee, curvature)
            if step is None:
                stalled = True
                break
            x, objective = step
            improvement = objective - inner_prev
            inner_prev = objective
            if improvement <= params.tolerance:
                break
        if stalled:
            status = "converged"
            break

        checked = ee.efficiency_at(expansion, params, x)
        if checked.ee < result.ee or not checked.feasible:
            # Slack artifact: keep the previous iterate and stop.
            status = "converged"
            break
        trace.append((outer, x, checked.ee, objective))
        finished = abs(checked.ee - result.ee) <= params.tolerance
        result = checked
        if finished:
            status = "converged"
            break

    return SolverReport(result=result, iterations=outer_used, trace=trace,
                        status=status, power_assumption_violated=flagged)
