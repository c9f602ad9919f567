"""Antenna-position optimizer: Dinkelbach outer loop around an SCA inner loop.

The efficiency ratio is non-concave in the position because the gain is an
oscillatory cosine series. The ratio is first reduced to a parametric
difference through the Dinkelbach variable alpha. The remaining
non-convexities are handled per iteration with two surrogates built at the
current iterate: an AM-GM quadratic upper bound on the product of the
travel-distance and rate slacks, and quadratic Taylor bounds on the scaled
gain whose curvature constant dominates its second derivative everywhere.

For a fixed position the three slack variables then have closed-form optima
(the rate term grows with the gain slack so its Taylor cap binds; the
objective shrinks with the travel and rate slacks so the distance constraint
and the linearized rate constraint bind). Each convex subproblem therefore
collapses to a one-dimensional concave search over a trust window around the
current iterate, solved by a scan plus golden polish. The window always
contains the iterate itself, which makes the surrogate objective sequence
nondecreasing by construction. The surrogate is built once per subproblem:
its slack tangent points, AM-GM coefficients, rate-floor level and bound
coefficients are computed before the search, which only evaluates it. The
curvature constant of the Taylor bounds depends only on the instance, so it
is computed once per optimize run. The scan evaluates the surrogate on an
array of positions; the golden polish evaluates it on Python floats, with
the same IEEE operations in the same order, so both give identical values.
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
_UNIT_SLACKS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))  # (delta, gamma) axes


@dataclass
class SolverReport:
    """Outcome of one optimizer run.

    The reported efficiency is recomputed from scratch at the final position,
    never read off a surrogate. trace rows are
    (iteration, x, alpha, surrogate objective), one per outer iteration
    including the start; alpha is the true efficiency of x.
    """

    x: float
    ee: float
    iterations: int
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)
    status: str = "converged"  # converged | iteration-cap | infeasible
    power_assumption_violated: bool = False


def h_of_x(expansion: channel.GainExpansion, params: SystemParams, x) -> float | np.ndarray:
    """Transmit-power-scaled channel gain."""
    return params.max_tx_power * channel.gain_eval(expansion, x)


def bilinear_upper(delta, gamma, delta_local: float, gamma_local: float):
    """AM-GM quadratic upper bound on the product delta * gamma.

    Exact at the local point (delta_local, gamma_local) and convex in both
    arguments; every argument may be an array.
    """
    if np.any(np.asarray(delta_local) <= 0) or np.any(np.asarray(gamma_local) <= 0):
        raise ValueError("local points must be positive")
    return 0.5 * (gamma_local / delta_local * delta * delta
                  + delta_local / gamma_local * gamma * gamma)


@dataclass(frozen=True)
class QuadraticBound:
    """value + slope*(x - center) + half_curvature*(x - center)^2."""

    center: float
    value: float
    slope: float
    half_curvature: float

    def __call__(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        out = self.value + self.slope * dx + self.half_curvature * dx * dx
        return float(out) if out.ndim == 0 else out


def taylor_bounds(expansion: channel.GainExpansion, params: SystemParams,
                  x_local: float, curvature: float) -> tuple[QuadraticBound, QuadraticBound]:
    """Quadratic sandwich of the scaled gain around x_local.

    Both bounds share the value and slope at x_local; curvature is
    channel.curvature_bound of the instance at the transmit power, which
    dominates the true second derivative everywhere, so lower <= h <= upper
    holds on the whole region, merely loosening with distance from x_local.
    A zero constant (a single path's flat gain) makes both bounds exact.
    """
    tx = params.max_tx_power
    value = float(h_of_x(expansion, params, x_local))
    slope = float(channel.gain_derivative(expansion, tx, x_local))
    half = 0.5 * curvature
    return (QuadraticBound(x_local, value, slope, -half),
            QuadraticBound(x_local, value, slope, +half))


def _build_surrogate(bounds: tuple[QuadraticBound, QuadraticBound], params: SystemParams,
                     alpha: float):
    """Eliminated surrogate objective of one subproblem, as a function of positions.

    bounds is the (lower, upper) pair from taylor_bounds: one center, value
    and slope, opposite curvatures. Everything fixed for the subproblem is
    computed here once: the slack tangent points (the center's travel
    distance and rate, each floored so the AM-GM coefficients stay finite),
    the AM-GM coefficients, the rate-floor level and the bound coefficients.
    The returned function maps a position, or an array of positions, to the
    objective, -inf where the rate floor is unreachable. Its float form
    repeats the array form's operations in order (max, abs and a conditional
    for np.maximum, np.abs and np.where; the log stays np.log2, which
    math.log2 differs from in the last bit), so the two agree exactly.
    """
    lower, upper = bounds
    center, value, slope, half = lower.center, lower.value, lower.slope, upper.half_curvature
    x0, noise, speed = params.initial_position, params.noise_power, params.speed
    delta_local = max(abs(center - x0), params.wavelength * DELTA_FLOOR_WAVELENGTHS)
    gamma_local = max(math.log2(1.0 + max(value, 0.0) / noise), GAMMA_FLOOR)
    # The AM-GM bound is a diagonal quadratic form, so its values at the unit
    # slacks are its coefficients (halved; scaling by 0.5 is exact, so the sum
    # below equals bilinear_upper bit for bit). The call also rejects a
    # nonpositive tangent point.
    coef_delta, coef_gamma = bilinear_upper(*_UNIT_SLACKS, delta_local, gamma_local).tolist()
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

    curvature is the instance's curvature bound (see taylor_bounds). The
    candidate set always contains x itself, so the accepted objective never
    drops below the tangency value. Returns the chosen position and its
    surrogate objective, or None when no position in the window satisfies the
    rate floor.
    """
    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    reach = params.speed * params.block_duration
    lo = max(0.0, x - half, params.initial_position - reach)
    hi = min(params.region_length, x + half, params.initial_position + reach)
    xs = np.unique(np.append(np.linspace(lo, hi, _SCAN_POINTS), x))
    best_x, best_val = search.grid_polish_max(
        _build_surrogate(taylor_bounds(expansion, params, x, curvature), params, alpha),
        xs, tol=params.wavelength * 1e-6)
    if best_val == -math.inf:
        return None
    return best_x, best_val


def _best_feasible_position(expansion: channel.GainExpansion, params: SystemParams,
                            resolution: float | None = None) -> float | None:
    """Best-true-efficiency reachable position meeting the rate floor, or None.

    Exhaustive grid check; used to verify infeasibility before declaring it
    and to restart from a feasible point when the start violates the floor.
    """
    xs = ee.reachable_grid(params, resolution)
    ee_vals, _, _, feasible = ee.efficiency_curve(expansion, params, xs)
    if not np.any(feasible):
        return None
    masked = np.where(feasible, ee_vals, -np.inf)
    return float(xs[int(np.argmax(masked))])


def optimize(expansion: channel.GainExpansion, params: SystemParams, *,
             restart_resolution: float | None = None) -> SolverReport:
    """Run the full Dinkelbach + SCA loop from the configured rest position.

    Each outer iteration runs the SCA inner loop at a fixed ratio estimate
    until the surrogate objective stalls, then refreshes the estimate with the
    true efficiency of the new iterate. The outer loop stops once the estimate
    moves by less than the configured tolerance. An iterate that would lower
    the estimate (possible only through the tiny slack floors), or that misses
    the true rate floor (the surrogate allows FEASIBILITY_SLACK), is rejected
    and treated as converged; this keeps the ratio sequence nondecreasing and
    every accepted iterate feasible.

    A start position violating the rate floor triggers one verified grid
    restart from the best feasible position; if no reachable position meets
    the floor the status is "infeasible". When the movement power is below the
    transmit power the run is flagged: the travel slack then rewards movement
    inside the surrogate, a regime the bound analysis does not cover.
    """
    flagged = params.movement_power < params.max_tx_power

    start = ee.efficiency_at(expansion, params, params.initial_position)
    if not start.feasible:
        restart = _best_feasible_position(expansion, params, restart_resolution)
        if restart is None:
            return SolverReport(x=start.position, ee=start.ee, iterations=0, trace=[],
                                status="infeasible", power_assumption_violated=flagged)
        start = ee.efficiency_at(expansion, params, restart)

    x, alpha = start.position, start.ee
    curvature = channel.curvature_bound(expansion, params.max_tx_power)
    objective = _build_surrogate(taylor_bounds(expansion, params, x, curvature), params, alpha)(x)
    trace = [(0, x, alpha, objective)]

    status = "iteration-cap"
    outer_used = 0
    for outer in range(1, OUTER_CAP + 1):
        outer_used = outer
        stalled = False
        inner_prev = -math.inf
        for _ in range(INNER_CAP):
            step = solve_subproblem(x, expansion, params, alpha, curvature)
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
        new_alpha = checked.ee
        if new_alpha < alpha or not checked.feasible:
            # Slack artifact: revert to the previous iterate and stop.
            x = trace[-1][1]
            status = "converged"
            break
        trace.append((outer, x, new_alpha, objective))
        finished = abs(new_alpha - alpha) <= params.tolerance
        alpha = new_alpha
        if finished:
            status = "converged"
            break

    final = ee.efficiency_at(expansion, params, x)
    return SolverReport(x=x, ee=final.ee, iterations=outer_used, trace=trace,
                        status=status, power_assumption_violated=flagged)
