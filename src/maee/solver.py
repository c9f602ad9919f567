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
convex subproblem therefore collapses to a one-dimensional search over a
trust window around c, solved directly. On either side of the rest position
x0 the travel slack is linear in x, so the eliminated objective is concave
on every interval where the clipped lower Taylor bound beta (see
_build_surrogate) stays positive or stays 0: the rate term is a
log of a concave quadratic, the AM-GM terms are minus squares of a linear
function and of a clipped convex quadratic, and the movement term is linear
in the travel slack, whatever the sign of P - P_t. The window is cut at x0
and at the roots of beta into at most four such pieces, and each piece's
maximizer is an end or a root of the closed-form derivative. The surrogate
gives its second derivative in closed form too, so every root is taken by
safeguarded Newton steps (search.newton_max), from the center on the piece
that holds it and from the end nearest the center on the others; the far
end is read only when a step would leave the piece. The rate floor
cuts each piece to one interval, because the objective without its movement
term is concave there too; its ends are roots as well (search.newton_root,
which returns a point on the floor's feasible side), placed FEASIBILITY_SLACK
above the floor so the true rate there passes. The candidates always
include c itself, which makes the surrogate objective sequence nondecreasing
by construction. optimize reads the gain and slope of each iterate once, off
one steering row (channel.gain_and_slope), and takes both the iterate's true
efficiency and the next surrogate from them; the start, the rest position, is
read once per instance (channel.kept_gain_and_slope). The curvature constant
is computed once per instance and kept on it (GainExpansion.curvature); the
reach interval and the root tolerance once per run. An inner loop whose
subproblem returns its own center ends there, since the surrogate rebuilt at
that point would be the one just solved. The surrogate's functions run once
per Newton step, so they clamp by comparison, not by max. The subproblem
takes the objective from the net it has read (the surrogate carries drift and
floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import channel, ee, search
from .params import SystemParams

DELTA_FLOOR_WAVELENGTHS = 1e-6   # keeps the AM-GM coefficients finite at zero travel
GAMMA_FLOOR = 1e-12              # bits/Hz floor for the rate-slack local point
TRUST_WINDOW_WAVELENGTHS = 0.25  # half-width of the subproblem search window
FEASIBILITY_SLACK = 1e-9         # bits/Hz of slack on the rate floor (see solve_subproblem)
OUTER_CAP = 100                  # Dinkelbach iterations per run
INNER_CAP = 50                   # SCA subproblems per Dinkelbach iteration
_LN2 = math.log(2.0)


@dataclass
class SolverReport:
    """Outcome of one optimizer run.

    result is the true efficiency record (ee.energy_efficiency at the gain
    there) of the last accepted iterate, never read off a surrogate: the
    start, the restart, or the last outer iterate that passed the check. For
    an infeasible run it is the infeasible record at the rest position. trace
    rows are (iteration, x, alpha, surrogate objective), one per accepted
    iterate; alpha is the true efficiency of x.
    """

    result: ee.EEBreakdown
    iterations: int
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)
    status: str = "converged"  # converged | iteration-cap | infeasible
    power_assumption_violated: bool = False


class _Surrogate:
    """The eliminated surrogate of the subproblem at center (see _build_surrogate).

    rate_span is where beta > 0, (inf, -inf) when nowhere; net is the
    subproblem objective without its movement term, and objective(x) is
    net(x) - |x - x0| drift, -inf where net misses floor; derivative(side,
    rate) gives the slope and second derivative of either.
    """

    __slots__ = ("center", "rate_span", "net", "derivative", "x0", "drift", "floor")

    def __init__(self, center: float, rate_span: tuple[float, float], net: Callable,
                 derivative: Callable, x0: float, drift: float, floor: float):
        self.center, self.rate_span, self.net, self.derivative = center, rate_span, net, derivative
        self.x0, self.drift, self.floor = x0, drift, floor

    def objective(self, x: float) -> float:
        total = self.net(x)
        return total - abs(x - self.x0) * self.drift if total >= self.floor else -math.inf


def _build_surrogate(params: SystemParams, center: float, gain: float, gain_slope: float,
                     alpha: float, curvature: float) -> _Surrogate:
    """Eliminated surrogate of the subproblem at center, from the gain and its slope there.

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

    derivative(side, rate) is x -> (d objective/dx, d^2 objective/dx^2) on
    one side of x0 (side +1 to the right, -1 to the left; 0 gives net's), on
    a piece where beta > 0 (rate true: with the rate term's derivatives,
    beta clipped at 0 at the piece's ends) or where beta = 0 (rate false:
    without them). The second derivative is the same on both sides, since
    the movement term is linear. The first derivative's other terms are
    continuous: gamma^2 has the derivative 2 gamma gamma' on both sides of
    gamma = 0; the second derivative drops gamma's terms where gamma is
    clipped.
    """
    x0, noise, speed = params.initial_position, params.noise_power, params.speed
    value, slope = params.max_tx_power * gain, params.max_tx_power * gain_slope
    half = 0.5 * curvature
    delta_local = max(abs(center - x0), params.wavelength * DELTA_FLOOR_WAVELENGTHS)
    gamma_local = max(math.log2(1.0 + value / noise), GAMMA_FLOOR)
    coef_delta = 0.5 * (gamma_local / delta_local)
    coef_gamma = 0.5 * (delta_local / gamma_local)
    level = noise * 2.0 ** gamma_local
    level_offset, level_scale = level - noise, level * _LN2
    duration = params.block_duration
    drift = alpha * (params.movement_power - params.max_tx_power) / speed
    floor = params.min_throughput - FEASIBILITY_SLACK
    rate_scale = duration / _LN2
    pull, push = 2.0 * coef_delta / speed, 2.0 * coef_gamma / (level_scale * speed)
    neg_pull, log2 = -pull, math.log2

    def net(x):
        dx = x - center
        base = value + slope * dx
        curve = half * dx * dx  # lower bound: base - curve, upper: base + curve
        beta = 0.0 if base < curve else base - curve  # max(base - curve, 0.0), bit for bit
        gamma = gamma_local + (base + curve - level_offset) / level_scale
        gamma = 0.0 if gamma < 0.0 else gamma  # max(gamma, 0.0), -0.0 and NaN included
        delta = x - x0
        product = coef_delta * delta * delta + coef_gamma * gamma * gamma
        return duration * log2(1.0 + beta / noise) - product / speed

    def derivative(side, rate):
        shift = side * drift

        def slope_at(x):
            dx = x - center
            base = value + slope * dx
            curve = half * dx * dx
            rising = slope + curvature * dx  # d(base + curve)/dx
            gamma = gamma_local + (base + curve - level_offset) / level_scale
            if gamma < 0.0:  # gamma clipped at 0: its terms vanish
                out, second = neg_pull * (x - x0) - shift, neg_pull
            else:
                out = neg_pull * (x - x0) - push * gamma * rising - shift
                second = neg_pull - push * (rising * rising / level_scale + gamma * curvature)
            if rate:
                falling = slope - curvature * dx  # d(base - curve)/dx
                if base < curve:  # beta clipped at 0, at a piece's end only
                    out += rate_scale * falling / noise
                    second -= rate_scale * curvature / noise
                else:
                    power = noise + (base - curve)  # noise + beta
                    out += rate_scale * falling / power
                    second -= rate_scale * (curvature + falling * falling / power) / power
            return out, second

        return slope_at

    # rate_span: where value + slope u - half u^2 > 0, u = x - c (value, half >= 0)
    q = 0.5 * (slope + math.copysign(math.sqrt(slope * slope + 4.0 * half * value), slope))
    if q == 0.0:  # slope = 0 and half * value = 0: the sign of value everywhere
        lo, hi = (-math.inf, math.inf) if value > 0.0 else (math.inf, -math.inf)
    else:
        near, far = -value / q, q / half if half > 0.0 else math.copysign(math.inf, q)
        lo, hi = (near, far) if near < far else (far, near) if far < near else (near, near)
    return _Surrogate(center, (center + lo, center + hi), net, derivative, x0, drift, floor)


def _piece_max(s: _Surrogate, a: float, b: float, side: float, rate: bool, target: float,
               tol: float) -> tuple[float, float]:
    """Best (x, objective) on a piece [a, b] of the window where s is concave,
    among the positions whose net reaches target.

    The piece's maximizer is an end or a root of the derivative, searched
    from the center or the piece's end nearest it. When its net falls short
    of target, the best position that reaches it is the end of
    {net >= target} on the maximizer's side (net is concave on the piece
    too, so that set is one interval): a root of net - target with net's
    slope as its derivative, bracketed by the maximizer and an anchor that
    reaches target, and returned where net >= target. The anchor is the
    center when it lies in the piece and reaches target, otherwise net's own
    maximizer; when that falls short too, the piece's value is -inf.
    """
    start = a if a > s.center else s.center  # min(max(center, a), b): the center,
    start = b if b < start else start        # or the piece's end nearest it
    x = search.newton_max(s.derivative(side, rate), a, b, start, tol)
    total = s.net(x)
    if total - target >= 0.0:  # s.objective(x), off the net just read: net >= target >= floor
        return x, total - abs(x - s.x0) * s.drift
    net_slope = s.derivative(0.0, rate)

    def excess_and_slope(t):
        return s.net(t) - target, net_slope(t)[0]

    anchor = s.center
    at_anchor = s.net(anchor) - target if a <= anchor <= b else -math.inf
    if not at_anchor >= 0.0:
        anchor = search.newton_max(net_slope, a, b, start, tol)
        at_anchor = s.net(anchor) - target
        if at_anchor < 0.0:
            return anchor, -math.inf
    x = search.newton_root(excess_and_slope, anchor, at_anchor, x, total - target, tol)
    return x, s.objective(x)


def solve_subproblem(surrogate: _Surrogate, params: SystemParams, reach: tuple[float, float],
                     tol: float) -> tuple[float, float] | None:
    """Maximize the eliminated surrogate over the trust window around its center.

    reach is ee.reach_interval(params) and tol the root tolerance, wavelength
    * ee.ROOT_TOL_WAVELENGTHS; both are fixed for a run. The window is clipped
    to reach and cut at the rest position and at the ends of
    surrogate.rate_span inside it into pieces on which the surrogate is
    concave (_piece_max), one piece when no cut lies inside. A new position
    must clear the rate floor by FEASIBILITY_SLACK: the surrogate's own floor
    lies that much below it, so that the center, whose net equals its true
    rate up to rounding, stays admissible, and the margin above keeps a
    position found on the floor's boundary from failing optimize's true-rate
    check by rounding. Where beta = 0, net <= 0, so such a piece is skipped
    when that target is positive. The candidates always include the center
    itself, so the accepted objective never drops below the tangency value,
    and equal values resolve to the smaller position. Returns the chosen
    position and its surrogate objective, or None when no position in the
    window meets the rate floor.
    """
    center, x0 = surrogate.center, surrogate.x0
    half = TRUST_WINDOW_WAVELENGTHS * params.wavelength
    lo, hi = center - half, center + half  # clipped: max(lo, reach[0]), min(hi, reach[1])
    lo, hi = reach[0] if reach[0] > lo else lo, reach[1] if reach[1] < hi else hi
    span_lo, span_hi = surrogate.rate_span
    cuts = sorted({lo, hi, *(t for t in (x0, span_lo, span_hi) if lo < t < hi)})
    target = params.min_throughput + FEASIBILITY_SLACK
    best_x, best = center, surrogate.objective(center)
    for a, b in zip(cuts, cuts[1:]):
        rate = span_lo < 0.5 * (a + b) < span_hi
        if not rate and target > 0.0:
            continue
        x, value = _piece_max(surrogate, a, b, 1.0 if a >= x0 else -1.0, rate, target, tol)
        if value > best or (value == best and x < best_x):
            best_x, best = x, value
    return None if best == -math.inf else (best_x, best)


def optimize(expansion: channel.GainExpansion, params: SystemParams) -> SolverReport:
    """Run the full Dinkelbach + SCA loop from the configured rest position.

    Each outer iteration runs the SCA inner loop at a fixed ratio estimate
    until the surrogate objective improves by no more than the tolerance, or
    a subproblem returns its own center (its surrogate, rebuilt there, would
    be the same and return the same step), then refreshes the estimate with
    the true efficiency of the new iterate. The run converges once the
    estimate moves by less than the configured tolerance, or when a
    subproblem finds no position on the rate floor. An iterate that would
    lower the estimate (possible only through the tiny slack floors), or that
    misses the true rate floor (the surrogate allows FEASIBILITY_SLACK), is
    rejected and treated as converged; this keeps the ratio sequence
    nondecreasing and every accepted iterate feasible. A run that has not
    converged after OUTER_CAP outer iterations ends with status
    "iteration-cap"; iterations counts the outer iterations run. Each
    iterate's channel is read once: its gain and slope give both its
    efficiency record and the next surrogate. The report carries the record
    computed when the last iterate was accepted; nothing is evaluated again.
    The curvature constant is the instance's, computed by its first run and
    kept on the expansion (GainExpansion.curvature).

    A start position violating the rate floor triggers one verified restart
    from the best feasible point of ee.grid_scan of ee.FEASIBLE_EFFICIENCY
    over the reach, unpolished: run_trial never runs the oracle, and starting
    at its polished answer moved the tight_power rows by up to 1.5e-7 of the
    efficiency. If no reachable position meets the floor the status is
    "infeasible". When the movement power is below the transmit power the
    run is flagged: the travel slack then rewards movement inside the
    surrogate, a regime the bound analysis does not cover.
    """
    flagged = params.movement_power < params.max_tx_power

    x = params.initial_position
    gain, slope, _ = channel.kept_gain_and_slope(expansion, x)
    result = ee.energy_efficiency(x, gain, params)
    if not result.feasible:
        xs, values, i = ee.grid_scan(expansion, params, *ee.reach_interval(params),
                                     ee.FEASIBLE_EFFICIENCY)
        if values[i] == -math.inf:
            return SolverReport(result=result, iterations=0, trace=[],
                                status="infeasible", power_assumption_violated=flagged)
        x = float(xs[i])
        gain, slope = channel.gain_and_slope(expansion, x)
        result = ee.energy_efficiency(x, gain, params)

    # the ratio estimate alpha is result.ee throughout
    curvature = params.max_tx_power * expansion.curvature
    reach, tol = ee.reach_interval(params), params.wavelength * ee.ROOT_TOL_WAVELENGTHS
    build, solve, read = _build_surrogate, solve_subproblem, channel.gain_and_slope
    efficiency, tolerance = ee.energy_efficiency, params.tolerance
    surrogate = build(params, x, gain, slope, result.ee, curvature)
    trace = [(0, x, result.ee, surrogate.objective(x))]

    status = "converged"
    for outer in range(1, OUTER_CAP + 1):
        inner_prev = -math.inf
        for _ in range(INNER_CAP):
            step = solve(surrogate, params, reach, tol)
            if step is None:
                break
            x, objective = step
            if x == surrogate.center:
                # Rebuilt here, the surrogate would be this one (same center, gain,
                # slope, alpha and curvature): the same step again, improvement 0.
                break
            gain, slope = read(expansion, x)
            improvement = objective - inner_prev
            inner_prev = objective
            if improvement <= tolerance:
                break
            surrogate = build(params, x, gain, slope, result.ee, curvature)
        if step is None:
            break
        checked = efficiency(x, gain, params)
        if checked.ee < result.ee or not checked.feasible:
            break  # slack artifact: keep the previous iterate and stop
        trace.append((outer, x, checked.ee, objective))
        finished = abs(checked.ee - result.ee) <= tolerance
        result = checked
        if finished:
            break
        surrogate = build(params, x, gain, slope, result.ee, curvature)
    else:
        status = "iteration-cap"

    return SolverReport(result=result, iterations=outer, trace=trace,
                        status=status, power_assumption_violated=flagged)
