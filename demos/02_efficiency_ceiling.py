"""Energy efficiency along the track and its analytic ceiling.

The block splits into a movement phase and a communication phase, so moving
toward a better channel costs both time and energy. The ceiling assumes the
antenna already rests at the best-gain position: no position can beat it,
and starting there attains it exactly.
"""

from dataclasses import replace

import numpy as np

from maee import (
    SystemParams,
    build_expansion,
    ee_upper_bound,
    efficiency_curve,
    energy_efficiency,
    gain_eval,
    sample_instance,
)

params = SystemParams()
expansion = build_expansion(sample_instance(params, np.random.default_rng(5)),
                            params.wavelength)

xs = np.linspace(0.0, params.region_length, 2001)
ee_vals, rates, energies, feasible = efficiency_curve(expansion, params, xs)
ceiling = ee_upper_bound(expansion, params)
bound, x_bar = ceiling.ee, ceiling.position

print(f"ceiling: {bound:.2f} (bits/Hz)/J at x = {x_bar / params.wavelength:.3f} wavelengths")
print(f"best efficiency on the grid: {np.max(ee_vals):.2f} "
      f"(gap to ceiling {100 * (1 - np.max(ee_vals) / bound):.2f}%)")
print(f"rest position efficiency:    {ee_vals[np.argmin(np.abs(xs - params.initial_position))]:.2f}")

print("\nwhy the grid stays below the ceiling: movement cost shows up in both")
print("the residual communication time and the energy bill.")
for x in (params.initial_position, x_bar, 0.0):
    b = energy_efficiency(float(x), max(gain_eval(expansion, float(x)), 0.0), params)
    print(f"  x={x / params.wavelength:5.2f} wl: move {b.move_time * 1e3:6.1f} ms, "
          f"rate {b.throughput:6.2f} bits/Hz, energy {b.energy * 1e3:6.2f} mJ, "
          f"ee {b.ee:7.2f}")

# Start the block at the best-gain position: both inequalities behind the
# ceiling become equalities, and the efficiency formula gives the ceiling itself.
recentered = replace(params, initial_position=x_bar)
attained = energy_efficiency(x_bar, max(gain_eval(expansion, x_bar), 0.0), recentered).ee
print(f"\nstarting at the peak attains the ceiling: {attained:.6f} vs {bound:.6f} "
      f"(rel diff {abs(attained - bound) / bound:.1e})")
