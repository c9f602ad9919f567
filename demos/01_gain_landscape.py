"""Tour of the field-response channel model.

Samples a random propagation environment, evaluates the channel power gain
directly as the squared norm of the channel vector, checks it against the
same gain written as a sum over path pairs of the Gram matrix E E^H, and
walks the antenna track to show how strongly the gain oscillates with
position.
"""

import numpy as np

from maee import (
    SystemParams,
    build_expansion,
    channel_vector,
    curvature_bound,
    gain_eval,
    gain_series,
    sample_instance,
)

params = SystemParams()
rng = np.random.default_rng(2)

instance = sample_instance(params, rng)
print(f"environment: {instance.num_paths} paths x {instance.num_antennas} antennas, "
      f"per-entry power {params.path_gain_variance:.3e}")

# Built once per environment: the conjugated response matrix and steering
# wavenumbers of the direct form. Nothing is stored per path pair.
expansion = build_expansion(instance, params.wavelength)
print(f"direct form: {expansion.num_paths} steering wavenumbers, "
      f"|E|_F^2 = {expansion.constant:.3e}")

xs = np.linspace(0.0, params.region_length, 2001)
gains = gain_eval(expansion, xs)
h_rest = channel_vector(instance, params.wavelength, params.initial_position)
print(f"|h|^2 at the rest position: {np.sum(np.abs(h_rest) ** 2):.6e} "
      f"(gain_eval: {gain_eval(expansion, params.initial_position):.6e})")
series = gain_series(expansion, xs)
err = np.max(np.abs(series - gains) / gains)
print(f"path-pair series vs direct evaluation, worst relative error: {err:.2e}")

print("\nposition (wavelengths) | gain / mean gain")
mean_gain = float(np.mean(gains))
for x in np.linspace(0.0, params.region_length, 11):
    bar = "#" * int(20 * gain_eval(expansion, float(x)) / mean_gain)
    print(f"  {x / params.wavelength:20.2f} | {bar}")

best = float(xs[np.argmax(gains)])
print(f"\nbest grid position: {best / params.wavelength:.3f} wavelengths, "
      f"gain {np.max(gains):.3e} vs {gain_eval(expansion, params.initial_position):.3e} "
      f"at the rest position")
print(f"curvature constant for the optimizer's quadratic bounds: "
      f"{curvature_bound(expansion, params.max_tx_power):.3e}")
