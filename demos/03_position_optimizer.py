"""The Dinkelbach + SCA position optimizer at work.

Each outer iteration refreshes the efficiency estimate (the Dinkelbach
ratio); the inner loop rebuilds convex surrogates around the current iterate
and solves a one-dimensional subproblem. The trace shows the estimate
climbing monotonically until it stalls. The exhaustive grid oracle gives the
true optimum for comparison.
"""

import numpy as np

from maee import (
    SystemParams,
    build_expansion,
    grid_global_ee,
    optimize,
    sample_instance,
    scheme_fpa,
    scheme_max_snr,
)

params = SystemParams()

for seed in (7, 21):
    expansion = build_expansion(sample_instance(params, np.random.default_rng(seed)),
                                params.wavelength)
    report = optimize(expansion, params)
    oracle = grid_global_ee(expansion, params)
    fpa = scheme_fpa(expansion, params)
    max_snr = scheme_max_snr(expansion, params)

    print(f"--- instance {seed} ---")
    print("iter |     x (wl) |    ratio est. | surrogate objective")
    for iteration, x, alpha, objective in report.trace:
        print(f"{iteration:4d} | {x / params.wavelength:10.4f} | {alpha:13.4f} | {objective:12.4f}")
    print(f"status={report.status} after {report.iterations} outer iterations")
    print(f"optimized ee {report.ee:8.2f} at x={report.x / params.wavelength:.4f} wl")
    print(f"oracle    ee {oracle.ee:8.2f} at x={oracle.x / params.wavelength:.4f} wl "
          f"(solver reaches {100 * report.ee / oracle.ee:.2f}%)")
    print(f"baselines: fixed antenna {fpa.ee:.2f}, move-to-best-gain {max_snr.ee:.2f}")
    print()

print("The optimizer is a local method: it never falls below the fixed-antenna")
print("baseline, never exceeds the oracle, and usually matches it.")
