"""Correctness checks on sweep results; every failed trial counts into fail_frac.

A trial fails when a scheme's efficiency is non-finite, a scheme beats the
efficiency ceiling, the proposed optimizer loses to a feasible fixed antenna,
or, where the grid oracle was run, the proposed optimizer is infeasible while
the oracle is not or beats the oracle by more than the oracle's resolution.
Sweeps that raise and CSV files that differ across worker counts fail every
trial they cover; the benchmark counts those itself.
"""

from __future__ import annotations

import math

CEILING_RTOL = 1e-9
FPA_RTOL = 1e-9
# Floor of the tolerance for the proposed optimizer beating the oracle. The
# oracle's golden polish stops at wavelength * 1e-6, so on a binding rate floor
# the proposed optimizer can land above it by as much as the efficiency changes
# over that distance (seen: 1.4e-6 relative at P = 5 W); the caller passes
# that change as the oracle's resolution.
ORACLE_RTOL = 1e-6


def trial_faults(record, oracle=None, oracle_resolution: float = 0.0) -> list[str]:
    """Reasons the trial's results are wrong; empty when it passes.

    oracle_resolution is the relative efficiency change over the oracle's
    position tolerance; beating the oracle by less is not a fault.
    """
    results = record.results
    faults = [f"{name}: ee {r.ee!r} not finite"
              for name, r in results.items() if not math.isfinite(r.ee)]
    if faults:
        return faults
    ceiling = results["upper_bound"].ee
    for name, r in results.items():
        if r.ee > ceiling * (1.0 + CEILING_RTOL):
            faults.append(f"{name}: ee {r.ee!r} above upper_bound {ceiling!r}")
    proposed, fpa = results["proposed"], results["fpa"]
    if fpa.feasible and proposed.ee < fpa.ee * (1.0 - FPA_RTOL):
        faults.append(f"proposed ee {proposed.ee!r} below feasible fpa {fpa.ee!r}")
    if oracle is not None:
        if not math.isfinite(oracle.ee):
            faults.append(f"oracle: ee {oracle.ee!r} not finite")
        elif oracle.feasible and not proposed.feasible:
            faults.append(f"proposed infeasible (throughput {proposed.throughput!r}) "
                          f"while the oracle is feasible (throughput {oracle.throughput!r})")
        elif (oracle.feasible and proposed.ee
              > oracle.ee * (1.0 + max(ORACLE_RTOL, oracle_resolution))):
            faults.append(f"proposed ee {proposed.ee!r} above oracle {oracle.ee!r}")
    return faults

