"""Benchmark workloads: generated `key = value` config text plus a SweepConfig.

Every workload is built from the seed alone. The program under test only ever
sees the config text (through ``harness.parse_config_text``) and the
``SweepConfig`` made from it; the seed reaches it as the sweep's master seed.
A run is a series of repetitions ("reps"); rep k uses master seed
``mix_seed(seed, k)``, so the same seed always gives the same instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_text: str
    sweep_variable: str
    sweep_values: tuple[float, ...]
    workers: int
    rep_instances: int     # instances (trials per sweep value) in one timed rep
    quality_reps: int      # leading reps checked against the oracle; the least reps run
    trace_instances: int   # instances in the fixed-size traced sweep
    setup_probes: int = 7  # fresh interpreters timed for setup_s

    def tiny(self) -> "Workload":
        """The same workload at the smallest size that exercises every path."""
        return replace(self, rep_instances=2, quality_reps=1, trace_instances=2,
                       setup_probes=1)


_DEFAULT = """\
# Reference scenario: L = 10 paths, N = 16 antennas, A = 2 lambda, R_TH = 5.
lambda = 0.01 m
A      = 0.02 m
N      = 16
L      = 10
R_TH   = 5 bits/Hz
"""

_POWERS = (0.1, 0.5, 1.0, 2.0, 5.0)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="power",
        why="paper's movement-power sweep at default params; solver-bound "
            "(golden polish of the SCA surrogate dominates)",
        config_text=_DEFAULT,
        sweep_variable="power", sweep_values=_POWERS, workers=1,
        rep_instances=8, quality_reps=24, trace_instances=40,
    ),
    Workload(
        name="wide_region",
        why="L = 30 over 4-16 wavelength regions; grid-bound "
            "(series gain evaluation on long grids dominates)",
        config_text=_DEFAULT.replace("L      = 10", "L      = 30"),
        sweep_variable="region", sweep_values=(4.0, 8.0, 16.0), workers=1,
        rep_instances=1, quality_reps=30, trace_instances=16,
    ),
    Workload(
        name="tight_floor",
        why="power sweep with R_TH = 10; most starts violate the rate floor "
            "and take the verified grid restart, some trials are infeasible",
        config_text=_DEFAULT.replace("R_TH   = 5", "R_TH   = 10"),
        sweep_variable="power", sweep_values=_POWERS, workers=1,
        rep_instances=8, quality_reps=24, trace_instances=40,
    ),
    Workload(
        name="power_w2",
        why="same inputs as power on a 2-worker process pool; the only "
            "workload that exercises the harness pool",
        config_text=_DEFAULT,
        sweep_variable="power", sweep_values=_POWERS, workers=2,
        rep_instances=32, quality_reps=6, trace_instances=40,
    ),
)}


def sweep_config(workload: Workload, seed: int, rep: int, *, instances: int | None = None,
                 workers: int | None = None):
    """SweepConfig of one rep: parsed config text, master seed mix_seed(seed, rep)."""
    from maee import harness

    return harness.SweepConfig(
        base=harness.parse_config_text(workload.config_text),
        sweep_variable=workload.sweep_variable,
        sweep_values=workload.sweep_values,
        trials=workload.rep_instances if instances is None else instances,
        master_seed=harness.mix_seed(seed, rep),
        workers=workload.workers if workers is None else workers,
    )
