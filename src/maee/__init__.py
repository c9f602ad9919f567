"""Energy-efficiency modeling and position optimization for a movable antenna.

The package covers the full pipeline: random field-response channel instances,
the channel gain in direct form with its derivatives, curvature bound and
reference series, the block-level rate/energy/efficiency model with its
analytic ceiling, a Dinkelbach + SCA position optimizer, benchmark schemes with
a grid-search oracle, and a seeded Monte-Carlo sweep harness with CSV output.

The top level re-exports the names of the library quick start and the demos;
everything else is imported from its submodule (maee.params, maee.channel,
maee.ee, maee.search, maee.solver, maee.bench, maee.invariants, maee.harness,
maee.cli).
"""

from .bench import grid_global_ee, scheme_fpa, scheme_max_snr
from .channel import (build_expansion, channel_vector, curvature_bound, gain_eval, gain_series,
                      sample_instance)
from .ee import ee_upper_bound, efficiency_curve, energy_efficiency
from .harness import SweepConfig, emit_csv, run_sweep
from .params import SystemParams
from .solver import optimize

__version__ = "0.1.0"
