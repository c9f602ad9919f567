"""Time one set-up in this fresh interpreter and print it in seconds.

Set-up is: import maee, parse the workload's config text and build its
SweepConfig. Usage: python3 benchmarks/setup_probe.py <workload> <seed>
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import maee  # noqa: E402,F401
import workloads  # noqa: E402

workloads.sweep_config(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0)
print(repr(time.perf_counter() - _started))
