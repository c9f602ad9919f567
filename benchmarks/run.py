"""maee benchmark launcher.

    python3 benchmarks/run.py --workload power --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Pins BLAS/OpenMP threads to 1 before numpy
is imported, imports maee from the checkout's ``src`` (never from an installed
copy), measures one workload and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Outputs (CSVs, spans, result.json) go under ``.bench_out/`` in the checkout.
Workloads and seeds are described in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin threads and put the checkout's src first on sys.path.

    Returns False when the checkout holds no maee source to build from.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "maee" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: no maee source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    measure.run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
