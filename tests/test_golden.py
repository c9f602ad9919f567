"""Sweep CSVs stay byte-identical to the committed golden files.

The files under tests/golden/<sweep> come from

    maee sweep --sweep <sweep> --trials 3 --seed 0 --out tests/golden/<sweep>

for sweep in power and region, and tight_power from

    maee sweep --sweep power --trials 3 --seed 0 \
        --config tests/golden/tight_power/params.cfg --out tests/golden/tight_power

(R_TH = 10 bits/Hz: the rest position misses the rate floor on every trial,
so the solver takes its grid restart on all 15 trial-values), and slow_power
from the same command with --config tests/golden/slow_power/params.cfg
--out tests/golden/slow_power (v = 0.0019 m/s: the reach v T = 0.0095 m is
under half the track, so max_snr searches its own reachable interval and
max_throughput a clipped grid), and long_power from the same command with
--config tests/golden/long_power/params.cfg --out tests/golden/long_power
(L = 30 paths on a 16-wavelength track: every trial reads an 8,002-point
gain lattice), and long_track from the same command with
--config tests/golden/long_track/params.cfg --out tests/golden/long_track
(a 1,000-wavelength track, where lattice and single-point gains carry the
phase rounding of positions up to 10 m). Rerun the command to regenerate a sweep's
files after a change that is meant to move the numbers.
"""

from pathlib import Path

import pytest

from maee.cli import _DEFAULT_SWEEP_VALUES
from maee.harness import SweepConfig, emit_csv, load_config, run_sweep
from maee.params import SystemParams

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_VARIABLE = {"power": "power", "region": "region", "tight_power": "power",
                  "slow_power": "power", "long_power": "power",
                  "long_track": "power"}


def first_difference(expected: str, actual: str) -> str:
    expected_lines, actual_lines = expected.splitlines(), actual.splitlines()
    for lineno, (want, got) in enumerate(zip(expected_lines, actual_lines), start=1):
        if want != got:
            return f"line {lineno}: expected {want!r}, got {got!r}"
    return f"line counts differ: expected {len(expected_lines)}, got {len(actual_lines)}"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sweep", list(SWEEP_VARIABLE))
def test_sweep_matches_golden_csv(sweep, workers, tmp_path):
    config = GOLDEN / sweep / "params.cfg"
    variable = SWEEP_VARIABLE[sweep]
    cfg = SweepConfig(base=load_config(config) if config.exists() else SystemParams(),
                      sweep_variable=variable, sweep_values=_DEFAULT_SWEEP_VALUES[variable],
                      trials=3, master_seed=0, workers=workers)
    records, aggregates = run_sweep(cfg)
    for path in emit_csv(records, aggregates, tmp_path):
        name = Path(path).name
        expected = (GOLDEN / sweep / name).read_bytes()
        actual = Path(path).read_bytes()
        assert actual == expected, \
            f"{sweep}/{name} {first_difference(expected.decode(), actual.decode())}"
