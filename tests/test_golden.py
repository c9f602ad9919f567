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

The proposed rows alone were regenerated when each SCA subproblem came to be
solved by derivative roots instead of a 65-point scan plus golden polish: the
solver reaches each subproblem's maximum to rounding rather than to the
polish tolerance, and no other scheme calls it. Their ee moved by at most
1.7e-9 relative on power, region, long_power and long_track, and by at most
2.4e-7 on tight_power, where the rate floor binds (the summed proposed ee
rose); no feasible flag changed, and slow_power stayed byte-identical.

The upper_bound, max_snr and max_throughput rows of all six sweeps were
regenerated when ee.grid_max came to polish its best lattice cells by a root
of the objective's closed-form slope (stopping at wavelength * 1e-12) instead
of a golden section (stopping at wavelength * 1e-6). The proposed and fpa
rows stayed byte-identical. upper_bound's ee stayed the same at printed
precision and its x moved by at most 1.7e-9 m; the std_ee of its aggregate
rows moved in the 12th digit on power, region, tight_power and slow_power.
max_snr's ee moved by at most 3.9e-7 relative (slow_power) and
max_throughput's by at most 4.5e-7 (long_power); both optimize the gain or
the rate, not the efficiency, so their ee moves either way. No feasible
flag changed.

The upper_bound and max_snr rows of power, region, tight_power and
slow_power were regenerated when channel.gain_and_slope came to read the
slope h' off a kept table jk conj(E) instead of scaling the steering row by
jk first, which rounds the slope differently in its last bits; the polish
roots of the gain search moved with it. Their x moved by at most 1e-14 m.
ee stayed the same at printed precision, except max_snr's on slow_power
(at most 1.5e-11 relative); max_snr's energy moved by at most 1.9e-12 and
its throughput by at most 1.2e-11 relative, and max_snr's aggregate std_ee
moved in the 12th digit on power, region and tight_power. The proposed,
fpa and max_throughput rows and long_power and long_track stayed
byte-identical, and no feasible flag changed.

The proposed rows alone were regenerated when the solver came to take each
subproblem root by safeguarded Newton steps on the surrogate's closed-form
second derivative (search.newton_max and newton_root) instead of Brent's
method. The roots moved within the root tolerance, wavelength * 1e-12, and
the solver can amplify last-bit changes (CHANGES.md records a 1e-14 change
in the gain that moved one region row's ee by 3.7e-3), so the tolerance
stated for this regeneration is 1e-10 relative on a proposed ee. Measured: 1 row moved
on power, 3 on region, 2 on tight_power, 1 on long_power and 1 on
long_track; ee stayed the same at printed precision, x moved by at most
1e-13 m and throughput and energy by at most 2e-12 relative. No feasible
flag changed, and slow_power and every aggregate.csv stayed byte-identical.
Over seeds 0-199 at P in {0.1, 0.5, 1, 2, 5} W on the default, R_TH = 10
and L = 30 on 16 wavelengths configs (3000 runs), the proposed ee moved by
at most 2.0e-12 relative, and no status, outer-iteration count or feasible
flag changed.
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


@pytest.mark.parametrize("workers", [1, 2, 3])
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
