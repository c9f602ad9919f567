import contextlib
import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maee import channel, cli, ee, harness, invariants, solver
from maee.cli import build_parser, cli_main
from maee.harness import parse_config_text
from maee.params import (MAX_BS_ANTENNAS, MAX_PATHS, MAX_REGION_WAVELENGTHS, MAX_RESPONSE_ENTRIES,
                         SystemParams)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text):
    """The path, as a string, of a config file holding text."""
    config = tmp_path / "params.cfg"
    config.write_text(text)
    return str(config)


def assert_one_error(code, out, err, message=""):
    """Exit 2 with nothing on stdout and one error line, holding message, on stderr."""
    assert code == 2 and out == "", (out, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_solve_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "solve", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "solve", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "scheme=proposed" in out1
    assert "scheme=fpa" in out1


def test_solve_different_seeds_differ(capsys):
    _, out1, _ = run_cli(capsys, "solve", "--seed", "7")
    _, out2, _ = run_cli(capsys, "solve", "--seed", "8")
    assert out1 != out2


def test_solve_trace_flag(capsys):
    code, out, _ = run_cli(capsys, "solve", "--seed", "3", "--trace")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("trace: ")]
    assert rows[0] == "trace: iteration,x,alpha,objective"
    assert len(rows) >= 2
    assert all(len(row.split(",")) == 4 for row in rows)


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--seed", "3")
    assert code == 0
    assert out.splitlines()[1].startswith("scheme=oracle")


def test_sweep_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "region", "--values", "0.5,1", "--trials", "2",
        "--seed", "1", "--out", str(out_dir))
    assert code == 0
    raw = out_dir / "raw.csv"
    agg = out_dir / "aggregate.csv"
    assert raw.exists() and agg.exists()
    with open(raw) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 2 * 5  # values x trials x all five schemes
    assert {r["scheme"] for r in rows} == {
        "proposed", "upper_bound", "max_throughput", "max_snr", "fpa"}


@pytest.mark.parametrize("argv, instances", [(("solve", "--seed", "3"), 1),
                                              (("check", "--trials", "2"), 2)],
                         ids=["solve", "check"])
def test_one_gain_grid_per_instance(argv, instances, gain_reads, capsys):
    """Each instance builds one gain lattice, and every search reads slices of
    it: solve evaluates the gain at no more than the three positions a slice
    adds. check also evaluates it on its own samples: its 1001 positions and
    the lattice points nearest them for the closed-form row, five
    finite-difference stencils of those positions, and the positions again
    for the ceiling row. A second run in the same process reads no lattice
    kept from the first and prints the same."""
    _, expected, _ = run_cli(capsys, *argv)
    gain_reads.lattices.clear()
    gain_reads.evals.clear()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    lattice = int(SystemParams().region_length / (SystemParams().wavelength / 500)) + 2
    assert gain_reads.lattices == [lattice] * instances
    samples = [1001] * 8 if argv[0] == "check" else []
    assert [size for size in gain_reads.evals if size > 3] == samples * instances


def test_check_fails_a_lattice_off_by_a_millionth(monkeypatch, capsys):
    """The closed-form row compares the gain lattice with gain_eval as well as
    the series: a lattice 1e-6 x constant off fails that row."""
    original = channel.gain_lattice

    def shifted(expansion, spacing, count):
        return original(expansion, spacing, count) + 1e-6 * expansion.constant

    monkeypatch.setattr(channel, "gain_lattice", shifted)
    code, out, _ = run_cli(capsys, "check", "--trials", "1")
    assert code == 1
    assert "FAIL trial=0 closed-form equivalence" in out


def test_check_reads_the_slope_production_reads(monkeypatch):
    """The derivative row checks channel.gain_and_slope, the one read of the
    slope the solver and the grid polish make: scaled by 1.01, it fails."""
    original = channel.gain_and_slope

    def scaled(expansion, x):
        gain, slope = original(expansion, x)
        return gain, 1.01 * slope

    monkeypatch.setattr(channel, "gain_and_slope", scaled)
    assert dict(cli._check_instance(SystemParams(), 0))["derivative consistency"] > 1.0


def test_check_computes_the_curvature_bound_once(monkeypatch):
    """The curvature row and the solver read the one bound kept on the
    instance (GainExpansion.curvature), which costs L^2 N to compute."""
    calls = []
    original = channel.curvature_bound

    def counted(expansion):
        calls.append(expansion)
        return original(expansion)

    monkeypatch.setattr(channel, "curvature_bound", counted)
    assert all(margin <= 1.0 for _, margin in cli._check_instance(SystemParams(), 0))
    assert len(calls) == 1


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", "--trials", "1")
    *rows, last = out.splitlines()
    assert code == 0 and last == "all checks passed"
    for row, (name, _) in zip(rows, invariants.BATTERY, strict=True):
        assert re.fullmatch(rf"ok trial=0 {name} margin=\S+", row)


@pytest.mark.parametrize("text, fault", [
    # at P_t = 1e9 W the efficiency is ~4e-8, so 0.98x of it falls only ~1e-9
    # short of the fixed antenna: a bound relative to the efficiency catches it
    ("P_t = 1e9 W\n", lambda report: replace(
        report, result=replace(report.result, ee=0.98 * report.result.ee))),
    # infeasible, while the grid oracle meets the rate floor
    ("", lambda report: replace(report, status="infeasible", trace=[])),
], ids=["short-at-high-power", "false-infeasible"])
def test_check_fails_a_faulty_optimizer(text, fault, tmp_path, monkeypatch, capsys):
    original = solver.optimize
    monkeypatch.setattr(solver, "optimize",
                        lambda expansion, params: fault(original(expansion, params)))
    code, out, _ = run_cli(capsys, "check", "--trials", "1", "--config",
                           write_config(tmp_path, text))
    assert code == 1
    assert "FAIL trial=0 solver bracketing" in out


def test_check_passes_within_oracle_resolution(tmp_path, capsys):
    # R_TH = 10 bits/Hz, P = 5 W, seed 9: the solver lands ~1e-6 relative above
    # the grid oracle, within the oracle's resolution (bench.oracle_slack)
    config = write_config(tmp_path, "R_TH = 10 bits/Hz\nP = 5 W\n")
    code, out, err = run_cli(capsys, "check", "--trials", "1", "--seed", "9",
                             "--config", config)
    assert code == 0, out + err
    assert "ok trial=0 solver bracketing" in out


def test_solve_status_flags_movement_power_below_transmit_power(tmp_path, capsys):
    config = write_config(tmp_path, "P = 0.001 W\n")  # below P_t = 10 dBm = 0.01 W
    code, out, err = run_cli(capsys, "solve", "--seed", "5", "--config", config)
    assert code == 0, err
    assert "flagged=1" in next(line for line in out.splitlines() if line.startswith("status="))
    _, out, _ = run_cli(capsys, "solve", "--seed", "5")
    assert "flagged=0" in next(line for line in out.splitlines() if line.startswith("status="))


def test_missing_config_keys_fall_back_to_defaults(tmp_path, capsys):
    config = write_config(tmp_path, "T = 5.0\nR_TH = 5.0\n")  # explicit defaults only
    _, out_with, _ = run_cli(capsys, "solve", "--seed", "5", "--config", config)
    _, out_without, _ = run_cli(capsys, "solve", "--seed", "5")
    assert out_with == out_without


def test_config_accepts_dbm(tmp_path, capsys):
    config = write_config(tmp_path, "P_t = 10 dBm\nsigma2 = -70 dBm\nrho_0 = -40 dB\n")
    _, out_with, _ = run_cli(capsys, "solve", "--seed", "5", "--config", config)
    _, out_without, _ = run_cli(capsys, "solve", "--seed", "5")
    assert out_with == out_without


def test_unknown_flag_exits_2(capsys):
    for flag in (["--definitely-not-a-flag"], ["--resolution", "2e-5"]):
        code, _, err = run_cli(capsys, "solve", *flag)
        assert code == 2
        assert "usage" in err.lower()


@pytest.mark.parametrize("command", ["solve", "oracle", "check", "sweep"])
def test_negative_seed_exits_2_at_the_parser(command, tmp_path, capsys):
    """Every command rejects a negative --seed, naming the flag, before it
    draws or writes anything: numpy's generators take none."""
    out_dir = tmp_path / "out"
    extra = ("--sweep", "power", "--out", str(out_dir)) if command == "sweep" else ()
    code, out, err = run_cli(capsys, command, *extra, "--seed", "-3")
    assert code == 2 and out == ""
    assert "error: argument --seed: must be a non-negative integer, got '-3'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", ["", "1,a", "0.1,,2"])
def test_bad_sweep_values_exit_2_at_the_parser(values, tmp_path, capsys):
    """An empty or non-numeric --values list is a usage error naming the flag,
    not a silent run of the default values."""
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "sweep", "--sweep", "power", "--values", values,
                             "--out", str(out_dir))
    assert code == 2 and out == ""
    assert f"error: argument --values: must be comma-separated numbers, got {values!r}" in err
    assert not out_dir.exists()


def test_sweep_values_parse_to_floats():
    args = build_parser().parse_args(["sweep", "--sweep", "power", "--values", "0.5, 2,1e1"])
    assert args.values == (0.5, 2.0, 10.0)


def test_undecodable_config_names_the_file(tmp_path, capsys):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"\xffA = 0.02 m\n")
    code, out, err = run_cli(capsys, "solve", "--config", str(config))
    assert_one_error(code, out, err)
    assert err.startswith(f"error: {config}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("line", ["A = 0.02 s", "T = 5 m/s", "P = 0.5 m", "N = 16 W",
                                  "lambda = 0.01 bits/Hz"])
def test_foreign_unit_exits_2_naming_the_line(line, tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--config", write_config(tmp_path, line + "\n"))
    assert_one_error(code, out, err, "error: line 1: ")


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, "impossible")
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--config",
                             write_config(tmp_path, "bandwidth = 10\n"))
    assert_one_error(code, out, err, "bandwidth")


@pytest.mark.parametrize("wavelength", ["1e-308", "1e-200"])
def test_tiny_wavelength_exits_2_with_one_error_line(wavelength, tmp_path, capsys):
    # the track would span ~1e198 to ~1e306 wavelengths: no grid is ever sized
    config = write_config(tmp_path, f"lambda = {wavelength} m\n")
    code, out, err = run_cli(capsys, "solve", "--config", config)
    assert_one_error(code, out, err, "wavelengths")


@pytest.mark.parametrize("text", [
    "P = 1e308 W\n",                   # P/v overflows: energy = inf * 0 = nan at rest
    "P = 1e300 W\nv = 1e-10 m/s\n",    # the same through a slow antenna
    "P_t = 1e308 W\n",                 # P_t T and P_t/sigma2 overflow
    "rho_0 = 3080 dB\n",               # the gain's scale: every scheme read ee=inf
    # the curvature's scale: the surrogate went nan and proposed stayed at rest
    "lambda = 1e-200 m\nA = 2e-200 m\nx0 = 1e-200 m\n",
], ids=["movement-power", "slow-speed", "transmit-power", "snr-scale", "curvature-scale"])
def test_overflowing_block_energy_exits_2_with_one_error_line(text, tmp_path, capsys):
    config = write_config(tmp_path, text)
    for command in ("solve", "oracle", "check"):
        code, out, err = run_cli(capsys, command, "--config", config)
        assert_one_error(code, out, err, "overflows")


@pytest.mark.parametrize("text", [
    f"L = {MAX_PATHS + 1}\n",
    f"N = {MAX_BS_ANTENNAS + 1}\n",
    f"L = {MAX_RESPONSE_ENTRIES // MAX_BS_ANTENNAS + 1}\nN = {MAX_BS_ANTENNAS}\n",
], ids=["paths", "antennas", "entries"])
def test_paths_and_antennas_over_the_caps_exit_2(text, tmp_path, capsys):
    # SystemParams rejects the shape before any instance is sampled
    code, out, err = run_cli(capsys, "solve", "--config", write_config(tmp_path, text))
    assert_one_error(code, out, err, "exceed the caps")


def test_sweep_value_with_invalid_params_exits_2_before_any_trial(tmp_path, monkeypatch,
                                                                   capsys):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(channel, "sample_instance", no_trial)
    code, out, err = run_cli(capsys, "sweep", "--sweep", "region", "--values", "20000",
                             "--workers", "2", "--out", str(tmp_path / "out"))
    assert_one_error(code, out, err, "error: region length")
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "solve", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_infeasible_floor_exits_1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--seed", "2", "--config",
                           write_config(tmp_path, "R_TH = 1e6\n"))
    assert code == 1
    assert "feasible=0" in out


# At 0.1 um/s the antenna barely leaves x0, where seed 0 falls short of this
# floor; only the idealized ceiling, resting at the gain peak, meets it.
_CEILING_ONLY = "v = 1e-7 m/s\nR_TH = 11.6637 bits/Hz\n"


def test_solve_exits_1_when_only_the_ceiling_is_feasible(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--seed", "0", "--config",
                           write_config(tmp_path, _CEILING_ONLY))
    assert "scheme=upper_bound" in out and "status=infeasible" in out
    feasible = dict(re.findall(r"scheme=(\w+) .* feasible=(\d)", out))
    assert feasible == {"proposed": "0", "upper_bound": "1", "max_throughput": "0",
                        "max_snr": "0", "fpa": "0"}, out
    assert code == 1


def test_sweep_exits_1_when_only_the_ceiling_is_feasible(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep", "power", "--trials", "2",
                           "--config", write_config(tmp_path, _CEILING_ONLY),
                           "--out", str(tmp_path / "out"))
    counts = re.findall(r"scheme=(\w+) .* n=(\d+)", out)
    assert counts and all(n == "0" for scheme, n in counts if scheme != "upper_bound"), out
    assert any(n != "0" for scheme, n in counts if scheme == "upper_bound"), out
    assert code == 1


def test_slow_antenna_config_solves_and_sweeps(tmp_path, capsys):
    # at 1 mm/s the reach (5 mm) is shorter than the 20 mm track
    config = write_config(tmp_path, "v = 0.001 m/s\n")
    code, out, err = run_cli(capsys, "solve", "--seed", "3", "--config", config)
    assert code == 0, err
    assert "scheme=max_snr" in out
    code, _, err = run_cli(capsys, "sweep", "--sweep", "power", "--trials", "2",
                           "--config", config, "--out", str(tmp_path / "out"))
    assert code == 0, err


def test_tiny_reach_oracle_matches_fixed_antenna(tmp_path, capsys):
    config = write_config(tmp_path, "v = 0.0001 m/s\nT = 0.01 s\nP = 5 W\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "oracle", "--seed", "0", "--config", config)
    assert code == 0, err
    fields = dict(item.split("=") for item in out.splitlines()[1].split()[1:])
    assert float(fields["ee"]) >= 231.369749163


def test_reach_edge_far_from_the_track_start_solves(tmp_path, capsys):
    # x0 is 7e4 reaches from 0, so x0 - v T rounds past the reach by far more
    # than the move-time rounding allowance of the block
    config = write_config(tmp_path, "x0 = 0.007 m\nv = 1e-5 m/s\nT = 0.01 s\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "solve", "--seed", "0", "--config", config)
    assert code == 0, err
    assert "scheme=max_snr" in out


def test_free_movement_config_oracle_and_check(tmp_path, capsys):
    # the reach edge has zero time and zero energy left
    config = write_config(tmp_path, "P = 0 W\nv = 0.001 m/s\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "oracle", "--seed", "3", "--config", config)
    assert code == 0, err
    assert "nan" not in out
    code, out, err = run_cli(capsys, "check", "--trials", "2", "--config", config)
    assert code == 0, err
    assert "all checks passed" in out


@pytest.mark.parametrize("wavelength, paths", [
    pytest.param(1e-5, 10, id="1e-05"),
    pytest.param(10.0, 10, id="10.0"),
    pytest.param(0.01, 1, id="single-path"),
])
def test_check_derivatives_scale_with_wavelength(wavelength, paths, tmp_path, capsys):
    # finite-difference steps fixed in meters break down far from lambda = 1 cm;
    # with one path the slope and curvature are pure rounding, so the floors
    # must carry the instance's own scale
    config = write_config(tmp_path, f"lambda = {wavelength} m\nA = {2 * wavelength} m\n"
                                    f"x0 = {wavelength} m\nL = {paths}\n")
    code, out, err = run_cli(capsys, "check", "--trials", "3", "--config", config)
    assert code == 0, out + err
    assert "ok trial=2 derivative consistency" in out
    assert "ok trial=2 curvature dominance" in out


@pytest.mark.parametrize("fields", [
    {"max_tx_power": 3e-6}, {"max_tx_power": 1e-6}, {"max_tx_power": 1e-9},
    {"max_tx_power": 1e-20}, {"max_tx_power": 1e-40}, {"distance": 2000.0},
    {"noise_power": 1e-6}], ids=["P_t-3e-6", "P_t-1e-6", "P_t-1e-9", "P_t-1e-20", "P_t-1e-40",
                                 "d-2000", "sigma2-minus-30-dBm"])
def test_check_derivatives_pass_at_low_snr(fields):
    """log2(1 + snr) rounds 1 + snr first, ~eps/(2 ln 2) bits/Hz at any SNR, and
    at P_t <= 1e-20 W the rate rounds to exactly 0: the derivative check allows
    that rounding, so these valid scenarios pass on the seeds maee check reads."""
    params = SystemParams(**fields)
    xs = np.linspace(0.0, params.region_length, 1001)
    for seed in range(3):
        assert invariants.derivatives(harness.instance_for(params, seed), params, xs) <= 1.0


@pytest.mark.parametrize("power", [0.01, 1e-6], ids=["default", "P_t-1e-6"])
@pytest.mark.parametrize("record, order, error", [
    (0, 0, 1e-2), (0, 1, 1e-2), (1, 0, 1e-2), (1, 1, 1e-2), (0, 0, 1e-3), (1, 0, 1e-3)],
    ids=["rate-slope-1%", "rate-second-1%", "ee-slope-1%", "ee-second-1%",
         "rate-slope-0.1%", "ee-slope-0.1%"])
def test_check_derivatives_fail_a_scaled_derivative(power, record, order, error, monkeypatch):
    """The rounding the derivative check allows leaves it able to see a 1% error
    in any of rate', rate'', ee' and ee'', and a 0.1% error in either slope."""
    original = ee.efficiency_derivatives

    def scaled(*args):
        found = [list(pair) for pair in original(*args)]
        found[record][order] *= 1.0 + error
        return tuple(map(tuple, found))

    monkeypatch.setattr(ee, "efficiency_derivatives", scaled)
    params = SystemParams(max_tx_power=power)
    xs = np.linspace(0.0, params.region_length, 1001)
    assert invariants.derivatives(harness.instance_for(params, 0), params, xs) > 1.0


def test_check_without_trials_exits_2(capsys):
    assert_one_error(*run_cli(capsys, "check", "--trials", "0"))


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--config", write_config(tmp_path, "T = inf s\n"))
    assert_one_error(code, out, err, "finite")


def test_negative_distance_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--config", write_config(tmp_path, "d = -50 m\n"))
    assert_one_error(code, out, err, "distance")


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines() if line.startswith("maee ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(re.sub(r"\[([^]]*)\]", r"\1", line))[1:])


def test_readme_library_quick_start_runs(capsys):
    block = README.read_text().split("## Library quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[2] == "converged"


def test_readme_sample_config_is_the_default():
    text = README.read_text()
    sample = re.search(r"symbol names.*?\n```\n(.*?)```", text, re.S).group(1)
    assert parse_config_text(sample) == SystemParams()
    # the block shows every key; parsing it checks that each unit is one its key takes
    keys = {line.split("=", 1)[0].strip() for line in sample.splitlines()}
    assert keys == set(harness._CONFIG_KEYS)


def test_module_entry_point_runs_without_warnings():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "maee.cli", "check",
                           "--trials", "1"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "all checks passed" in done.stdout


def _log(lo, hi):
    """10**e for e drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Each config key's numbers over its legal range and past it: linear ones, then
# dB or dBm ones for a key that takes those. fuzz_configs draws lambda, A, x0,
# L and N itself, and keeps L N A/lambda, the gain lattice's work, under 1e5.
_FUZZ_NUMBERS = {
    "P_t": (_log(-6, 10), st.floats(-30, 130)),
    "P": (st.just(0.0) | _log(-6, 4), st.floats(-30, 70)),
    "v": (_log(-7, 2),),
    "T": (_log(-4, 3),),
    "R_TH": (st.floats(-1, 60),),
    "sigma2": (_log(-16, -4), st.floats(-130, -10)),
    "rho_0": (_log(-9, 1), st.floats(-90, 10)),
    "d": (_log(-1, 5),),
    "alpha_tilde": (st.floats(0, 6),),
    "epsilon": (_log(-10, 0.1),),
}


@st.composite
def fuzz_configs(draw):
    """Config text setting any of harness._CONFIG_KEYS, each bare or in any unit it takes."""
    defaults, lines = SystemParams(), []

    def setting(key, numbers):
        """A number for key, written if drawn, or key's default if not."""
        name, units = harness._CONFIG_KEYS[key]
        unit = draw(st.sampled_from(["", *units]))
        number = draw(numbers[unit.startswith("dB")])
        if not draw(st.booleans()):
            return getattr(defaults, name)
        lines.append(f"{key} = {number!r} {unit}".rstrip())
        return number

    wavelength = setting("lambda", (_log(-7, 1),))
    region = setting("A", (_log(-3, 4.05).map(lambda n: n * wavelength),))
    setting("x0", ((st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)).map(lambda u: u * region),))
    work = region / wavelength * setting("L", (_log(0, 3.33).map(round),))
    assume(work * setting("N", (_log(0, 3.63).map(round),)) <= 1e5)
    for key in harness._CONFIG_KEYS:
        if key not in {"lambda", "A", "x0", "L", "N"}:
            setting(key, _FUZZ_NUMBERS[key])
    return "".join(f"{line}\n" for line in lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=fuzz_configs(), seed=st.integers(0, 2**32 - 1))
@example(text=f"L = {MAX_PATHS}\n", seed=0)
@example(text=f"A = {MAX_REGION_WAVELENGTHS * SystemParams().wavelength} m\n", seed=0)
def test_solve_and_oracle_exit_cleanly_on_any_config(text, seed, tmp_path_factory):
    """Exit 0 or 1 with every printed number finite, or exit 2 with one error
    line, and never a traceback."""
    config = write_config(tmp_path_factory.mktemp("fuzz"), text)
    for command in ("solve", "oracle"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([command, "--seed", str(seed), "--config", config])
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert_one_error(code, out, err)
            continue
        assert code in (0, 1) and err == "", (text, code, err)
        values = re.findall(r"=(\S+)", out)
        numbers = [float(v) for v in values if re.fullmatch(r"[-+.\deinaf]+", v)]
        assert numbers and all(math.isfinite(n) for n in numbers), (text, out)
