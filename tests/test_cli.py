import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from maee.cli import build_parser, cli_main
from maee.harness import parse_config_text
from maee.params import SystemParams

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", "--trials", "1")
    assert code == 0
    assert "all checks passed" in out


def test_check_passes_within_oracle_resolution(tmp_path, capsys):
    # R_TH = 10 bits/Hz, P = 5 W, seed 9: the solver lands ~1e-6 relative above
    # the grid oracle, within the oracle's resolution (bench.oracle_slack)
    config = tmp_path / "tight.cfg"
    config.write_text("R_TH = 10 bits/Hz\nP = 5 W\n")
    code, out, err = run_cli(capsys, "check", "--trials", "1", "--seed", "9",
                             "--config", str(config))
    assert code == 0, out + err
    assert "ok trial=0 solver bracketing" in out


def test_solve_status_flags_movement_power_below_transmit_power(tmp_path, capsys):
    config = tmp_path / "cheap.cfg"
    config.write_text("P = 0.001 W\n")  # below P_t = 10 dBm = 0.01 W
    code, out, err = run_cli(capsys, "solve", "--seed", "5", "--config", str(config))
    assert code == 0, err
    assert "flagged=1" in next(line for line in out.splitlines() if line.startswith("status="))
    _, out, _ = run_cli(capsys, "solve", "--seed", "5")
    assert "flagged=0" in next(line for line in out.splitlines() if line.startswith("status="))


def test_missing_config_keys_fall_back_to_defaults(tmp_path, capsys):
    config = tmp_path / "partial.cfg"
    config.write_text("T = 5.0\nR_TH = 5.0\n")  # explicit defaults only
    _, out_with, _ = run_cli(capsys, "solve", "--seed", "5", "--config", str(config))
    _, out_without, _ = run_cli(capsys, "solve", "--seed", "5")
    assert out_with == out_without


def test_config_accepts_dbm(tmp_path, capsys):
    config = tmp_path / "units.cfg"
    config.write_text("P_t = 10 dBm\nsigma2 = -70 dBm\nrho_0 = -40 dB\n")
    _, out_with, _ = run_cli(capsys, "solve", "--seed", "5", "--config", str(config))
    _, out_without, _ = run_cli(capsys, "solve", "--seed", "5")
    assert out_with == out_without


def test_unknown_flag_exits_2(capsys):
    for flag in (["--definitely-not-a-flag"], ["--resolution", "2e-5"]):
        code, _, err = run_cli(capsys, "solve", *flag)
        assert code == 2
        assert "usage" in err.lower()


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, "impossible")
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("bandwidth = 10\n")
    code, _, err = run_cli(capsys, "solve", "--config", str(config))
    assert code == 2
    assert "bandwidth" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "solve", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_infeasible_floor_exits_1(tmp_path, capsys):
    config = tmp_path / "strict.cfg"
    config.write_text("R_TH = 1e6\n")
    code, out, _ = run_cli(capsys, "solve", "--seed", "2", "--config", str(config))
    assert code == 1
    assert "feasible=0" in out


def test_slow_antenna_config_solves_and_sweeps(tmp_path, capsys):
    # at 1 mm/s the reach (5 mm) is shorter than the 20 mm track
    config = tmp_path / "slow.cfg"
    config.write_text("v = 0.001 m/s\n")
    code, out, err = run_cli(capsys, "solve", "--seed", "3", "--config", str(config))
    assert code == 0, err
    assert "scheme=max_snr" in out
    code, _, err = run_cli(capsys, "sweep", "--sweep", "power", "--trials", "2",
                           "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 0, err


def test_tiny_reach_oracle_matches_fixed_antenna(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text("v = 0.0001 m/s\nT = 0.01 s\nP = 5 W\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "oracle", "--seed", "0", "--config", str(config))
    assert code == 0, err
    fields = dict(item.split("=") for item in out.splitlines()[1].split()[1:])
    assert float(fields["ee"]) >= 231.369749163


def test_reach_edge_far_from_the_track_start_solves(tmp_path, capsys):
    # x0 is 7e4 reaches from 0, so x0 - v T rounds past the reach by far more
    # than the move-time rounding allowance of the block
    config = tmp_path / "edge.cfg"
    config.write_text("x0 = 0.007 m\nv = 1e-5 m/s\nT = 0.01 s\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "solve", "--seed", "0", "--config", str(config))
    assert code == 0, err
    assert "scheme=max_snr" in out


def test_free_movement_config_oracle_and_check(tmp_path, capsys):
    # the reach edge has zero time and zero energy left
    config = tmp_path / "free.cfg"
    config.write_text("P = 0 W\nv = 0.001 m/s\nR_TH = 0 bits/Hz\n")
    code, out, err = run_cli(capsys, "oracle", "--seed", "3", "--config", str(config))
    assert code == 0, err
    assert "nan" not in out
    code, out, err = run_cli(capsys, "check", "--trials", "2", "--config", str(config))
    assert code == 0, err
    assert "all checks passed" in out


@pytest.mark.parametrize("wavelength", [1e-5, 10.0])
def test_check_derivatives_scale_with_wavelength(wavelength, tmp_path, capsys):
    # finite-difference steps fixed in meters break down far from lambda = 1 cm
    config = tmp_path / "scaled.cfg"
    config.write_text(f"lambda = {wavelength} m\nA = {2 * wavelength} m\nx0 = {wavelength} m\n")
    code, out, err = run_cli(capsys, "check", "--trials", "3", "--config", str(config))
    assert code == 0, out + err
    assert "ok trial=2 derivative consistency" in out


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines() if line.startswith("maee ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(re.sub(r"\[([^]]*)\]", r"\1", line))[1:])


def test_readme_sample_config_is_the_default():
    text = README.read_text()
    sample = re.search(r"symbol names.*?\n```\n(.*?)```", text, re.S).group(1)
    assert parse_config_text(sample) == SystemParams()


def test_module_entry_point_runs_without_warnings():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "maee.cli", "check",
                           "--trials", "1"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "all checks passed" in done.stdout
