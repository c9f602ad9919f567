import math
from dataclasses import fields

import pytest

from maee.cli import cli_main
from maee.params import SystemParams

FLOAT_FIELDS = [spec.name for spec in fields(SystemParams) if spec.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_field_is_rejected_by_name(name, value):
    # given directly, not through a config file, whose parser rejects it first
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
        SystemParams(**{name: value})


@pytest.mark.parametrize("name", ["num_paths", "num_bs_antennas"])
def test_zero_count_is_rejected(name):
    with pytest.raises(ValueError, match="^antenna and path counts must be at least 1$"):
        SystemParams(**{name: 0})


def test_solve_with_no_paths_exits_2_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "params.cfg"
    config.write_text("L = 0\n")
    code = cli_main(["solve", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured
    assert captured.err == "error: antenna and path counts must be at least 1\n", captured.err
