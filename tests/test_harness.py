import csv
import math
import pickle

import numpy as np
import pytest

from maee import channel, ee
from maee.bench import SchemeResult, evaluate_schemes
from maee.harness import (
    SweepConfig,
    TrialRecord,
    aggregate,
    emit_csv,
    instance_for,
    load_config,
    mix_seed,
    params_for_value,
    parse_config_text,
    run_sweep,
    run_trial,
)
from maee.params import SystemParams


def small_config(**overrides):
    defaults = dict(base=SystemParams(), sweep_variable="region",
                    sweep_values=(0.5, 1.0), trials=3, master_seed=9,
                    schemes=("proposed", "fpa"))
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_mix_seed_deterministic_and_distinct():
    assert mix_seed(1, 2) == mix_seed(1, 2)
    seen = {mix_seed(master, trial) for master in range(4) for trial in range(50)}
    assert len(seen) == 200
    assert all(0 <= s < 2**64 for s in seen)


def test_params_for_value_region():
    base = SystemParams()
    p = params_for_value(base, "region", 1.5)
    assert p.region_length == pytest.approx(1.5 * base.wavelength)
    assert p.initial_position == pytest.approx(p.region_length / 2)
    assert p.movement_power == base.movement_power


def test_params_for_value_power():
    base = SystemParams()
    p = params_for_value(base, "power", 2.0)
    assert p.movement_power == 2.0
    assert p.region_length == base.region_length
    assert p.initial_position == pytest.approx(base.region_length / 2)


def test_params_for_value_rejects_unknown():
    with pytest.raises(ValueError):
        params_for_value(SystemParams(), "bandwidth", 1.0)


def test_run_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, 1)[0]
    b = run_trial(cfg, 1)[0]
    assert a.instance_seed == b.instance_seed
    assert a.results["proposed"] == b.results["proposed"]
    assert a.results["fpa"] == b.results["fpa"]


def test_trials_pair_instances_across_sweep_values():
    # The channel distribution ignores the swept variable, so the same trial
    # index must see the same instance at every sweep value.
    cfg = small_config()
    low, high = run_trial(cfg, 2)
    assert low.instance_seed == high.instance_seed
    assert low.sweep_value != high.sweep_value


def test_run_sweep_builds_each_instance_once(monkeypatch):
    calls = {"sample_instance": 0, "build_expansion": 0}
    for name in calls:
        original = getattr(channel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(channel, name, counted)
    records, _ = run_sweep(small_config(sweep_values=(0.5, 1.0, 1.5), trials=2))
    assert len(records) == 6
    assert calls == {"sample_instance": 2, "build_expansion": 2}


@pytest.mark.parametrize("variable, values, per_trial", [
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), 1),
    ("region", (0.5, 1.0, 1.5), 3),
])
def test_run_sweep_ceiling_once_per_movement_power_free_params(
        variable, values, per_trial, monkeypatch):
    """Movement power never reaches the ceiling, so a power sweep computes it
    once per trial; a region sweep changes the region and needs it per value."""
    calls = []
    original = ee.ee_upper_bound

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ee, "ee_upper_bound", counted)
    cfg = small_config(sweep_variable=variable, sweep_values=values, trials=2,
                       schemes=("upper_bound", "fpa"))
    records, _ = run_sweep(cfg)
    assert len(records) == 2 * len(values)
    assert len(calls) == 2 * per_trial


def test_power_sweep_shares_movement_power_free_results():
    cfg = small_config(sweep_variable="power", sweep_values=(0.2, 1.0, 3.0),
                       schemes=("upper_bound", "max_snr", "fpa"))
    records = run_trial(cfg, 1)
    for trial_records in (records, pickle.loads(pickle.dumps(records))):
        first = trial_records[0].results
        for record in trial_records[1:]:
            assert record.results["upper_bound"] is first["upper_bound"]
            assert record.results["fpa"] is first["fpa"]
            assert record.results["max_snr"] is not first["max_snr"]
    # the shared objects equal what each sweep value computes on its own
    expansion = instance_for(cfg.base, records[-1].instance_seed)
    alone = evaluate_schemes(expansion, params_for_value(cfg.base, "power", 3.0), cfg.schemes)
    assert alone == records[-1].results


def test_run_sweep_order_and_rerun_identical():
    cfg = small_config()
    records1, agg1 = run_sweep(cfg)
    records2, agg2 = run_sweep(cfg)
    assert [(r.sweep_value, r.trial) for r in records1] == \
        [(0.5, 0), (0.5, 1), (0.5, 2), (1.0, 0), (1.0, 1), (1.0, 2)]
    assert records1 == records2
    assert agg1 == agg2


def test_run_sweep_worker_counts_agree(tmp_path):
    cfg1 = small_config()
    cfg2 = small_config(workers=2)
    r1, a1 = run_sweep(cfg1)
    r2, a2 = run_sweep(cfg2)
    p1 = emit_csv(r1, a1, tmp_path / "w1")
    p2 = emit_csv(r2, a2, tmp_path / "w2")
    assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
    assert open(p1[1], "rb").read() == open(p2[1], "rb").read()


def fake_record(value, trial, ees, feasible):
    results = {}
    for scheme, ee_val, ok in zip(("proposed", "fpa"), ees, feasible):
        results[scheme] = SchemeResult(scheme=scheme, x=0.01, ee=ee_val,
                                       throughput=ee_val * 0.05, energy=0.05,
                                       feasible=ok)
    return TrialRecord(sweep_value=value, trial=trial, instance_seed=trial, results=results)


def test_slotted_record_survives_pickle():
    record = run_trial(small_config(), 1)[0]
    assert not hasattr(record, "__dict__")
    assert not hasattr(record.results["proposed"], "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record


def test_aggregate_excludes_infeasible():
    records = [
        fake_record(1.0, 0, (100.0, 90.0), (True, True)),
        fake_record(1.0, 1, (200.0, 50.0), (True, False)),
        fake_record(1.0, 2, (300.0, 70.0), (False, True)),
    ]
    rows = {row.scheme: row for row in aggregate(records, ("proposed", "fpa"))}
    assert rows["proposed"].mean_ee == pytest.approx(150.0)
    assert rows["proposed"].std_ee == pytest.approx(50.0)
    assert rows["proposed"].feasible_frac == pytest.approx(2 / 3)
    assert rows["proposed"].n == 2
    assert rows["fpa"].mean_ee == pytest.approx(80.0)
    assert rows["fpa"].n == 2


def test_aggregate_all_infeasible_is_nan():
    records = [fake_record(2.0, 0, (10.0, 10.0), (False, False))]
    rows = aggregate(records, ("proposed",))
    assert math.isnan(rows[0].mean_ee)
    assert rows[0].n == 0
    assert rows[0].feasible_frac == 0.0


def test_emit_csv_headers_only(tmp_path):
    raw_path, agg_path = emit_csv([], [], tmp_path / "empty")
    assert open(raw_path).read() == \
        "sweep_value,trial,scheme,x,ee,throughput,energy,feasible,seed\n"
    assert open(agg_path).read() == "sweep_value,scheme,mean_ee,std_ee,feasible_frac,n\n"


def test_emit_csv_roundtrip_12_digits(tmp_path):
    cfg = small_config(trials=2)
    records, aggregates = run_sweep(cfg)
    raw_path, _ = emit_csv(records, aggregates, tmp_path / "out")
    with open(raw_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 2 * 2  # values x trials x schemes
    # parsing then reformatting reproduces the text exactly at 12 digits
    for row in rows:
        for field in ("sweep_value", "x", "ee", "throughput", "energy"):
            assert format(float(row[field]), ".12g") == row[field]
        assert row["feasible"] in ("0", "1")
        assert int(row["seed"]) >= 0


def test_aggregate_matches_raw_reaggregation(tmp_path):
    cfg = small_config(trials=4)
    records, aggregates = run_sweep(cfg)
    raw_path, _ = emit_csv(records, aggregates, tmp_path / "agg")
    with open(raw_path) as handle:
        rows = list(csv.DictReader(handle))
    for agg_row in aggregates:
        sample = [float(r["ee"]) for r in rows
                  if float(r["sweep_value"]) == agg_row.sweep_value
                  and r["scheme"] == agg_row.scheme and r["feasible"] == "1"]
        assert len(sample) == agg_row.n
        if sample:
            assert np.mean(sample) == pytest.approx(agg_row.mean_ee, rel=1e-11)
            assert np.std(sample) == pytest.approx(agg_row.std_ee, rel=1e-9, abs=1e-12)


def test_emit_csv_unwritable_path_names_it(tmp_path):
    target = tmp_path / "file.txt"
    target.write_text("occupied")
    with pytest.raises(OSError) as excinfo:
        emit_csv([], [], target / "sub")
    assert "file.txt" in str(excinfo.value) or "sub" in str(excinfo.value)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_config(sweep_values=())
    with pytest.raises(ValueError):
        small_config(sweep_values=(1.0, 0.5))
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(schemes=("proposed", "unknown"))
    with pytest.raises(ValueError):
        small_config(workers=0)
    with pytest.raises(ValueError):
        small_config(sweep_variable="frequency")


def test_parse_config_defaults_on_empty():
    assert parse_config_text("") == SystemParams()
    assert parse_config_text("# only a comment\n\n") == SystemParams()


def test_default_parameters_match_reference_setup():
    from maee.params import db_to_linear, dbm_to_watt

    p = SystemParams()
    assert p.wavelength == 0.01
    assert p.region_length == 0.02
    assert p.num_bs_antennas == 16
    assert p.num_paths == 10
    assert p.pathloss_ref == db_to_linear(-40.0)
    assert p.distance == 50.0
    assert p.pathloss_exp == 2.8
    assert p.tolerance == 1e-4
    assert p.max_tx_power == dbm_to_watt(10.0)
    assert p.movement_power == 0.5
    assert p.speed == 0.2
    assert p.block_duration == 5.0
    assert p.min_throughput == 5.0
    assert p.noise_power == dbm_to_watt(-70.0)
    assert p.initial_position == p.region_length / 2


def test_parse_config_plain_and_units():
    text = """
    # reference setup with explicit units
    lambda = 0.01 m
    P_t = 10 dBm
    sigma2 = -70 dBm
    rho_0 = -40 dB
    T = 5 s
    v = 0.2 m/s
    R_TH = 5 bits/Hz
    N = 16
    """
    parsed = parse_config_text(text)
    assert parsed.max_tx_power == pytest.approx(0.01, rel=1e-12)
    assert parsed.noise_power == pytest.approx(1e-10, rel=1e-12)
    assert parsed.pathloss_ref == pytest.approx(1e-4, rel=1e-12)
    assert parsed.num_bs_antennas == 16
    assert parsed.block_duration == 5.0


def test_parse_config_partial_overrides_keep_defaults():
    parsed = parse_config_text("L = 4\nA = 0.01\nx0 = 0.002")
    assert parsed.num_paths == 4
    assert parsed.region_length == 0.01
    assert parsed.initial_position == 0.002
    assert parsed.block_duration == SystemParams().block_duration
    assert parsed.min_throughput == SystemParams().min_throughput


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_config_text("bandwidth = 10")
    with pytest.raises(ValueError):
        parse_config_text("T = fast")
    with pytest.raises(ValueError):
        parse_config_text("T = 5 dBm")
    with pytest.raises(ValueError):
        parse_config_text("N = 2.5")
    with pytest.raises(ValueError):
        parse_config_text("just some words")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "setup.cfg"
    path.write_text("P = 1.5\nL = 6\n")
    parsed = load_config(path)
    assert parsed.movement_power == 1.5
    assert parsed.num_paths == 6
