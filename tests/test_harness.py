import csv
import gc
import math
import multiprocessing
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from maee import bench, channel, ee, harness, search, solver
from maee.bench import evaluate_schemes
from maee.harness import (
    SweepConfig,
    TrialRecord,
    aggregate,
    emit_csv,
    fmt,
    instance_for,
    load_config,
    mix_seed,
    params_for_value,
    parse_config_text,
    run_sweep,
    run_trial,
)
from maee.params import SystemParams

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
# The environment of a fresh interpreter that imports maee from this checkout.
SRC_ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}


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


def count_calls(monkeypatch, module, name) -> list:
    """Patch module.name to append its arguments to the returned list on every call."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def searches_run(monkeypatch):
    """Patch harness.instance_for to keep each expansion it builds; the returned
    function counts the searches run on them so far (ee.grid_max keeps each
    search it runs in its expansion's searches, one key per search)."""
    expansions = []
    original = harness.instance_for

    def recorded(*args):
        expansions.append(original(*args))
        return expansions[-1]

    monkeypatch.setattr(harness, "instance_for", recorded)
    return lambda: sum(len(expansion.searches) for expansion in expansions)


@pytest.mark.parametrize("trials", [1, 4])
def test_sweep_config_builds_each_value_params_once(trials, monkeypatch):
    original = harness.params_for_value
    calls = count_calls(monkeypatch, harness, "params_for_value")
    values = (0.5, 1.0, 1.5)
    cfg = small_config(sweep_values=values, trials=trials)
    run_sweep(cfg)
    assert len(calls) == len(values)
    assert cfg.params == tuple(original(cfg.base, "region", v) for v in values)


def record_children(monkeypatch) -> list:
    """Each multiprocessing.Process that run_sweep builds, with its constructor's
    keyword arguments (as .kwargs), how often it was started (as .starts) and
    its exit code each time it was closed (as .closes)."""
    children = []

    class RecordingProcess(multiprocessing.Process):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.kwargs, self.starts, self.closes = kwargs, 0, []
            children.append(self)

        def start(self):
            self.starts += 1
            super().start()

        def close(self):
            self.closes.append(self.exitcode)
            super().close()

    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    return children


@pytest.mark.parametrize("workers, trials, children", [
    (500, 2, 1), (2, 5, 1), (3, 7, 2), (7, 7, 6), (1, 4, 0), (3, 1, 0), (2, 1, 0)])
def test_run_sweep_sends_each_child_one_share(workers, trials, children, monkeypatch):
    """The calling process runs share 0 of the trials, and min(workers, trials) - 1
    daemon children, each started once and closed once it ended with exit
    code 0, run shares 1, 2, ...; no child starts when one process is enough."""
    started = record_children(monkeypatch)
    records, _ = run_sweep(small_config(workers=workers, trials=trials))
    assert len(records) == 2 * trials
    assert len(started) == children
    assert [child.starts for child in started] == [1] * children
    assert all(child.kwargs["target"] is harness._send_share and child.kwargs["daemon"]
               for child in started)
    assert [child.kwargs["args"][2:4] for child in started] == [
        (share, min(workers, trials)) for share in range(1, children + 1)]
    assert [child.closes for child in started] == [[0]] * children
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3, 7])
def test_run_sweep_uneven_shares_match_the_serial_sweep(workers):
    cfg = small_config(trials=7)
    assert run_sweep(replace(cfg, workers=workers)) == run_sweep(cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing_trial", [0, 1], ids=["parent_share", "child_share"])
def test_run_sweep_raises_a_failed_trial(failing_trial, monkeypatch):
    """A trial's ValueError surfaces from run_sweep, from the calling process's
    share (trial 0) and from a child's (trial 1): a forked child inherits the
    patched run_trial. No child outlives the sweep either way."""
    original = harness.run_trial

    def failing(cfg, trial_index):
        if trial_index == failing_trial:
            raise ValueError(f"trial {trial_index} failed")
        return original(cfg, trial_index)

    monkeypatch.setattr(harness, "run_trial", failing)
    with pytest.raises(ValueError, match=f"trial {failing_trial} failed"):
        run_sweep(small_config(workers=2, trials=4))
    assert multiprocessing.active_children() == []


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_run_sweep_leaves_no_descriptor_open(monkeypatch):
    """A 3-worker sweep, whole or failed in a child's trial, closes every pipe
    end and child sentinel it opened without the cyclic garbage collector:
    the frame of a raised exception holds the children until that runs."""
    original = harness.run_trial

    def failing(cfg, trial_index):
        if trial_index == 1:
            raise ValueError("trial 1 failed")
        return original(cfg, trial_index)

    gc.disable()
    try:
        before = open_descriptors()
        run_sweep(small_config(workers=3, trials=3))
        assert open_descriptors() == before
        monkeypatch.setattr(harness, "run_trial", failing)
        with pytest.raises(ValueError, match="trial 1 failed"):
            run_sweep(small_config(workers=3, trials=3))
        assert open_descriptors() == before
    finally:
        gc.enable()
    assert multiprocessing.active_children() == []


def test_run_sweep_names_a_child_that_ends_without_a_message(monkeypatch):
    """A child that exits before sending its records (here os._exit(3) in trial 1,
    of share 1) raises one RuntimeError naming its share and exit code."""
    original = harness.run_trial

    def exiting(cfg, trial_index):
        if trial_index == 1:
            os._exit(3)
        return original(cfg, trial_index)

    monkeypatch.setattr(harness, "run_trial", exiting)
    with pytest.raises(RuntimeError, match="share 1 ended with exit code 3 "):
        run_sweep(small_config(workers=2, trials=4))
    assert multiprocessing.active_children() == []


def test_run_sweep_terminates_children_when_the_caller_fails(monkeypatch):
    """A ValueError in the caller's share (trial 0) surfaces while the child's
    trial 1 still waits on an event that is never set: the child is ended by
    SIGTERM, not left to run out its 60 s wait."""
    original = harness.run_trial
    never = multiprocessing.Event()

    def stalled(cfg, trial_index):
        if trial_index == 0:
            raise ValueError("trial 0 failed")
        if not never.wait(60):
            raise TimeoutError(f"trial {trial_index} was not stopped")
        return original(cfg, trial_index)

    monkeypatch.setattr(harness, "run_trial", stalled)
    started = record_children(monkeypatch)
    with pytest.raises(ValueError, match="trial 0 failed"):
        run_sweep(small_config(workers=2, trials=4))
    assert [child.closes for child in started] == [[-signal.SIGTERM]]
    assert multiprocessing.active_children() == []


def test_run_sweep_child_ends_when_its_caller_is_killed():
    """With the caller killed, a child whose records outgrow its pipe's buffer
    does not wait forever for a reader. Its exit is seen as the end of a pipe
    whose write end only the caller and the child hold."""
    code = textwrap.dedent("""
        import multiprocessing, os, signal
        from maee import SystemParams, harness

        def run_trial(cfg, trial_index):
            if trial_index == 0:
                print(multiprocessing.active_children()[0].pid, flush=True)
                os.kill(os.getpid(), signal.SIGKILL)
            return bytes(1 << 20)

        harness.run_trial = run_trial
        harness.run_sweep(harness.SweepConfig(base=SystemParams(), sweep_variable="power",
                                              sweep_values=(1.0,), trials=2, workers=2))
    """)
    alive_read, alive_write = os.pipe()
    caller = subprocess.Popen([sys.executable, "-c", code], env=SRC_ENV, pass_fds=(alive_write,),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    os.close(alive_write)
    child, ended = int(caller.stdout.readline()), []
    try:
        assert caller.wait(timeout=60) == -signal.SIGKILL
        ended, _, _ = select.select([alive_read], [], [], 60)
        assert ended and os.read(alive_read, 1) == b""
    finally:
        os.close(alive_read)
        caller.stdout.close()
        if not ended:
            os.kill(child, signal.SIGKILL)


def test_import_loads_no_process_pool():
    """A 1-worker sweep starts no child, so neither importing maee nor running
    one loads multiprocessing; a pooled sweep loads it but not concurrent.futures."""
    code = ("import sys, maee, maee.cli\n"
            "loaded = lambda: ' '.join(m for m in ('multiprocessing', 'concurrent.futures', "
            "'concurrent.futures.process') if m in sys.modules)\n"
            "sweep = lambda workers: maee.run_sweep(maee.SweepConfig(base=maee.SystemParams(), "
            "sweep_variable='power', sweep_values=(1.0,), trials=2, schemes=('fpa',), "
            "workers=workers))\n"
            "print(loaded())\n"
            "sweep(1)\n"
            "print(loaded())\n"
            "sweep(2)\n"
            "print(loaded())\n")
    done = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["", "", "multiprocessing", ""], done.stdout


@pytest.mark.parametrize("variable, values, per_trial", [
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), 1),
    ("region", (0.5, 1.0, 1.5), 3),
])
def test_run_sweep_ceiling_once_per_movement_power_free_params(
        variable, values, per_trial, monkeypatch):
    """Movement power never reaches the ceiling's gain search, so a power
    sweep runs it once per trial; a region sweep changes the region and
    runs it once per value."""
    searches = searches_run(monkeypatch)
    cfg = small_config(sweep_variable=variable, sweep_values=values, trials=2,
                       schemes=("upper_bound", "fpa"))
    records, _ = run_sweep(cfg)
    assert len(records) == 2 * len(values)
    assert searches() == 2 * per_trial


@pytest.mark.parametrize("variable, values, base, per_trial", [
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), SystemParams(), 1),
    ("region", (0.5, 1.0, 1.5), SystemParams(), 3),
    # reach v T = 0.0095 m, under half the track: max_snr searches its own
    # reachable interval and max_throughput a clipped grid
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), SystemParams(speed=0.0019), 1),
])
def test_reference_positions_searched_once_per_movement_power_free_params(
        variable, values, base, per_trial, monkeypatch):
    """max_throughput and max_snr search for their positions without reading
    the movement power, so a power sweep runs each search once per trial and
    a region sweep once per value."""
    searches = searches_run(monkeypatch)
    cfg = small_config(base=base, sweep_variable=variable, sweep_values=values, trials=2,
                       schemes=("max_throughput", "max_snr"))
    records, _ = run_sweep(cfg)
    assert len(records) == 2 * len(values)
    assert searches() == 2 * 2 * per_trial


@pytest.mark.parametrize("variable, config, per_trial", [
    ("power", None, 2),
    ("power", "slow_power", 3),
    ("region", None, 6),
    # R_TH = 10: the solver restarts from the scan (ee.grid_scan), not from ee.grid_max
    ("power", "tight_power", 2),
], ids=["None-2", "slow_power-3", "region-6", "tight_power-2"])
def test_ceiling_and_max_snr_share_one_gain_search(variable, config, per_trial, monkeypatch):
    """A trial runs one search per distinct search inputs. When the reach
    covers the track, max_snr reads the ceiling's gain search (ee.GAIN), and
    neither it nor max_throughput's rate search (ee.RATE) reads the movement
    power or the rate floor: a power trial runs two searches, and a 3-value
    region trial two per value. slow_power's reach covers under half the
    track, so max_snr searches on its own: three searches."""
    searches = searches_run(monkeypatch)
    base = load_config(GOLDEN / config / "params.cfg") if config else SystemParams()
    values = (0.1, 0.5, 1.0, 2.0, 5.0) if variable == "power" else (0.5, 1.0, 1.5)
    cfg = small_config(base=base, sweep_variable=variable, sweep_values=values,
                       schemes=bench.SCHEME_ORDER)
    for trial in range(3):
        before = searches()
        records = run_trial(cfg, trial)
        assert searches() - before == per_trial
        # a kept search gives max_snr the position of its own search
        for record, params in zip(records, cfg.params):
            own, _ = ee.grid_max(instance_for(base, record.instance_seed), params,
                                 *ee.reach_interval(params), ee.GAIN)
            assert record.results["max_snr"].x == own


def test_power_sweep_shares_movement_power_free_results():
    """A trial keeps one object per distinct record, also after pickle: the
    ceiling and the fixed antenna read no movement power, so every value of
    a power sweep holds the same two objects."""
    # the default reach covers the track; v = 0.0019 m/s reaches under half of it
    for base in (SystemParams(), SystemParams(speed=0.0019)):
        cfg = small_config(base=base, sweep_variable="power", sweep_values=(0.2, 1.0, 3.0),
                           schemes=bench.SCHEME_ORDER)
        records = run_trial(cfg, 1)
        for trial_records in (records, pickle.loads(pickle.dumps(records))):
            first = trial_records[0].results
            for record in trial_records[1:]:
                for scheme in ("upper_bound", "fpa"):
                    assert record.results[scheme] is first[scheme]
            every = [r for record in trial_records for r in record.results.values()]
            assert len({id(r) for r in every}) == len(set(every))
        # every record equals what its sweep value computes on its own
        for record, params in zip(records, cfg.params):
            alone = evaluate_schemes(instance_for(cfg.base, record.instance_seed), params)
            assert alone == record.results


@pytest.mark.parametrize("variable, values, config", [
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), None),
    ("region", (0.5, 1.0, 1.5), None),
    # R_TH = 10: the solver restarts from its reachable scan
    ("power", (0.1, 0.5, 1.0, 2.0, 5.0), "tight_power"),
])
def test_gain_evaluated_on_one_grid_per_trial(variable, values, config, gain_reads,
                                              monkeypatch):
    """Every grid search of a trial (the ceiling, max_snr, max_throughput and
    the solver's restart scan) reads a slice of one gain grid over the longest
    region: one lattice build per trial. No sweep calls gain_eval: a position
    a slice adds (its ends and the rest position, when off the lattice) and
    every single position are read by gain_and_slope or kept_gain_and_slope.
    A restart is a grid_scan of FEASIBLE_EFFICIENCY over the reach."""
    restarts = []
    original_scan = ee.grid_scan

    def counted_scan(expansion, params, lo, hi, objective):
        if objective is ee.FEASIBLE_EFFICIENCY and (lo, hi) == ee.reach_interval(params):
            restarts.append(params.movement_power)
        return original_scan(expansion, params, lo, hi, objective)

    monkeypatch.setattr(ee, "grid_scan", counted_scan)
    base = load_config(GOLDEN / config / "params.cfg") if config else SystemParams()
    # master seed 0 as in the golden sweeps: no trial of tight_power starts feasible
    cfg = small_config(base=base, sweep_variable=variable, sweep_values=values, trials=2,
                       master_seed=0, schemes=bench.SCHEME_ORDER)
    run_sweep(cfg)
    longest = params_for_value(base, variable, values[-1]).region_length
    lattice = int(longest / (base.wavelength / 500)) + 2
    assert gain_reads.lattices == [lattice, lattice]
    # The 1.5-wavelength track's end and rest position are off the lattice: each
    # of a trial's two searches over it (the gain and the rate) adds both, and
    # reads them by kept_gain_and_slope.
    assert gain_reads.evals == []
    assert len(restarts) == (2 * len(values) if config else 0)


def test_added_slice_point_takes_its_kept_read(params):
    """The 1.5-wavelength track of seed 2 peaks at its end, x = 0.015 m, a point
    the lattice misses. The ceiling's gain there is the end's kept point read,
    the read every record of a position takes, not a block read, whose rounding
    differs."""
    region = params_for_value(params, "region", 1.5)
    expansion = instance_for(region, 2)
    ceiling = ee.ee_upper_bound(expansion, region)
    assert ceiling.x == 0.015 == region.region_length
    gain = channel.kept_gain_and_slope(expansion, 0.015)[0]
    assert ceiling.throughput == ee.energy_efficiency(
        region.initial_position, gain, region).throughput


def test_golden_power_sweep_point_reads_and_steps(monkeypatch):
    """The golden power sweep (default params, five powers, 3 trials, seed 0)
    reads the channel at single points 188 times, each off one steering row:
    the rest position, each polish probe and each scheme's reported position
    once per instance (21 kept reads, channel.kept_gain_and_slope, which also
    gives the gain's second derivative), and each solver iterate where it is
    read (167, by gain_and_slope). The steps of every search are pinned with
    them. The solver's 178 SCA subproblems make 280 maximizer searches
    (search.newton_max; no rate floor binds, so newton_root never runs) that
    read the surrogate's slope and curvature 716 times; 167 of them end at a
    root of the slope, with 603 of those reads: 3.6 per root, where Brent's
    method took 6.8. The grid polish makes 12 searches by the same Newton
    steps on each objective's slope and curvature; 6 end at a root, with 18
    reads: 3.0 per root, where Brent's method took 35 (5.8 per root) and the
    kept reads were 36."""
    calls = Counter()
    for module, name in ((channel, "gain_and_slope"), (solver, "solve_subproblem")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)

    def kept(expansion, x, _original=channel.kept_gain_and_slope):
        calls["kept reads"] += x not in expansion.points
        return _original(expansion, x)

    monkeypatch.setattr(channel, "kept_gain_and_slope", kept)

    def searches(caller):
        def newton_max(fd, a, b, x, tol):
            def read(t):
                calls[caller + " reads"] += 1
                return fd(t)
            before = calls[caller + " reads"]
            found = search.newton_max(read, a, b, x, tol)
            calls[caller + " newton_max"] += 1
            if found not in (a, b, x):
                calls[caller + " roots"] += 1
                calls[caller + " reads in roots"] += calls[caller + " reads"] - before
            return found

        def newton_root(*args):
            calls[caller + " newton_root"] += 1
            return search.newton_root(*args)

        return SimpleNamespace(newton_max=newton_max, newton_root=newton_root)

    monkeypatch.setattr(solver, "search", searches("solver"))
    monkeypatch.setattr(ee, "search", searches("polish"))
    run_sweep(SweepConfig(base=SystemParams(), sweep_variable="power",
                          sweep_values=(0.1, 0.5, 1.0, 2.0, 5.0), trials=3, master_seed=0))
    assert dict(calls) == {"gain_and_slope": 167, "kept reads": 21, "solve_subproblem": 178,
                           "solver newton_max": 280, "solver reads": 716, "solver roots": 167,
                           "solver reads in roots": 603, "polish newton_max": 12,
                           "polish reads": 24, "polish roots": 6, "polish reads in roots": 18}
    assert calls["polish reads in roots"] / calls["polish roots"] < 35 / 6  # Brent's


# Run in a fresh interpreter, so that OpenBLAS starts with the thread count given.
_ALONE_EQUALS_SWEEP = """
from maee import bench, harness
from maee.params import SystemParams

for variable, values in (("power", (0.1, 1.0, 5.0)), ("region", (1.0, 4.095, 6.0))):
    cfg = harness.SweepConfig(base=SystemParams(), sweep_variable=variable,
                              sweep_values=values, trials=1, master_seed=3)
    for record in harness.run_trial(cfg, 0):
        expansion = harness.instance_for(cfg.base, record.instance_seed)
        params = harness.params_for_value(cfg.base, variable, record.sweep_value)
        alone = bench.evaluate_schemes(expansion, params)
        assert alone == record.results, (variable, record.sweep_value, alone, record.results)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scheme_records_alone_equal_their_sweep_records(threads):
    """A scheme searching a grid of its own gives the record it gives inside a
    sweep, which reads the trial's grid over the longest region: bit for bit,
    at one and at two BLAS threads."""
    env = {**SRC_ENV, "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-c", _ALONE_EQUALS_SWEEP], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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
    assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()
    assert Path(p1[1]).read_bytes() == Path(p2[1]).read_bytes()


def fake_record(value, trial, ees, feasible):
    results = {}
    for scheme, ee_val, ok in zip(("proposed", "fpa"), ees, feasible):
        results[scheme] = ee.EEBreakdown(x=0.01, ee=ee_val, throughput=ee_val * 0.05,
                                         energy=0.05, feasible=ok)
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
    assert Path(raw_path).read_text() == \
        "sweep_value,trial,scheme,x,ee,throughput,energy,feasible,seed\n"
    assert Path(agg_path).read_text() == "sweep_value,scheme,mean_ee,std_ee,feasible_frac,n\n"


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



@pytest.mark.parametrize("value", [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308,
                                   np.float64(2.0 / 3.0), True, False], ids=repr)
def test_row_templates_write_what_fmt_writes(value):
    """emit_csv writes each row with one %-template (harness.RAW_ROW,
    AGGREGATE_ROW); it equals the row joined from fmt and str on signed zero,
    infinities, nan, a subnormal, 1e308, a numpy float and bools, with flags
    given as bools or numpy bools and a seed past 2^63."""
    for flag in (True, False, np.True_, np.False_):
        assert harness.RAW_ROW % (
            value, 7, "proposed", value, value, value, value, flag, 2**63 + 5) == ",".join((
                fmt(value), "7", "proposed", fmt(value), fmt(value), fmt(value), fmt(value),
                str(int(flag)), str(2**63 + 5)))
    assert harness.AGGREGATE_ROW % (value, "fpa", value, value, value, 12) == ",".join((
        fmt(value), "fpa", fmt(value), fmt(value), fmt(value), "12"))

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
    # a value whose params are invalid: 2e4 wavelengths exceed the longest track
    with pytest.raises(ValueError, match="exceeds"):
        small_config(sweep_values=(1.0, 2e4))


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
    with pytest.raises(ValueError, match="line 3: 'A' already set on line 1"):
        parse_config_text("A = 0.02 m\nL = 4\nA = 0.04 m")
    # values that are not finite, as written or once converted from dB/dBm
    for text in ("L = inf", "A = inf", "P_t = 4000 dBm", "rho_0 = 4000 dB", "P = nan W",
                 "T = inf", "P_t = inf W", "P = -inf dBm"):
        with pytest.raises(ValueError, match="finite"):
            parse_config_text(text)
    # finite path-loss inputs whose path gain variance is zero-divided,
    # complex, negative or overflows
    for text in ("d = 0", "d = -50 m", "alpha_tilde = -1000", "rho_0 = -5", "d = 1e-300 m"):
        with pytest.raises(ValueError):
            parse_config_text(text)


# Each config key with a value valid for it, and the units it takes besides a
# bare number, as the README states them.
KEY_UNITS = {
    "lambda": ("0.01", ("m",)),
    "A": ("0.02", ("m",)),
    "N": ("16", ()),
    "L": ("10", ()),
    "P_t": ("0.01", ("W", "dBm")),
    "P": ("0.5", ("W", "dBm")),
    "v": ("0.2", ("m/s",)),
    "T": ("5", ("s",)),
    "R_TH": ("5", ("bits/Hz",)),
    "sigma2": ("1e-10", ("W", "dBm")),
    "x0": ("0.01", ("m",)),
    "rho_0": ("1e-4", ("dB",)),
    "d": ("50", ("m",)),
    "alpha_tilde": ("2.8", ()),
    "epsilon": ("1e-4", ()),
}
ALL_UNITS = {unit for _, units in KEY_UNITS.values() for unit in units}


@pytest.mark.parametrize("key", sorted(KEY_UNITS))
def test_config_key_takes_a_bare_number_or_its_own_units(key):
    number, units = KEY_UNITS[key]
    bare = parse_config_text(f"{key} = {number}")
    for unit in units:
        parsed = parse_config_text(f"{key} = {number} {unit}")
        if unit not in ("dB", "dBm"):  # a linear unit leaves the number as written
            assert parsed == bare
    for unit in sorted(ALL_UNITS - set(units)):
        with pytest.raises(ValueError, match=f"^line 2: .*{re.escape(unit)}"):
            parse_config_text(f"# a foreign unit\n{key} = {number} {unit}")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "setup.cfg"
    path.write_text("P = 1.5\nL = 6\n")
    parsed = load_config(path)
    assert parsed.movement_power == 1.5
    assert parsed.num_paths == 6


def test_load_config_reads_past_a_byte_order_mark(tmp_path):
    """Many editors start a UTF-8 file with the mark EF BB BF; it is not part of
    the first key."""
    path = tmp_path / "marked.cfg"
    path.write_bytes(b"\xef\xbb\xbfL = 12\n")
    assert load_config(path).num_paths == 12
