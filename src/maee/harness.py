"""Seeded Monte-Carlo sweeps over region size and movement power, with CSV output.

Per-trial seeds come from a splittable mix of the master seed and the trial
index, so neither execution order nor worker count can change a result. The
channel distribution does not depend on either sweep variable, so a trial
samples and expands its instance once and evaluates every scheme on it at
every sweep value. The sweep curves are therefore paired comparisons in both
directions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bench, channel, ee
from .bench import SCHEME_ORDER
from .params import SystemParams, db_to_linear, dbm_to_watt

SWEEP_VARIABLES = ("region", "power")

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, *indices: int) -> int:
    """Splittable seed derivation; independent of execution order and worker count."""
    seed = _splitmix64(master_seed & _MASK64)
    for index in indices:
        seed = _splitmix64((seed + index) & _MASK64)
    return seed


@dataclass(frozen=True)
class SweepConfig:
    """One Monte-Carlo experiment: a parameter sweep with paired trials.

    sweep_variable "region" interprets the values as region lengths in
    wavelengths (the normalized region size); "power" interprets them as the
    movement power in watts.
    """

    base: SystemParams
    sweep_variable: str
    sweep_values: tuple[float, ...]
    trials: int = 200
    master_seed: int = 0
    schemes: tuple[str, ...] = SCHEME_ORDER
    workers: int = 1

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        values = tuple(float(v) for v in self.sweep_values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        object.__setattr__(self, "sweep_values", values)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        unknown = set(self.schemes) - set(SCHEME_ORDER)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("need at least one worker")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Every scheme's efficiency record for one instance, plus the seed that regenerates it."""

    sweep_value: float
    trial: int
    instance_seed: int
    results: dict[str, ee.EEBreakdown]


@dataclass(frozen=True)
class AggregateRow:
    """Per (sweep value, scheme) summary; means cover feasible trials only."""

    sweep_value: float
    scheme: str
    mean_ee: float
    std_ee: float
    feasible_frac: float
    n: int


def params_for_value(base: SystemParams, variable: str, value: float) -> SystemParams:
    """Scenario constants for one sweep point; the rest position is recentered."""
    if variable == "region":
        region = value * base.wavelength
        return replace(base, region_length=region, initial_position=region / 2.0)
    if variable == "power":
        return replace(base, movement_power=value,
                       initial_position=base.region_length / 2.0)
    raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}")


def instance_for(params: SystemParams, seed: int) -> channel.GainExpansion:
    """The gain expansion of the environment drawn from seed under params."""
    instance = channel.sample_instance(params, np.random.default_rng(seed))
    return channel.build_expansion(instance, params.wavelength)


def run_trial(cfg: SweepConfig, trial_index: int) -> list[TrialRecord]:
    """One record per sweep value, all from one instance drawn and expanded from cfg.base.

    Every grid search of the trial reads a slice of one ee.GainGrid over the
    longest region of the sweep; no record holds it. Sweep values whose params
    differ only in movement power (a power sweep) also share what
    bench.evaluate_schemes may reuse: the same result object of each
    bench.MOVEMENT_POWER_FREE scheme, and the position of each
    bench.MOVEMENT_POWER_FREE_POSITION scheme, searched once.
    """
    seed = mix_seed(cfg.master_seed, trial_index)
    expansion = instance_for(cfg.base, seed)
    values = [(v, params_for_value(cfg.base, cfg.sweep_variable, v)) for v in cfg.sweep_values]
    grid = ee.gain_grid(expansion, cfg.base.wavelength, max(p.region_length for _, p in values))
    shared: dict[SystemParams, dict[str, ee.EEBreakdown]] = {}
    records = []
    for value, params in values:
        known = shared.setdefault(replace(params, movement_power=0.0), {})
        results = bench.evaluate_schemes(expansion, params, cfg.schemes, known, grid=grid)
        known.update(results)
        records.append(TrialRecord(sweep_value=value, trial=trial_index,
                                   instance_seed=seed, results=results))
    return records


def run_sweep(cfg: SweepConfig) -> tuple[list[TrialRecord], list[AggregateRow]]:
    """Run all trials of a sweep and aggregate them.

    Each trial builds its instance once and evaluates it at every sweep value;
    with workers > 1 the trials run in a process pool. Records are merged in
    (value index, trial index) order either way, so the output is identical
    for any worker count.
    """
    trial = partial(run_trial, cfg)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            by_trial = list(pool.map(trial, range(cfg.trials)))
    else:
        by_trial = list(map(trial, range(cfg.trials)))
    records = [record for per_value in zip(*by_trial) for record in per_value]
    return records, aggregate(records, cfg.schemes)


def aggregate(records: list[TrialRecord], schemes=SCHEME_ORDER) -> list[AggregateRow]:
    """Mean/std efficiency and feasible fraction per (sweep value, scheme).

    Infeasible trials stay in the raw records but are excluded from the mean
    and std; n counts the trials the mean covers. std is the population value.
    """
    groups: dict[float, list[TrialRecord]] = {}
    for record in records:
        groups.setdefault(record.sweep_value, []).append(record)
    rows = []
    for value, group in groups.items():
        for scheme in (s for s in SCHEME_ORDER if s in schemes):
            outcomes = [r.results[scheme] for r in group if scheme in r.results]
            feasible = [o.ee for o in outcomes if o.feasible]
            count = len(feasible)
            rows.append(AggregateRow(
                sweep_value=value,
                scheme=scheme,
                mean_ee=float(np.mean(feasible)) if count else math.nan,
                std_ee=float(np.std(feasible)) if count else math.nan,
                feasible_frac=count / len(outcomes) if outcomes else math.nan,
                n=count,
            ))
    return rows


RAW_HEADER = "sweep_value,trial,scheme,x,ee,throughput,energy,feasible,seed"
AGGREGATE_HEADER = "sweep_value,scheme,mean_ee,std_ee,feasible_frac,n"


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def emit_csv(records: list[TrialRecord], aggregates: list[AggregateRow],
             out_dir) -> tuple[str, str]:
    """Write raw.csv and aggregate.csv under out_dir; returns the two paths.

    Numbers carry 12 significant digits; feasibility is 0/1. Unwritable
    locations raise the underlying OSError, which names the path.
    """
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(os.fspath(out_dir), "raw.csv")
    agg_path = os.path.join(os.fspath(out_dir), "aggregate.csv")

    raw_lines = [RAW_HEADER]
    for record in records:
        for scheme in (s for s in SCHEME_ORDER if s in record.results):
            r = record.results[scheme]
            raw_lines.append(",".join((
                _fmt(record.sweep_value), str(record.trial), scheme,
                _fmt(r.x), _fmt(r.ee), _fmt(r.throughput), _fmt(r.energy),
                str(int(r.feasible)), str(record.instance_seed),
            )))
    with open(raw_path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(raw_lines) + "\n")

    agg_lines = [AGGREGATE_HEADER]
    for row in aggregates:
        agg_lines.append(",".join((
            _fmt(row.sweep_value), row.scheme, _fmt(row.mean_ee),
            _fmt(row.std_ee), _fmt(row.feasible_frac), str(row.n),
        )))
    with open(agg_path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(agg_lines) + "\n")
    return raw_path, agg_path


# Configuration files use the conventional symbol names, one "key = value"
# per line; dB/dBm units are converted here so everything downstream is
# linear watts.
_CONFIG_KEYS = {
    "lambda": "wavelength",
    "A": "region_length",
    "N": "num_bs_antennas",
    "L": "num_paths",
    "P_t": "max_tx_power",
    "P": "movement_power",
    "v": "speed",
    "T": "block_duration",
    "R_TH": "min_throughput",
    "sigma2": "noise_power",
    "x0": "initial_position",
    "rho_0": "pathloss_ref",
    "d": "distance",
    "alpha_tilde": "pathloss_exp",
    "epsilon": "tolerance",
}
_INT_KEYS = {"N", "L"}
_POWER_KEYS = {"P_t", "P", "sigma2"}
_RATIO_KEYS = {"rho_0"}
_PLAIN_UNITS = {"", "W", "m", "s", "m/s", "bits/Hz"}


def _parse_value(key: str, text: str) -> float | int:
    tokens = text.split()
    if not tokens or len(tokens) > 2:
        raise ValueError(f"malformed value for {key!r}: {text!r}")
    try:
        number = float(tokens[0])
    except ValueError as exc:
        raise ValueError(f"malformed value for {key!r}: {text!r}") from exc
    if not math.isfinite(number):
        raise ValueError(f"{key!r} must be finite, got {text!r}")
    unit = tokens[1] if len(tokens) == 2 else ""
    try:
        if unit == "dBm":
            if key not in _POWER_KEYS:
                raise ValueError(f"unit dBm not valid for {key!r}")
            number = dbm_to_watt(number)
        elif unit == "dB":
            if key not in _RATIO_KEYS:
                raise ValueError(f"unit dB not valid for {key!r}")
            number = db_to_linear(number)
        elif unit not in _PLAIN_UNITS:
            raise ValueError(f"unknown unit {unit!r} for {key!r}")
    except OverflowError as exc:  # the linear value is not finite
        raise ValueError(f"{key!r} must be finite, got {text!r}") from exc
    if key in _INT_KEYS:
        if number != int(number):
            raise ValueError(f"{key!r} must be an integer, got {text!r}")
        return int(number)
    return number


def parse_config_text(text: str) -> SystemParams:
    """Build SystemParams from "key = value" lines; unset keys keep defaults."""
    overrides = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        overrides[_CONFIG_KEYS[key]] = _parse_value(key, value)
    return replace(SystemParams(), **overrides)


def load_config(path) -> SystemParams:
    """Read a configuration file; see parse_config_text for the format."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
