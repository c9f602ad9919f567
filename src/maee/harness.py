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
from dataclasses import dataclass, field, replace

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
    movement power in watts. params holds each value's params_for_value,
    built once here: a value that gives invalid params fails at construction.
    """

    base: SystemParams
    sweep_variable: str
    sweep_values: tuple[float, ...]
    trials: int = 200
    master_seed: int = 0
    schemes: tuple[str, ...] = SCHEME_ORDER
    workers: int = 1
    params: tuple[SystemParams, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "params", tuple(
            params_for_value(self.base, self.sweep_variable, v) for v in values))


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

    Every scheme runs at every value. The trial's grid searches read slices
    of the instance's one ee.GainGrid over the longest region, and a search
    whose record's fields repeat across values runs once (ee.grid_max). Equal
    records are kept as one object, held and pickled once.
    """
    seed = mix_seed(cfg.master_seed, trial_index)
    expansion = instance_for(cfg.base, seed)
    # Region sweep values ascend: without the longest lattice first, 4, 8 and 16
    # wavelengths would build 2,002 + 4,002 + 8,002 lattice points, not 8,002.
    ee.gain_grid(expansion, cfg.base.wavelength, max(p.region_length for p in cfg.params))
    seen: dict[ee.EEBreakdown, ee.EEBreakdown] = {}
    records = []
    for value, params in zip(cfg.sweep_values, cfg.params):
        results = bench.evaluate_schemes(expansion, params, cfg.schemes)
        records.append(TrialRecord(
            sweep_value=value, trial=trial_index, instance_seed=seed,
            results={name: seen.setdefault(r, r) for name, r in results.items()}))
    return records


def _run_share(cfg: SweepConfig, share: int, workers: int) -> list[list[TrialRecord]]:
    """run_trial's records for trials share, share + workers, share + 2 workers, ..."""
    return [run_trial(cfg, i) for i in range(share, cfg.trials, workers)]


def _send_share(conn, cfg: SweepConfig, share: int, workers: int, caller_end) -> None:
    """A pool child's work: send _run_share's records, or the exception it raised, down conn.

    caller_end is the pipe's receiving end, which a forked child inherits. It
    is closed first: once the caller is gone, nothing else reads the pipe, and
    a send too large for its buffer then fails instead of waiting forever.
    """
    caller_end.close()
    try:
        result = _run_share(cfg, share, workers)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _run_pooled(cfg: SweepConfig, workers: int) -> list[list[list[TrialRecord]]]:
    """Every share's records: share 0 from this process, each other from its own child.

    Each child gets one one-way pipe and sends one message. The pipes are read
    in share order before any child is joined, since a child blocks until its
    records, which can outgrow the pipe's buffer, have been read. A child's
    exception is raised again here; a child that ends without a message raises
    a RuntimeError. If anything raises here, live children are terminated, and
    no child outlives the call.
    """
    import multiprocessing  # only a pooled sweep loads it

    children, pipes = [], []
    try:
        for share in range(1, workers):
            receive, send = multiprocessing.Pipe(duplex=False)
            pipes.append(receive)
            child = multiprocessing.Process(
                target=_send_share, args=(send, cfg, share, workers, receive), daemon=True)
            child.start()
            children.append(child)
            send.close()  # so the child's exit closes its pipe's last send end
        shares = [_run_share(cfg, 0, workers)]
        for share, (child, receive) in enumerate(zip(children, pipes), start=1):
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep share {share} ended with exit code "
                                   f"{child.exitcode} before sending its records") from None
            if isinstance(result, Exception):
                raise result
            shares.append(result)
        return shares
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for receive in pipes:
            receive.close()


def run_sweep(cfg: SweepConfig) -> tuple[list[TrialRecord], list[AggregateRow]]:
    """Run all trials of a sweep and aggregate them.

    Each trial builds its instance once and evaluates it at every sweep value.
    With workers = min(cfg.workers, cfg.trials), trial i belongs to share
    i % workers. The calling process runs share 0; each other share runs in
    its own child process, started by this call with one pipe for its
    records (_run_pooled). A trial's exception, in any share, is raised
    here, and no child outlives the call. Records are merged in
    (value index, trial index) order, so the output is identical for any
    worker count.
    """
    workers = min(cfg.workers, cfg.trials)
    shares = [_run_share(cfg, 0, 1)] if workers == 1 else _run_pooled(cfg, workers)
    by_trial: list = [None] * cfg.trials
    for share, per_trial in enumerate(shares):
        by_trial[share::workers] = per_trial
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


def fmt(value: float) -> str:
    """value with 12 significant digits, as the CSVs and the CLI write numbers."""
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
                fmt(record.sweep_value), str(record.trial), scheme,
                fmt(r.x), fmt(r.ee), fmt(r.throughput), fmt(r.energy),
                str(int(r.feasible)), str(record.instance_seed),
            )))
    with open(raw_path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(raw_lines) + "\n")

    agg_lines = [AGGREGATE_HEADER]
    for row in aggregates:
        agg_lines.append(",".join((
            fmt(row.sweep_value), row.scheme, fmt(row.mean_ee),
            fmt(row.std_ee), fmt(row.feasible_frac), str(row.n),
        )))
    with open(agg_path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(agg_lines) + "\n")
    return raw_path, agg_path


# Configuration files use the conventional symbol names, one "key = value"
# per line. Each key maps to its SystemParams field and to the units its value
# may carry, each with its conversion to the linear value a bare number gives.
_CONFIG_KEYS = {
    "lambda": ("wavelength", {"m": float}),
    "A": ("region_length", {"m": float}),
    "N": ("num_bs_antennas", {}),
    "L": ("num_paths", {}),
    "P_t": ("max_tx_power", {"W": float, "dBm": dbm_to_watt}),
    "P": ("movement_power", {"W": float, "dBm": dbm_to_watt}),
    "v": ("speed", {"m/s": float}),
    "T": ("block_duration", {"s": float}),
    "R_TH": ("min_throughput", {"bits/Hz": float}),
    "sigma2": ("noise_power", {"W": float, "dBm": dbm_to_watt}),
    "x0": ("initial_position", {"m": float}),
    "rho_0": ("pathloss_ref", {"dB": db_to_linear}),
    "d": ("distance", {"m": float}),
    "alpha_tilde": ("pathloss_exp", {}),
    "epsilon": ("tolerance", {}),
}


def _parse_value(key: str, text: str) -> float | int:
    """The linear value of text: a bare number, or one carrying a unit of key's row."""
    name, units = _CONFIG_KEYS[key]
    tokens = text.split(maxsplit=1)
    try:
        number = float(tokens[0])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed value for {key!r}: {text!r}") from exc
    unit = tokens[1] if len(tokens) == 2 else None
    if unit and unit not in units:
        raise ValueError(f"unit {unit!r} not valid for {key!r}, which takes "
                         f"{' or '.join(units) or 'no unit'}")
    try:
        value = units[unit](number) if unit else number
    except OverflowError:  # the linear value is not finite
        value = math.inf
    if not (math.isfinite(number) and math.isfinite(value)):
        raise ValueError(f"{key!r} must be finite, got {text!r}")
    if type(getattr(SystemParams, name)) is int:
        if value != int(value):
            raise ValueError(f"{key!r} must be an integer, got {text!r}")
        return int(value)
    return value


def parse_config_text(text: str) -> SystemParams:
    """SystemParams from "key = value" lines, a key at most once; unset keys keep defaults."""
    overrides, set_on = {}, {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {raw_line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key in set_on:
                raise ValueError(f"{key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            overrides[_CONFIG_KEYS[key][0]] = _parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return SystemParams(**overrides)


def load_config(path) -> SystemParams:
    """Read a configuration file; see parse_config_text for the format."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return parse_config_text(text)
