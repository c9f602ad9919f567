"""Seeded Monte-Carlo sweeps: efficiency vs region size and movement power.

Every trial index maps to one channel instance, built once and shared by
all schemes and all sweep values, so the curves are paired comparisons. Results land in two
CSV files per sweep (raw trials and aggregates). Trial counts here are small
so the demo runs in seconds; the acceptance suite runs the full 200.
"""

from maee import SweepConfig, SystemParams, emit_csv, run_sweep

TRIALS = 40


def show(cfg, label, unit):
    records, aggregates = run_sweep(cfg)
    paths = emit_csv(records, aggregates, f"results/demo_{cfg.sweep_variable}")
    print(f"{label} ({TRIALS} trials per point, CSVs in {paths[0].rsplit('/', 1)[0]})")
    print(f"{'value':>8} | " + " | ".join(f"{s:>14}" for s in cfg.schemes))
    by_value = {}
    for row in aggregates:
        by_value.setdefault(row.sweep_value, {})[row.scheme] = row.mean_ee
    for value, means in by_value.items():
        cells = " | ".join(f"{means[s]:14.2f}" for s in cfg.schemes)
        print(f"{value:8.2f} | {cells}")
    print()


base = SystemParams()

show(SweepConfig(base=base, sweep_variable="region",
                 sweep_values=(0.5, 1.0, 1.5, 2.0), trials=TRIALS, master_seed=0),
     "mean efficiency vs region size (in wavelengths)", "wl")

show(SweepConfig(base=base, sweep_variable="power",
                 sweep_values=(0.1, 0.5, 1.0, 2.0, 5.0), trials=TRIALS, master_seed=0),
     "mean efficiency vs movement power (W)", "W")

print("Expected shape: the ceiling grows with the region; the optimized scheme")
print("stays above the fixed antenna and collapses onto it as movement power")
print("rises, while the gain-chasing schemes fall off sharply.")
