"""
A full segmentation study, end to end
=====================================

Everything the CLI's `study` subcommand does, driven from Python: load a
panel CSV, run the configured subsamples, and write the report bundle. The
same master seed always produces a byte-identical bundle.
"""

import csv
import os
import shutil

import numpy as np

from charterseg.config import parse_config
from charterseg.study import run_study, write_study

HERE = os.path.dirname(__file__)
CSV_PATH = os.path.join(HERE, "demo_panel.csv")
OUT_DIR = os.path.join(HERE, "study_out")

HEADER = [
    "bank_id", "country", "year", "mve", "bvl", "nta", "equity",
    "total_assets", "loans", "deposits", "loan_loss_allowances",
    "loan_loss_provisions", "non_interest_expense", "income",
    "liquid_assets", "roa", "roe", "loan_growth", "gdp_growth", "beta",
]

# -------------------------------------------------------------- a panel CSV
# 30 banks over 2005-2014. Q steps up with capitalisation, everything else
# is independent noise, so the trees should segment on the C factor.

rng = np.random.default_rng(12)
with open(CSV_PATH, "w", newline="", encoding="utf-8") as fh:
    writer = csv.writer(fh)
    writer.writerow(HEADER)
    for b in range(30):
        for year in range(2005, 2015):
            ta = rng.uniform(800.0, 1200.0)
            cap = rng.uniform(0.02, 0.12)
            q = 0.95 + (0.2 if cap > 0.07 else 0.0) + rng.normal(0.0, 0.01)
            loans = rng.uniform(0.4, 0.7) * ta
            writer.writerow([
                f"b{b:03d}", ("DE", "FR", "ES", "GR")[b % 4], year,
                q * ta - 0.9 * ta, 0.9 * ta, ta, cap * ta, ta, loans,
                rng.uniform(0.5, 0.8) * ta,
                rng.uniform(0.005, 0.03) * loans,
                rng.uniform(0.001, 0.02) * loans,
                rng.uniform(10.0, 30.0), rng.uniform(30.0, 60.0),
                rng.uniform(0.1, 0.3) * ta,
                rng.uniform(0.002, 0.02), rng.uniform(0.02, 0.2),
                rng.uniform(-0.05, 0.15), rng.uniform(-0.02, 0.04),
                rng.uniform(0.5, 1.5),
            ])
print(f"wrote {CSV_PATH}")

# ------------------------------------------------------------ configuration
# The same JSON document the CLI takes via --config.

config = parse_config({
    "data": {"path": CSV_PATH},
    "subsamples": [
        {"name": "all", "criterion": {"kind": "all"}},
        {"name": "pre_crisis", "criterion": {"kind": "years",
                                             "start": 2005, "end": 2007}},
        {"name": "pigs", "criterion": {"kind": "countries", "group": "pigs"}},
    ],
    "tree": {"min_leaf": 20, "cv_folds": 5},
    "forest": {"n_trees": 100},
    "seed": 7,
    "out": OUT_DIR,
})

# -------------------------------------------------------------------- study
result = run_study(config, jobs=2)
shutil.rmtree(OUT_DIR, ignore_errors=True)  # write_study refuses to mix two runs' files
write_study(result, OUT_DIR)

for r in result.results:
    print(f"\n[{r.name}] status={r.status} rows={r.n_rows}")
    if r.status != "ok":
        print(f"  reason: {r.reason}")
        continue
    print(f"  selected: {' '.join(f'{g}={n}' for g, n in r.chosen)}")
    print(f"  tree: {r.tree.n_leaves} leaves")
    print(f"  Q^Min {r.qmin.mean:.3f} via {r.qmin.describe()}")
    print(f"  Q^Max {r.qmax.mean:.3f} via {r.qmax.describe()}")
    print("  verdicts: " + " | ".join(f"{f}:{v}" for f, v in r.verdicts))

print(f"\nbundle in {OUT_DIR}: report.md, tables/, trees/")
