"""
Choosing one proxy per risk group with a random forest
======================================================

Each CAMELS-style group offers several candidate ratios. A seeded forest is
grown on all eighteen scored candidates at once, and the permutation
importance (%IncMSE) picks the strongest proxy inside every group.
"""

import numpy as np

from charterseg.forest import ForestParams, grow_forest, permutation_importance
from charterseg.panel import ALL_FIELDS, Panel, compute_raw_proxies
from charterseg.rescale import DEFAULT_PROXY_SPECS, build_scored_matrix
from charterseg.select import select_proxies

# ----------------------------------------------------------------- the data
# A synthetic panel where charter value really is driven by capitalisation:
# Q steps up by 0.2 once equity/assets clears 7%. Every other ratio varies
# too, but independently of Q. A panel row is a tuple in ALL_FIELDS order.

rng = np.random.default_rng(3)
rows = []
for i in range(400):
    ta = float(rng.uniform(800.0, 1200.0))
    cap = float(rng.uniform(0.02, 0.12))
    q = 0.95 + (0.2 if cap > 0.07 else 0.0) + float(rng.normal(0.0, 0.02))
    loans = float(rng.uniform(0.4, 0.7)) * ta
    expense = float(rng.uniform(10.0, 30.0))
    row = dict(
        bank_id=f"b{i:04d}", country="DE", year=2005 + i % 12,
        mve=q * ta - 0.9 * ta, bvl=0.9 * ta, nta=ta,
        equity=cap * ta, total_assets=ta, loans=loans,
        deposits=float(rng.uniform(0.5, 0.8)) * ta,
        loan_loss_allowances=float(rng.uniform(0.005, 0.03)) * loans,
        loan_loss_provisions=float(rng.uniform(0.001, 0.02)) * loans,
        non_interest_expense=expense,
        income=expense / float(rng.uniform(0.4, 0.8)),
        liquid_assets=float(rng.uniform(0.1, 0.3)) * ta,
        roa=float(rng.uniform(0.002, 0.02)),
        roe=float(rng.uniform(0.02, 0.2)),
        loan_growth=float(rng.uniform(-0.05, 0.15)),
        gdp_growth=float(rng.uniform(-0.02, 0.04)),
        beta=float(rng.uniform(0.5, 1.5)),
    )
    rows.append(tuple(row[f] for f in ALL_FIELDS))
panel = Panel(rows, provenance="demo", window=(2005, 2016))

# --------------------------------------------------------- score and forest
matrix = build_scored_matrix(compute_raw_proxies(panel), DEFAULT_PROXY_SPECS)
print(f"scored matrix: {matrix.n_rows} rows x {len(matrix.feature_names)} proxies")

forest = grow_forest(matrix, ForestParams(n_trees=300, min_leaf=10), seed=0)
report = permutation_importance(forest, matrix, seed=1)
print(f"forest OOB MSE: {report.oob_mse:.5f}")

# --------------------------------------------------------------- importance
# stderr is on the raw MSE-delta scale; rescale it by the OOB MSE so the
# band reads in the same percentage points as the importance itself.
order = np.argsort(report.pct_inc_mse)[::-1]
print("\n%IncMSE ranking:")
for j in order:
    band = 100.0 * report.stderr[j] / report.oob_mse
    print(f"  {report.feature_names[j]:8s} {report.pct_inc_mse[j]:7.2f} "
          f"(+- {band:.2f})")

# ---------------------------------------------------------------- selection
# One winner per group, ties broken by catalog order. The capital proxies
# should dominate because only capitalisation moves Q here.

chosen = select_proxies(report, DEFAULT_PROXY_SPECS)
print("\nchosen proxy per group:")
for group, name in chosen.items():
    print(f"  {group}: {name}")
