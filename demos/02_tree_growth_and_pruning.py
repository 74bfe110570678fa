"""
Growing and pruning a segmentation tree
=======================================

A planted synthetic panel has a known three-split tree behind its Tobin's Q,
so we can watch the estimator recover it: grow a deep tree, walk the
cost-complexity schedule, pick a penalty by cross-validation, and export the
result as Graphviz DOT.
"""

import os

from charterseg.synthetic import (
    PlantedLeaf,
    PlantedSplit,
    PlantedTreeSpec,
    generate_synthetic_panel,
    planted_matrix,
)
from charterseg.tree import TreeParams, cv_prune, export_dot, grow

# ------------------------------------------------------------ planted truth
# Banks split first on capital, then thin-capital banks on loan funding and
# well-capitalised ones on profitability. Leaf values are mean Tobin's Q.

spec = PlantedTreeSpec(root=PlantedSplit(
    "capital_ratio", 2.875,
    PlantedSplit("loans_to_deposits", 2.125, PlantedLeaf(0.90), PlantedLeaf(1.00)),
    PlantedSplit("roa", 3.625, PlantedLeaf(1.10), PlantedLeaf(1.25)),
))

panel = generate_synthetic_panel(spec, n=500, noise_sigma=0.005, seed=11)
matrix = planted_matrix(panel, spec)
print(f"panel: {matrix.n_rows} rows, features {matrix.feature_names}")

# ------------------------------------------------------------------- growth
# The unpruned tree keeps splitting while both children can hold min_leaf
# rows and some cut still reduces SSE, so it overshoots the planted size.

params = TreeParams(min_leaf=30)
unpruned = grow(matrix, params)
print(f"unpruned: {unpruned.n_leaves} leaves (planted tree has 4)")

# ------------------------------------------------------------------ pruning
# cv_prune grows fold trees, scores the whole penalty schedule on held-out
# rows, and collapses the full tree at the chosen alpha. The trace records
# the alpha ladder and the CV error surface behind the choice.

pruned, trace = cv_prune(matrix, params, k=10, rule="one_se", seed=1)
print(f"pruned:   {pruned.n_leaves} leaves at alpha {trace.chosen_alpha:.6f}")
print("alpha ladder (leaves -> alpha):")
for size, alpha in zip(trace.subtree_sizes, trace.alphas):
    print(f"  {size:3d} leaves  alpha {alpha:.6f}")

# Node 0 is the root; a fitted tree is a set of preorder node arrays.
print(f"root split: {pruned.feature_names[pruned.feature[0]]} "
      f"< {pruned.threshold[0]} (planted: capital_ratio < 2.875)")

# ------------------------------------------------------------------- export
# The DOT file renders with any Graphviz install: dot -Tpng tree.dot

out_path = os.path.join(os.path.dirname(__file__), "planted_tree.dot")
with open(out_path, "w", encoding="utf-8") as fh:
    fh.write(export_dot(pruned))
print(f"wrote {out_path}")
