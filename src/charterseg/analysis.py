"""Reading a pruned tree: extreme leaves, alignment verdicts, group contrasts.

The leaf with the lowest mean Q marks the weakest charter-value segment
(Q^Min) and the highest marks the strongest (Q^Max). At every split along
those two root-to-leaf paths the low-score side is the lower-risk side, so
comparing subtree mean Q across the split says whether charter value and
measured risk move together: low-risk side richer = aligned evidence,
poorer = misaligned. Factors can also be contrasted directly between the
two extreme leaves' populations with KS tests on the raw ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, echo
from .rescale import DECREASING, INCREASING, ScoredMatrix
from .stats import ks_two_sample
from .tree import RegressionTree, extreme_leaf_indices

ALIGNED = "aligned"
MISALIGNED = "misaligned"
AMBIGUOUS = "ambiguous"
NO_EVIDENCE = "no_evidence"

VERDICT_LABELS = {ALIGNED: "Yes", MISALIGNED: "No", AMBIGUOUS: "Ambig", NO_EVIDENCE: "-"}


@dataclass(frozen=True)
class PathStep:
    node: int  # the split node's index in the tree
    feature: int
    name: str
    threshold: float
    side: str  # "lt" when the path goes left (value < threshold), else "ge"

    def describe(self) -> str:
        op = "<" if self.side == "lt" else ">="
        return f"{self.name} {op} {self.threshold:.3f}"


@dataclass(frozen=True)
class LeafPath:
    leaf: int  # node index in the tree
    n: int
    mean: float
    share: float
    steps: tuple[PathStep, ...]  # root first

    def describe(self) -> str:
        if not self.steps:
            return "(root)"
        return " -> ".join(s.describe() for s in self.steps)


def _leaf_path(tree: RegressionTree, leaf: int) -> LeafPath:
    path, feature, threshold = tree.path(leaf), tree.feature.tolist(), tree.threshold.tolist()
    steps = tuple(PathStep(i, feature[i], tree.feature_names[feature[i]], threshold[i],
                           "lt" if left else "ge") for i, left in path)
    n = int(tree.n[leaf])
    return LeafPath(leaf, n, float(tree.mean[leaf]), n / tree.total_n, steps)


def extreme_leaves(tree: RegressionTree) -> tuple[LeafPath, LeafPath]:
    """Root-to-leaf paths of the minimum- and maximum-mean leaves (Q^Min, Q^Max).

    Mean ties break to the larger leaf, then the leftmost one.
    """
    lo, hi = extreme_leaf_indices(tree)
    return _leaf_path(tree, lo), _leaf_path(tree, hi)


def path_rows(matrix: ScoredMatrix, path: LeafPath) -> np.ndarray:
    """Boolean mask of the matrix rows satisfying the path's conjunction."""
    mask = np.ones(matrix.n_rows, dtype=bool)
    for step in path.steps:
        col = matrix.scores[:, step.feature]
        mask &= (col < step.threshold) if step.side == "lt" else (col >= step.threshold)
    return mask


def alignment_verdicts(tree: RegressionTree, paths) -> dict[str, str]:
    """Judge each factor by the split nodes along the extreme-leaf paths.

    A node splitting on factor X separates a low-risk side (score below the
    threshold) from a high-risk side. If the low-risk side's mean Q exceeds
    the high-risk side's, the node is evidence that X is aligned with
    charter value; the opposite is misaligned evidence, and equal means are
    no evidence. Factors with mixed evidence come back ambiguous, untouched
    factors have no evidence. A path step's evidence stays readable from the
    tree: the subtree means of its `node` are `tree.mean` at
    `tree.children(node)`.

    Args:
        tree: pruned tree with per-node stats.
        paths: the (Q^Min, Q^Max) paths, as extreme_leaves returns them.

    Returns:
        ALIGNED, MISALIGNED, AMBIGUOUS or NO_EVIDENCE per feature name, every
        tree feature present, in tree.feature_names order; VERDICT_LABELS maps
        each to its report label.
    """
    judged: dict[str, set[bool]] = {name: set() for name in tree.feature_names}
    for i in {step.node for path in paths for step in path.steps}:
        low, high = (float(tree.mean[child]) for child in tree.children(i))
        if low != high:
            judged[tree.feature_names[int(tree.feature[i])]].add(low > high)
    outcome = {frozenset(): NO_EVIDENCE, frozenset({True}): ALIGNED,
               frozenset({False}): MISALIGNED, frozenset({True, False}): AMBIGUOUS}
    return {name: outcome[frozenset(seen)] for name, seen in judged.items()}


@dataclass(frozen=True)
class ComparisonRow:
    variable: str
    mean_min: float
    mean_max: float
    ks_d: float
    p_value: float
    stars: str
    lower_risk: Optional[str]  # "qmin" / "qmax" by raw direction, None without one


def significance_stars(p: float) -> str:
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def group_comparison(columns) -> tuple[ComparisonRow, ...]:
    """Contrast raw variables between the Q^Min and Q^Max leaf populations.

    Args:
        columns: one (variable, qmin_values, qmax_values, direction) per
            variable: its name, its raw values for the rows in each extreme
            leaf, and its raw risk direction ("increasing" means a bigger raw
            value is riskier), or None for variables like Q that carry no
            risk orientation.

    Returns:
        One row per variable: group means, KS distance and p-value, the
        usual significance stars (10/5/1%), and which group looks less
        risky under the raw direction.
    """
    rows = []
    for name, a, b, direction in columns:
        a, b = (np.asarray(v, dtype=float) for v in (a, b))
        a, b = a[np.isfinite(a)], b[np.isfinite(b)]
        if a.size == 0 or b.size == 0:
            raise DegenerateInputError(f"variable {echo(name)} has an empty group")
        d, p = ks_two_sample(a, b)
        ma, mb = float(a.mean()), float(b.mean())
        if direction is None or ma == mb:
            lower = None
        elif direction == INCREASING:
            lower = "qmin" if ma < mb else "qmax"
        elif direction == DECREASING:
            lower = "qmin" if ma > mb else "qmax"
        else:
            raise DegenerateInputError(f"bad direction {echo(direction)} for {echo(name)}")
        rows.append(ComparisonRow(name, ma, mb, d, p, significance_stars(p), lower))
    return tuple(rows)
