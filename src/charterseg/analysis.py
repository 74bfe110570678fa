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

from .errors import DegenerateInputError
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
    steps: tuple[PathStep, ...]
    nodes: tuple[int, ...]  # the internal nodes passed, root first

    def describe(self) -> str:
        if not self.steps:
            return "(root)"
        return " -> ".join(s.describe() for s in self.steps)


def leaf_share(tree: RegressionTree, leaf: int) -> float:
    """Fraction of the training rows that ended in this leaf (a node index)."""
    return int(tree.n[leaf]) / tree.total_n


def _leaf_path(tree: RegressionTree, leaf: int) -> LeafPath:
    path, feature, threshold = tree.path(leaf), tree.feature.tolist(), tree.threshold.tolist()
    steps = tuple(PathStep(feature[i], tree.feature_names[feature[i]], threshold[i],
                           "lt" if left else "ge") for i, left in path)
    return LeafPath(leaf, int(tree.n[leaf]), float(tree.mean[leaf]), leaf_share(tree, leaf),
                    steps, tuple(i for i, _ in path))


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


@dataclass(frozen=True)
class Evidence:
    """One split node's contribution to a factor's verdict."""

    feature: int
    name: str
    threshold: float
    low_risk_mean: float  # subtree mean Q on the left (score < threshold) side
    high_risk_mean: float
    aligned: Optional[bool]  # None when the two means tie


@dataclass(frozen=True)
class AlignmentVerdict:
    factor: str
    verdict: str
    evidence: tuple[Evidence, ...]

    @property
    def label(self) -> str:
        return VERDICT_LABELS[self.verdict]


def alignment_verdicts(tree: RegressionTree, paths=None) -> dict[str, AlignmentVerdict]:
    """Judge each factor by the split nodes along the extreme-leaf paths.

    A node splitting on factor X separates a low-risk side (score below the
    threshold) from a high-risk side. If the low-risk side's mean Q exceeds
    the high-risk side's, the node is evidence that X is aligned with
    charter value; the opposite is misaligned evidence. Factors with mixed
    evidence come back ambiguous, untouched factors have no evidence.

    Args:
        tree: pruned tree with per-node stats.
        paths: the (Q^Min, Q^Max) paths; computed from the tree if omitted.

    Returns:
        Verdict per feature name, every tree feature present.
    """
    if paths is None:
        paths = extreme_leaves(tree)
    evidence: dict[str, list[Evidence]] = {name: [] for name in tree.feature_names}
    for i in dict.fromkeys(i for path in paths for i in path.nodes):
        feature = int(tree.feature[i])
        name = tree.feature_names[feature]
        low, high = (float(tree.mean[child]) for child in tree.children(i))
        aligned = None if low == high else bool(low > high)
        evidence[name].append(Evidence(feature, name, float(tree.threshold[i]),
                                       low, high, aligned))

    verdicts = {}
    for name in tree.feature_names:
        judged = [e.aligned for e in evidence[name] if e.aligned is not None]
        if not judged:
            verdict = NO_EVIDENCE
        elif all(judged):
            verdict = ALIGNED
        elif not any(judged):
            verdict = MISALIGNED
        else:
            verdict = AMBIGUOUS
        verdicts[name] = AlignmentVerdict(name, verdict, tuple(evidence[name]))
    return verdicts


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


def group_comparison(min_vars: dict[str, np.ndarray], max_vars: dict[str, np.ndarray],
                     directions: dict[str, Optional[str]]) -> tuple[ComparisonRow, ...]:
    """Contrast raw variables between the Q^Min and Q^Max leaf populations.

    Args:
        min_vars / max_vars: variable name -> raw values for the rows in the
            respective extreme leaf; both must share the same keys.
        directions: raw risk direction per variable ("increasing" means a
            bigger raw value is riskier); None for variables like Q that
            carry no risk orientation.

    Returns:
        One row per variable: group means, KS distance and p-value, the
        usual significance stars (10/5/1%), and which group looks less
        risky under the raw direction.
    """
    if set(min_vars) != set(max_vars):
        raise DegenerateInputError("both groups must provide the same variables")
    rows = []
    for name in min_vars:
        a = np.asarray(min_vars[name], dtype=float)
        b = np.asarray(max_vars[name], dtype=float)
        a = a[np.isfinite(a)]
        b = b[np.isfinite(b)]
        if a.size == 0 or b.size == 0:
            raise DegenerateInputError(f"variable {name!r} has an empty group")
        d, p = ks_two_sample(a, b)
        direction = directions.get(name)
        ma, mb = float(a.mean()), float(b.mean())
        if direction is None or ma == mb:
            lower = None
        elif direction == INCREASING:
            lower = "qmin" if ma < mb else "qmax"
        elif direction == DECREASING:
            lower = "qmin" if ma > mb else "qmax"
        else:
            raise DegenerateInputError(f"bad direction {direction!r} for {name!r}")
        rows.append(ComparisonRow(name, ma, mb, d, p, significance_stars(p), lower))
    return tuple(rows)
