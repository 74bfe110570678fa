"""CART regression trees with cost-complexity pruning.

Splits minimise within-node sum of squared errors. Candidate thresholds sit
at midpoints between consecutive distinct sorted feature values; rows route
left when value < threshold and right otherwise, so training rows reproduce
the fitted partition exactly. Pruning follows the weakest-link sequence with
k-fold cross-validated selection of the complexity penalty. A tree's collapse
schedule is computed once; CV routes each test row once through a fold tree
and reads its prediction at every candidate penalty off the row's path.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, DegenerateInputError, EmptyModelError, ParseError
from .rescale import ScoredMatrix
from .seeding import make_rng


@dataclass(frozen=True)
class SplitRule:
    feature: int
    threshold: float


@dataclass(frozen=True)
class Leaf:
    n: int
    mean: float
    sse: float


@dataclass(frozen=True)
class Internal:
    split: SplitRule
    left: "TreeNode"
    right: "TreeNode"
    n: int
    mean: float
    sse: float


TreeNode = Union[Leaf, Internal]


def preorder(node: TreeNode) -> list[TreeNode]:
    """Every node of a subtree, each before its left and then its right subtree."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Internal):
            stack += [node.right, node.left]
    return out


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 30
    max_depth: Optional[int] = None

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True)
class RegressionTree:
    root: TreeNode
    feature_names: tuple[str, ...]
    params: TreeParams
    total_n: int

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf mean for each row of X (left when value < threshold)."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if isinstance(node, Leaf):
                out[idx] = node.mean
                continue
            go_left = X[idx, node.split.feature] < node.split.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def leaves(self) -> list[Leaf]:
        """Leaves in left-to-right (preorder) order."""
        return [node for node in preorder(self.root) if isinstance(node, Leaf)]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())


def node_sse(responses) -> tuple[float, float]:
    """Mean and sum of squared errors around it for one node's responses."""
    y = np.asarray(responses, dtype=float)
    if y.size == 0:
        raise DegenerateInputError("a node cannot be empty")
    mean = float(y.mean())
    d = y - mean
    return mean, float(d @ d)


def _candidate_gains(x: np.ndarray, yc: np.ndarray, min_leaf: int):
    """Best cut of one feature on centred responses: (gain, threshold) or None.

    With yc centred at the node mean, the SSE reduction of cutting after
    sorted position i is sum_L^2/n_L + sum_R^2/n_R - sum^2/n, which avoids
    the cancellation of large squared sums.
    """
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = yc[order]
    cum = np.cumsum(ys)
    total = cum[-1]
    sizes = np.arange(1, n)
    left_sum = cum[:-1]
    gains = (left_sum ** 2 / sizes
             + (total - left_sum) ** 2 / (n - sizes)
             - total ** 2 / n)
    valid = (xs[1:] > xs[:-1]) & (sizes >= min_leaf) & ((n - sizes) >= min_leaf)
    if not valid.any():
        return None
    gains = np.where(valid, gains, -np.inf)
    j = int(np.argmax(gains))  # first maximum = smallest qualifying threshold
    gain = float(gains[j])
    if gain <= 0.0:
        return None
    thr = (xs[j] + xs[j + 1]) / 2.0
    if thr <= xs[j]:  # adjacent floats can round the midpoint onto the left value
        thr = float(xs[j + 1])
    return gain, float(thr)


def best_split(X: np.ndarray, y: np.ndarray, min_leaf: int,
               feature_indices=None) -> Optional[tuple[SplitRule, float]]:
    """Exhaustive best SSE-reducing split over the given rows.

    Args:
        X: (n, m) feature values for the node's rows.
        y: (n,) responses.
        min_leaf: both children must keep at least this many rows.
        feature_indices: optional candidate features (ascending); all by default.

    Returns:
        (SplitRule, gain) with gain in raw SSE units, or None when no cut
        satisfies min_leaf on both sides with a positive gain. Ties break to
        the lowest feature index, then the smallest threshold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < 2 * min_leaf:
        return None
    yc = y - y.mean()
    features = range(X.shape[1]) if feature_indices is None else feature_indices
    best = None
    for f in features:
        cand = _candidate_gains(X[:, f], yc, min_leaf)
        if cand is None:
            continue
        gain, thr = cand
        if best is None or gain > best[1]:
            best = (SplitRule(int(f), thr), gain)
    return best


def _build(X, y, idx, depth, params: TreeParams,
           pick_features: Optional[Callable[[], np.ndarray]] = None) -> TreeNode:
    ysub = y[idx]
    mean, sse = node_sse(ysub)
    n = idx.size
    if n < 2 * params.min_leaf:
        return Leaf(int(n), mean, sse)
    if params.max_depth is not None and depth >= params.max_depth:
        return Leaf(int(n), mean, sse)
    cand = pick_features() if pick_features is not None else None
    found = best_split(X[idx], ysub, params.min_leaf, feature_indices=cand)
    if found is None:
        return Leaf(int(n), mean, sse)
    rule, _ = found
    go_left = X[idx, rule.feature] < rule.threshold
    left = _build(X, y, idx[go_left], depth + 1, params, pick_features)
    right = _build(X, y, idx[~go_left], depth + 1, params, pick_features)
    return Internal(rule, left, right, int(n), mean, sse)


def grow(matrix: ScoredMatrix, params: TreeParams = TreeParams()) -> RegressionTree:
    """Grow a CART tree on a scored matrix.

    Splits recursively while a node holds at least 2*min_leaf rows, some cut
    has positive gain, and both children keep min_leaf rows. max_depth, when
    set, caps the recursion (0 means a single leaf).
    """
    n = matrix.n_rows
    if n < params.min_leaf:
        raise EmptyModelError(f"need at least min_leaf={params.min_leaf} rows, got {n}")
    root = _build(matrix.scores, matrix.response, np.arange(n), 0, params)
    return RegressionTree(root, matrix.feature_names, params, n)


def _collapse_schedule(root: TreeNode) -> list[tuple[float, Internal, int]]:
    """Weakest-link collapses in order, as (penalty, node, leaves removed).

    Each step folds the internal node of least g = (its SSE - its leaves' SSE)
    / (its leaves - 1), ties to the earlier in preorder, until the root is a
    leaf. A step's penalty is the largest g so far (g need not ascend), so
    pruning at alpha takes exactly the steps whose penalty is at most alpha.
    """
    nodes = preorder(root)
    at = {id(t): i for i, t in enumerate(nodes)}
    internal = [i for i, t in enumerate(nodes) if isinstance(t, Internal)]
    parent = {at[id(c)]: i for i in internal for c in (nodes[i].left, nodes[i].right)}
    leaves, leaf_sse = [1] * len(nodes), [t.sse for t in nodes]
    stamp = [0] * len(nodes)  # heap entries with another stamp are stale

    def refresh(i: int) -> tuple[float, int, int]:
        left, right = at[id(nodes[i].left)], at[id(nodes[i].right)]
        leaves[i], leaf_sse[i] = leaves[left] + leaves[right], leaf_sse[left] + leaf_sse[right]
        stamp[i] += 1
        return (nodes[i].sse - leaf_sse[i]) / (leaves[i] - 1), i, stamp[i]

    heap = [refresh(i) for i in reversed(internal)]  # children before their parent
    heapq.heapify(heap)
    size = [2 * count - 1 for count in leaves]  # a subtree is contiguous in preorder
    steps, penalty = [], -np.inf
    while heap:
        g, i, s = heapq.heappop(heap)
        if s == stamp[i]:
            penalty = max(penalty, g)
            steps.append((penalty, nodes[i], leaves[i] - 1))
            # A collapse changes only its ancestors' g; re-add their leaf SSE sums.
            stamp[i:i + size[i]] = [-1] * size[i]
            leaves[i], leaf_sse[i] = 1, nodes[i].sse
            while i in parent:
                i = parent[i]
                heapq.heappush(heap, refresh(i))
    return steps


def _cut(node: TreeNode, cut: set[int]) -> TreeNode:
    if isinstance(node, Leaf) or id(node) in cut:
        return Leaf(node.n, node.mean, node.sse)
    return Internal(node.split, _cut(node.left, cut), _cut(node.right, cut),
                    node.n, node.mean, node.sse)


def prune_at(tree: RegressionTree, alpha: float) -> RegressionTree:
    """Collapse internal nodes while the weakest link costs at most alpha."""
    cut = {id(node) for penalty, node, _ in _collapse_schedule(tree.root) if penalty <= alpha}
    return RegressionTree(_cut(tree.root, cut), tree.feature_names, tree.params, tree.total_n)


@dataclass(frozen=True)
class PruneTrace:
    """Weakest-link collapse schedule plus the CV evidence used to cut it.

    alphas[i] is the penalty at which collapse step i happens; subtree_sizes
    holds the leaf counts of the nested subtrees T_0 (full) .. T_K (root).
    eval_alphas are the representative penalties scored by CV (0, geometric
    midpoints, last collapse), one per subtree; cv_mse is (eval, fold).
    """

    alphas: tuple[float, ...]
    subtree_sizes: tuple[int, ...]
    eval_alphas: tuple[float, ...] = ()
    cv_mse: Optional[np.ndarray] = None
    chosen_alpha: Optional[float] = None
    rule: str = ""


def cost_complexity_sequence(tree: RegressionTree) -> PruneTrace:
    """Strictly ascending collapse penalties and the nested subtree sizes."""
    alphas, sizes = [], [tree.n_leaves]
    for penalty, _, removed in _collapse_schedule(tree.root):
        # Steps sharing a penalty fold together, so alphas strictly ascend.
        if not alphas or penalty > alphas[-1]:
            alphas.append(float(penalty))
            sizes.append(sizes[-1])
        sizes[-1] -= removed
    return PruneTrace(tuple(alphas), tuple(sizes))


def _fold_tree(matrix: ScoredMatrix, train_idx: np.ndarray, params: TreeParams) -> RegressionTree:
    sub = matrix.take(train_idx)
    if sub.n_rows < params.min_leaf:
        mean, sse = node_sse(sub.response)
        return RegressionTree(Leaf(sub.n_rows, mean, sse), matrix.feature_names,
                              params, sub.n_rows)
    return grow(sub, params)


def _pruned_predictions(tree: RegressionTree, X: np.ndarray, alphas) -> np.ndarray:
    """prune_at(tree, alpha).predict_batch(X) for every alpha, as (alphas, rows).

    Each row is routed once. At alpha it stops at the first node on its path
    whose penalty is at most alpha (every ancestor's exceeds it), else at its leaf.
    """
    penalties = {id(node): penalty for penalty, node, _ in _collapse_schedule(tree.root)}
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty((alphas.size, X.shape[0]))
    stack = [(tree.root, np.arange(X.shape[0]), np.inf)]
    while stack:
        node, rows, above = stack.pop()
        penalty = penalties.get(id(node), np.inf) if isinstance(node, Internal) else -np.inf
        out[np.ix_((penalty <= alphas) & (alphas < above), rows)] = node.mean
        if isinstance(node, Internal):
            go_left = X[rows, node.split.feature] < node.split.threshold
            stack.append((node.left, rows[go_left], min(above, penalty)))
            stack.append((node.right, rows[~go_left], min(above, penalty)))
    return out


def cv_prune(matrix: ScoredMatrix, params: TreeParams = TreeParams(), k: int = 10,
             rule: str = "min_cv", seed: int = 0) -> tuple[RegressionTree, PruneTrace]:
    """Grow on all rows, pick a penalty by k-fold CV, prune at it.

    Args:
        matrix: scored rows; needs at least k rows.
        params: tree growth parameters used for the full and fold trees.
        k: number of CV folds (sizes differ by at most one row); the fold
            partition is a seeded shuffle and each fold serves as test once.
        rule: "min_cv" picks the penalty with the lowest mean test MSE
            (largest such penalty on ties); "one_se" picks the largest
            penalty within one standard error of that minimum.
        seed: fold partition seed; the same seed reproduces the same choice.

    Returns:
        (pruned tree, PruneTrace with CV results filled in).
    """
    if rule not in ("min_cv", "one_se"):
        raise ConfigError(f"unknown pruning rule {rule!r}")
    n = matrix.n_rows
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} rows into {k} folds")

    full = grow(matrix, params)
    trace = cost_complexity_sequence(full)
    if not trace.alphas:
        return full, PruneTrace((), (1,), (0.0,), None, 0.0, rule)

    alphas = trace.alphas
    evals = [0.0, *(float(np.sqrt(a * b)) for a, b in zip(alphas[:-1], alphas[1:])), alphas[-1]]

    rng = make_rng(seed)
    folds = np.array_split(rng.permutation(n), k)
    cv = np.empty((len(evals), k))
    for fi, test_idx in enumerate(folds):
        fold_tree = _fold_tree(matrix, np.setdiff1d(np.arange(n), test_idx), params)
        preds = _pruned_predictions(fold_tree, matrix.scores[test_idx], evals)
        cv[:, fi] = np.mean((preds - matrix.response[test_idx]) ** 2, axis=1)

    means = cv.mean(axis=1)
    best = 0
    for i in range(len(evals)):
        if means[i] <= means[best]:
            best = i
    if rule == "one_se":
        se = float(np.std(cv[best], ddof=1) / np.sqrt(k))
        limit = means[best] + se
        for i in range(len(evals)):
            if means[i] <= limit:
                best = i
    chosen = float(evals[best])
    pruned = prune_at(full, chosen)
    return pruned, PruneTrace(alphas, trace.subtree_sizes, tuple(evals), cv, chosen, rule)


def extreme_leaf_indices(tree: RegressionTree) -> tuple[int, int]:
    """Preorder leaf positions of the minimum- and maximum-mean leaves.

    Ties break to the larger leaf, then the leftmost position.
    """
    leaves = tree.leaves()
    lo = min(range(len(leaves)), key=lambda i: (leaves[i].mean, -leaves[i].n))
    hi = max(range(len(leaves)), key=lambda i: (leaves[i].mean, leaves[i].n))
    return lo, hi  # min and max keep the first of equal keys


def export_dot(tree: RegressionTree, labels=None) -> str:
    """Graphviz digraph: splits as "name < threshold", leaves as n and mean.

    The minimum- and maximum-mean leaves carry Q^Min / Q^Max annotations.
    """
    names = list(labels) if labels is not None else list(tree.feature_names)
    lo, hi = extreme_leaf_indices(tree)

    order = preorder(tree.root)
    ids = {id(node): f"n{i}" for i, node in enumerate(order)}

    lines = ["digraph tree {", "  node [shape=box];"]
    leaf_pos = 0
    for node in order:
        if isinstance(node, Leaf):
            tag = ""
            if leaf_pos == lo:
                tag += "\\nQ^Min"
            if leaf_pos == hi:
                tag += "\\nQ^Max"
            leaf_pos += 1
            label = f"n={node.n}\\nQ={node.mean:.3f}{tag}"
        else:
            name = names[node.split.feature].replace('"', r'\"')
            label = f"{name} < {node.split.threshold:.3f}"
        lines.append(f'  {ids[id(node)]} [label="{label}"];')
    for node in order:
        if isinstance(node, Internal):
            lines.append(f"  {ids[id(node)]} -> {ids[id(node.left)]};")
            lines.append(f"  {ids[id(node)]} -> {ids[id(node.right)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"n": node.n, "mean": node.mean, "sse": node.sse}
    return {
        "split": {"feature": node.split.feature, "threshold": node.split.threshold},
        "n": node.n,
        "mean": node.mean,
        "sse": node.sse,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def export_json(tree: RegressionTree) -> str:
    """Lossless JSON text for a tree; float fields keep full precision."""
    doc = {
        "format": "charterseg-tree",
        "version": 1,
        "feature_names": list(tree.feature_names),
        "total_n": tree.total_n,
        "params": {"min_leaf": tree.params.min_leaf, "max_depth": tree.params.max_depth},
        "root": _node_to_dict(tree.root),
    }
    return json.dumps(doc, indent=2) + "\n"


def _node_from_dict(obj, n_features: int) -> TreeNode:
    if not isinstance(obj, dict):
        raise ParseError(f"tree node must be an object, got {type(obj).__name__}")
    try:
        n = int(obj["n"])
        mean = float(obj["mean"])
        sse = float(obj["sse"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"tree node missing or malformed stats: {exc}") from None
    if "split" not in obj:
        return Leaf(n, mean, sse)
    try:
        split = obj["split"]
        feature = int(split["feature"])
        threshold = float(split["threshold"])
        left = _node_from_dict(obj["left"], n_features)
        right = _node_from_dict(obj["right"], n_features)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed split node: {exc}") from None
    if not 0 <= feature < n_features:
        raise ParseError(f"split feature index {feature} out of range")
    return Internal(SplitRule(feature, threshold), left, right, n, mean, sse)


def import_json(text: str) -> RegressionTree:
    """Parse a tree produced by export_json; malformed input raises ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid tree JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "charterseg-tree":
        raise ParseError("not a charterseg tree document")
    try:
        names = tuple(str(x) for x in doc["feature_names"])
        max_depth = doc["params"]["max_depth"]
        params = TreeParams(int(doc["params"]["min_leaf"]),
                            None if max_depth is None else int(max_depth))
        total_n = int(doc["total_n"])
        root = _node_from_dict(doc["root"], len(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed tree document: {exc}") from None
    return RegressionTree(root, names, params, total_n)
