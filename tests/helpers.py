"""Independent oracles and small builders shared across the test modules.

The oracles here deliberately avoid the library's own algebra: sums of
squares are computed by direct summation, the KS statistic by a literal
ECDF sweep, so that agreement with the fast implementations is evidence
rather than tautology.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from charterseg.rescale import ScoredMatrix
from charterseg.tree import RegressionTree, SplitRule, export_json, import_json


# The oracles' own tree form: nested frozen nodes, read from and written to
# the nested document of export_json / import_json, so that they stay
# independent of the library's array layout.


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


def _node_from_doc(obj) -> TreeNode:
    if "split" not in obj:
        return Leaf(obj["n"], obj["mean"], obj["sse"])
    split = SplitRule(obj["split"]["feature"], obj["split"]["threshold"])
    return Internal(split, _node_from_doc(obj["left"]), _node_from_doc(obj["right"]),
                    obj["n"], obj["mean"], obj["sse"])


def _node_to_doc(node: TreeNode) -> dict:
    stats = {"n": node.n, "mean": node.mean, "sse": node.sse}
    if isinstance(node, Leaf):
        return stats
    return {"split": {"feature": node.split.feature, "threshold": node.split.threshold},
            **stats, "left": _node_to_doc(node.left), "right": _node_to_doc(node.right)}


def root(tree: RegressionTree) -> TreeNode:
    """The tree's root in the oracles' node form, read back from export_json."""
    return _node_from_doc(json.loads(export_json(tree))["root"])


def direct_sse(y) -> float:
    """Sum of squared deviations computed the obvious way."""
    y = np.asarray(y, dtype=float)
    return float(np.sum((y - y.mean()) ** 2))


def candidate_thresholds(x):
    """Midpoints between consecutive distinct sorted values.

    When a midpoint rounds onto the lower value in floating point, the
    upper value itself is the candidate, so strict-< routing still puts
    the lower value on the left.
    """
    xs = np.unique(np.asarray(x, dtype=float))
    out = []
    for a, b in zip(xs[:-1], xs[1:]):
        t = a + (b - a) / 2.0
        if t <= a:
            t = b
        out.append(t)
    return out


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive split search; returns (feature, threshold, gain) or None.

    Ties: first feature index, then smallest threshold (thresholds are
    visited in ascending order per feature and only strict improvements
    replace the incumbent).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    total = direct_sse(y)
    best = None
    for j in range(X.shape[1]):
        for thr in candidate_thresholds(X[:, j]):
            left = X[:, j] < thr
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            gain = total - direct_sse(y[left]) - direct_sse(y[~left])
            if gain <= 0.0:
                continue
            if best is None or gain > best[2]:
                best = (j, thr, gain)
    return best


def ecdf(sample, t) -> float:
    sample = np.asarray(sample, dtype=float)
    return float(np.mean(sample <= t))


def brute_force_ks_d(a, b) -> float:
    """sup |ECDF_a - ECDF_b| over every pooled sample point."""
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    return max(abs(ecdf(a, t) - ecdf(b, t)) for t in pooled)


def make_matrix(X, y, names=None) -> ScoredMatrix:
    """Wrap plain arrays as a ScoredMatrix (scores must sit in [1, 5])."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if names is None:
        names = tuple(f"f{j}" for j in range(X.shape[1]))
    return ScoredMatrix(tuple(names), X, y)


def random_matrix(rng, n=None, m=None, tie_heavy=False):
    """Random score matrix + response for oracle comparisons."""
    n = int(rng.integers(10, 201)) if n is None else n
    m = int(rng.integers(1, 9)) if m is None else m
    X = rng.uniform(1.0, 5.0, size=(n, m))
    if tie_heavy:
        X = np.round(X * 2.0) / 2.0  # heavy duplication -> few candidates
    y = rng.normal(size=n)
    return make_matrix(X, y)


def consistent_internal(split, left, right):
    """Internal node whose (n, mean, sse) follow from its children.

    Uses the between-group decomposition, so the stats are exactly those
    of a real sample that realizes both child nodes.
    """
    n = left.n + right.n
    mean = (left.n * left.mean + right.n * right.mean) / n
    gap = left.mean - right.mean
    sse = left.sse + right.sse + left.n * right.n / n * gap * gap
    return Internal(split, left, right, n, mean, sse)


def build_tree(node, names, min_leaf=1, max_depth=None) -> RegressionTree:
    """A library tree from oracle nodes, through import_json."""
    return import_json(json.dumps({
        "format": "charterseg-tree", "version": 1, "feature_names": list(names),
        "total_n": node.n, "params": {"min_leaf": min_leaf, "max_depth": max_depth},
        "root": _node_to_doc(node)}))


def check_stats_consistency(node, rel=1e-9):
    """Recursively verify n, mean, and the SSE decomposition identity."""
    if isinstance(node, Leaf):
        return
    l, r = node.left, node.right
    assert node.n == l.n + r.n
    merged_mean = (l.n * l.mean + r.n * r.mean) / node.n
    assert abs(node.mean - merged_mean) <= rel * max(1.0, abs(node.mean))
    gap = l.mean - r.mean
    expect = l.sse + r.sse + l.n * r.n / node.n * gap * gap
    assert abs(node.sse - expect) <= rel * max(1.0, abs(node.sse))
    check_stats_consistency(l, rel)
    check_stats_consistency(r, rel)


def same_topology(a, b) -> bool:
    """Structural equality: node kinds, split rules, and row counts.

    Means and SSEs are left out on purpose; they may differ in the last
    ulp when the same row set is visited in a different order.
    """
    if isinstance(a, RegressionTree):
        a = root(a)
    if isinstance(b, RegressionTree):
        b = root(b)
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return a.n == b.n
    if isinstance(a, Internal) and isinstance(b, Internal):
        return (a.split.feature == b.split.feature
                and a.split.threshold == b.split.threshold
                and a.n == b.n
                and same_topology(a.left, b.left)
                and same_topology(a.right, b.right))
    return False


def internal_paths(node, path=()):
    """Preorder (path, node) for internal nodes; path is left/right bits."""
    if isinstance(node, Leaf):
        return []
    out = [(path, node)]
    out.extend(internal_paths(node.left, path + (0,)))
    out.extend(internal_paths(node.right, path + (1,)))
    return out


def subtree_leaf_stats(node):
    """(leaf count, summed leaf SSE) of the subtree."""
    if isinstance(node, Leaf):
        return 1, node.sse
    nl, sl = subtree_leaf_stats(node.left)
    nr, sr = subtree_leaf_stats(node.right)
    return nl + nr, sl + sr


def weakest_links(node):
    """(g, path, node) per internal node, g = per-leaf SSE cost of collapsing."""
    out = []
    for path, t in internal_paths(node):
        leaves, leaf_sse = subtree_leaf_stats(t)
        out.append(((t.sse - leaf_sse) / (leaves - 1), path, t))
    return out


def collapse(node, path):
    """Copy of the tree with the internal node at path replaced by a leaf."""
    if not path:
        return Leaf(node.n, node.mean, node.sse)
    if path[0] == 0:
        return Internal(node.split, collapse(node.left, path[1:]), node.right,
                        node.n, node.mean, node.sse)
    return Internal(node.split, node.left, collapse(node.right, path[1:]),
                    node.n, node.mean, node.sse)


def reference_collapses(tree, alpha=float("inf")):
    """Weakest-link pruning by rescanning the whole tree after every collapse.

    Collapses the (g, preorder path)-least internal node while its g is at
    most alpha. Returns the pruned tree and the (g, path) of each collapse.
    """
    node, done = root(tree), []
    while isinstance(node, Internal):
        g, path, _ = min(weakest_links(node), key=lambda item: (item[0], item[1]))
        if g > alpha:
            break
        node = collapse(node, path)
        done.append((g, path))
    return build_tree(node, tree.feature_names, tree.params.min_leaf,
                      tree.params.max_depth), done


def reference_predict(tree, feature_row) -> float:
    """Route one feature row to its leaf mean (left if value < threshold)."""
    row = np.asarray(feature_row, dtype=float)
    node = root(tree)
    while isinstance(node, Internal):
        node = node.left if row[node.split.feature] < node.split.threshold else node.right
    return node.mean


def reference_prune_at(tree, alpha):
    return reference_collapses(tree, alpha)[0]


def reference_cost_complexity_sequence(tree):
    """(alphas, subtree sizes): each alpha collapses every link costing at most it."""
    sizes = [tree.n_leaves]
    alphas = []
    node = root(tree)
    while isinstance(node, Internal):
        alpha = min(g for g, _, _ in weakest_links(node))
        while isinstance(node, Internal):
            g, path, _ = min(weakest_links(node), key=lambda item: (item[0], item[1]))
            if g > alpha:
                break
            node = collapse(node, path)
        alphas.append(float(alpha))
        sizes.append(subtree_leaf_stats(node)[0])
    return tuple(alphas), tuple(sizes)


_DOT_NODE = re.compile(r'^\s*(n\d+)\s*\[label="(.*)"\];\s*$')
_DOT_EDGE = re.compile(r'^\s*(n\d+)\s*->\s*(n\d+);\s*$')


def parse_dot(text):
    """Minimal DOT reader: {node id: label}, [(parent, child), ...]."""
    nodes, edges = {}, []
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            nodes[m.group(1)] = m.group(2)
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
    return nodes, edges


def dot_structure(tree: RegressionTree):
    """Recover (feature name, children count) shape info from exported DOT."""
    from charterseg.tree import export_dot

    nodes, edges = parse_dot(export_dot(tree))
    children = {}
    for a, b in edges:
        children.setdefault(a, []).append(b)
    return nodes, children


def reference_threshold_rescale(values, direction, u, reference=None):
    """threshold_rescale with a separate formula per direction; the oracle."""
    v = np.asarray(values, dtype=float)
    ref = v if reference is None else np.asarray(reference, dtype=float)
    u = float(u)
    lo, hi = float(ref.min()), float(ref.max())
    if lo == hi:
        return np.full(v.shape, 3.0)
    scores = np.empty(v.shape)
    if direction == "increasing":
        safe = v <= u
        w_safe = u - lo
        if w_safe > 0:
            scores[safe] = 1.0 + (v[safe] - lo) / w_safe
        else:
            scores[safe] = 2.0
        risky = ~safe
        if risky.any():
            scores[risky] = 2.0 + 3.0 * (v[risky] - u) / (hi - u)
    else:
        safe = v >= u
        w_safe = hi - u
        if w_safe > 0:
            scores[safe] = 1.0 + (hi - v[safe]) / w_safe
        else:
            scores[safe] = 2.0
        risky = ~safe
        if risky.any():
            scores[risky] = 2.0 + 3.0 * (u - v[risky]) / (u - lo)
    return scores


def panel_csv_text(rows, header=None):
    """Render bank-year rows (list of dicts) as CSV text."""
    if header is None:
        header = ["bank_id", "country", "year", "mve", "bvl", "nta", "equity",
                  "total_assets", "loans", "deposits"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in header))
    return "\n".join(lines) + "\n"


def json_paths(obj, prefix=()):
    """The key path of every value in a JSON document, the root's () included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of a JSON document with the value at path replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc
