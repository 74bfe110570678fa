"""Independent oracles and small builders shared across the test modules.

The oracles here deliberately avoid the library's own algebra: sums of
squares are computed by direct summation, the KS statistic by a literal
ECDF sweep, so that agreement with the fast implementations is evidence
rather than tautology.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
from hypothesis import strategies as st

from charterseg.panel import ALL_FIELDS, Panel
from charterseg.rescale import ScoredMatrix
from charterseg.seeding import derive_seed, make_rng
from charterseg.tree import (RegressionTree, SplitRule, _best_cuts, _code, export_json,
                             import_json, node_sse)


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


def reference_build(X, y, params, pick) -> list[tuple]:
    """The node columns of a tree grown on every row by a preorder recursion.

    The reference for the batched grower: one node per _best_cuts call, and
    pick() draws a node's candidate features before its subtrees grow, so the
    draws follow preorder.
    """
    nodes = []  # [feature, threshold, right, n, mean, sse] per node
    codes, values = _code(X)

    def split(idx, depth):
        ysub = y[idx]
        mean, sse = node_sse(ysub)
        node = [-1, np.nan, -1, int(idx.size), mean, sse]
        nodes.append(node)
        if idx.size < 2 * params.min_leaf:
            return
        if params.max_depth is not None and depth >= params.max_depth:
            return
        features = pick()
        c, thr, gain = _best_cuts(codes[features[:, None], idx][None], (ysub - mean)[None],
                                  np.array([idx.size]), params.min_leaf, values)
        if not gain[0] > 0.0:
            return
        f, t = int(features[c[0]]), float(thr[0])
        node[:2] = f, t
        go_left = X[idx, f] < t
        split(idx[go_left], depth + 1)
        node[2] = len(nodes)
        split(idx[~go_left], depth + 1)

    split(np.arange(len(y)), 0)
    return list(zip(*nodes))


def reference_best_cuts(cols, centred, n, min_leaf):
    """The block scorer on float values: a stable argsort per (node, candidate).

    cols is (node, candidate, L) feature values with +inf pads; the rest is
    as in _best_cuts, which sorts integer keys of value ranks instead and
    must return the same (candidate, threshold, gain) to the bit.
    """
    N, F, L = cols.shape
    order = np.argsort(cols, axis=2, kind="stable")
    xs = cols.reshape(-1)[order + np.arange(0, N * F * L, L).reshape(N, F, 1)]
    cum = np.cumsum(centred.reshape(-1)[order + np.arange(0, N * L, L).reshape(N, 1, 1)], axis=2)
    total = cum[:, :, -1:]
    lo, hi = min_leaf - 1, L - min_leaf
    sizes = np.arange(lo + 1, hi + 1)
    n = n.reshape(N, 1, 1)
    right = n - sizes
    left_sum = cum[:, :, lo:hi]
    gains = (left_sum ** 2 / sizes + (total - left_sum) ** 2 / np.maximum(right, 1)
             - total ** 2 / n)
    valid = (xs[:, :, lo + 1:hi + 1] > xs[:, :, lo:hi]) & (right >= min_leaf)
    gains = np.where(valid, gains, -np.inf).reshape(N, -1)
    best = np.argmax(gains, axis=1)
    node = np.arange(N)
    c, j = np.divmod(best, hi - lo)
    below, above = xs[node, c, lo + j], xs[node, c, lo + j + 1]
    thr = (below + above) / 2.0
    thr = np.where(thr <= below, above, thr)
    return c, thr, gains[node, best]


def reference_oob_predictions(forest, mat):
    """Each row's mean prediction over the trees whose bootstrap missed it, NaN if none did.

    Per tree, in tree order, predict_batch on its out-of-bag rows is added
    to those rows' sums; the sums are divided by the miss counts at the end.
    """
    n = mat.n_rows
    sums, counts = np.zeros(n), np.zeros(n, dtype=int)
    for tree, boot in zip(forest.trees, forest.bootstrap_indices):
        oob = np.setdiff1d(np.arange(n), boot)
        sums[oob] += tree.predict_batch(mat.scores[oob])
        counts[oob] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / counts, np.nan)


def reference_importance(forest, mat, seed):
    """permutation_importance computed one predict_batch and one MSE per tree and copy.

    Returns (pct_inc_mse, raw_delta, stderr, oob_mse).
    """
    n, m = mat.n_rows, mat.n_features
    pred = reference_oob_predictions(forest, mat)
    covered = ~np.isnan(pred)
    oob_mse = float(np.mean((pred[covered] - mat.response[covered]) ** 2))
    deltas = []
    for t, (tree, boot) in enumerate(zip(forest.trees, forest.bootstrap_indices)):
        oob = np.setdiff1d(np.arange(n), boot)
        if oob.size == 0:
            continue
        Xo, yo = mat.scores[oob], mat.response[oob]
        tree_mse = float(np.mean((tree.predict_batch(Xo) - yo) ** 2))
        rng = make_rng(derive_seed(seed, t))
        row = np.empty(m)
        for f in range(m):
            perm = rng.permutation(oob.size)
            Xp = Xo.copy()
            Xp[:, f] = Xo[perm, f]
            row[f] = float(np.mean((tree.predict_batch(Xp) - yo) ** 2)) - tree_mse
        deltas.append(row)
    d = np.array(deltas)
    raw = d.mean(axis=0)
    stderr = d.std(axis=0, ddof=1) / np.sqrt(d.shape[0])
    return 100.0 * raw / oob_mse, raw, stderr, oob_mse


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


# ------------------------------------------------------------ panels

FULL_HEADER = [
    "bank_id", "country", "year", "mve", "bvl", "nta", "equity",
    "total_assets", "loans", "deposits", "loan_loss_allowances",
    "loan_loss_provisions", "non_interest_expense", "income",
    "liquid_assets", "roa", "roe", "loan_growth", "gdp_growth", "beta",
]

COUNTRIES = ("DE", "FR", "ES", "IT", "NL", "GR")


def make_panel(rows):
    return Panel(list(rows), provenance="test", window=(2005, 2016))


def bank_year(**overrides):
    """One panel row as a tuple in ALL_FIELDS order; optional fields default to NaN."""
    base = dict(bank_id="b1", country="DE", year=2008, mve=50.0, bvl=950.0,
                nta=1000.0, equity=72.0, total_assets=1000.0, loans=500.0,
                deposits=600.0)
    base.update(overrides)
    return tuple(base.get(f, math.nan) for f in ALL_FIELDS)


def synth_panel_csv(path: Path, n_banks: int = 24, years=range(2005, 2015),
                    seed: int = 0) -> Path:
    """Panel where Q steps up once capital_ratio clears 0.07."""
    rng = np.random.default_rng(seed)
    lines = [",".join(FULL_HEADER)]
    for b in range(n_banks):
        for year in years:
            ta = float(rng.uniform(800.0, 1200.0))
            cap = float(rng.uniform(0.02, 0.12))
            q = 0.95 + (0.2 if cap > 0.07 else 0.0) + float(rng.normal(0, 0.01))
            loans = float(rng.uniform(0.4, 0.7)) * ta
            row = {
                "bank_id": f"b{b:03d}", "country": COUNTRIES[b % len(COUNTRIES)],
                "year": year, "nta": ta, "bvl": 0.9 * ta,
                "mve": q * ta - 0.9 * ta, "equity": cap * ta,
                "total_assets": ta, "loans": loans,
                "deposits": float(rng.uniform(0.5, 0.8)) * ta,
                "loan_loss_allowances": float(rng.uniform(0.005, 0.03)) * loans,
                "loan_loss_provisions": float(rng.uniform(0.001, 0.02)) * loans,
                "non_interest_expense": float(rng.uniform(10.0, 30.0)),
                "income": float(rng.uniform(30.0, 60.0)),
                "liquid_assets": float(rng.uniform(0.1, 0.3)) * ta,
                "roa": float(rng.uniform(0.002, 0.02)),
                "roe": float(rng.uniform(0.02, 0.2)),
                "loan_growth": float(rng.uniform(-0.05, 0.15)),
                "gdp_growth": float(rng.uniform(-0.02, 0.04)),
                "beta": float(rng.uniform(0.5, 1.5)),
            }
            lines.append(",".join(str(row[c]) for c in FULL_HEADER))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Panel files for the fuzzers: CSV text from edge-case cells, raw bytes, or both.
_CELLS = ["", " ", "1", "-2.5", "1e999", "nan", "inf", "x", "DE", "PT", "b1", "2008",
          "20o8", '"', '"a', 'a"b', '"a""b"', '"1,2"', "\r", "\x00", ",", "1" * 140_000,
          "99999999999999999999"]
_CELL = st.sampled_from(_CELLS) | st.text(max_size=5)
_HEADER = st.one_of(st.just(FULL_HEADER), st.lists(st.sampled_from(FULL_HEADER) | _CELL,
                                                   max_size=12))
# A row that loads under FULL_HEADER, with its year and up to two other cells
# drawn: random rows almost never hold the keys and all seven required
# numbers, so a fault met only by a kept row (a year beyond int64) needs it.
_ROW = st.lists(_CELL, max_size=21) | st.builds(
    lambda year, edits: [edits.get(i, c) for i, c in enumerate(["b1", "DE", year] + ["1"] * 17)],
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.dictionaries(st.integers(0, 19), _CELL, max_size=2))
_CSV_TEXTS = st.builds(lambda header, rows, end: "\n".join(map(",".join, [header, *rows])) + end,
                       _HEADER, st.lists(_ROW, max_size=5),
                       st.sampled_from(["", "\n", "\r\n", '"']))
PANEL_BYTES = st.one_of(_CSV_TEXTS.map(str.encode), st.binary(max_size=60),
                        st.builds(bytes.__add__, _CSV_TEXTS.map(str.encode),
                                  st.binary(max_size=4)))


# ------------------------------------------------------------ configs and runs

# Every key a run config knows, and words its values take, for the fuzzers.
CONFIG_KEYS = ["data", "path", "columns", "window", "proxies", "name", "group", "raw_field",
               "direction", "mode", "threshold", "rescale_scope", "subsamples", "criterion",
               "kind", "start", "end", "codes", "half", "min_leaf", "tree", "max_depth",
               "cv_folds", "prune_rule", "forest", "n_trees", "mtry", "selection", "fixed",
               "forest_scope", "seed", "out", "exclude"]
CONFIG_WORDS = CONFIG_KEYS + ["all", "years", "countries", "size", "pigs", "non_pigs",
                              "small", "large", "subsample", "full", "rf", "joint",
                              "per_group", "min_cv", "one_se", "increasing", "decreasing",
                              "quantile", "Capt", "Capt_x", "Syst", "C", "E",
                              "capital_ratio", "roa", "mve", "DE"]
CONFIG_EDGES = [None, True, 0, -1, 2.5, 1e308, float("inf"), float("-inf"), float("nan"),
                2 ** 64, "3", " 12 ", "", [], {}, ["x"], {"kind": "all"}]


def fast_config(csv_path: Path, out: Path, **extra) -> dict:
    doc = {
        "data": {"path": str(csv_path)},
        "subsamples": [
            {"name": "all", "criterion": {"kind": "all"}},
            {"name": "early", "criterion": {"kind": "years", "start": 2005,
                                            "end": 2009}},
        ],
        "tree": {"min_leaf": 20, "cv_folds": 5, "prune_rule": "min_cv"},
        "forest": {"n_trees": 16, "min_leaf": 5},
        "seed": 7,
        "out": str(out),
    }
    doc.update(extra)
    return doc


def bundle_digests(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def src_env() -> dict[str, str]:
    """The outer environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
