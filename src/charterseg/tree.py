"""CART regression trees with cost-complexity pruning.

Splits minimise within-node sum of squared errors. Candidate thresholds sit
at midpoints between consecutive distinct sorted feature values; rows route
left when value < threshold and right otherwise, so training rows reproduce
the fitted partition exactly. Every tree comes from one batched factory,
_build_many, as in SLIQ and SPRINT: the nodes of a step that may split are
packed by size into padded blocks of X's value ranks that waste at most n
padded rows, and each block is sorted as unique integer keys (rank,
position), scored in one pass and routed to its children in one gather.
Each step pops every tree's stack of pending nodes, and a tree that draws
its candidate features stops after the first node whose children may
split: forest trees advance in lockstep, each drawing in its own preorder,
while grow and cv_prune drain their stacks, a depth level per step, so
cv_prune grows its full tree and every fold tree together.
best_split is the one-node call of the same scorer. Pruning follows
the weakest-link sequence with k-fold cross-validated selection of the
complexity penalty, read off two per-node arrays: the penalty at which each
node folds and the least of its ancestors'. CV routes each test row once
through a fold tree and reads its prediction at every candidate penalty off
the row's path.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateInputError, EmptyModelError, ParseError
from .rescale import ScoredMatrix
from .seeding import make_rng


@dataclass(frozen=True)
class SplitRule:
    feature: int
    threshold: float


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 30
    max_depth: Optional[int] = None

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")


# The node arrays of a RegressionTree and their dtypes, in field order.
_NODE_ARRAYS = (("feature", np.intp), ("threshold", float), ("right", np.intp),
                ("n", np.int64), ("mean", float), ("sse", float))


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree as read-only node arrays in preorder; node 0 is the root.

    Internal node i splits on feature[i] at threshold[i]; its left child is
    i + 1 and its right child right[i]. A leaf has feature and right -1 and
    threshold NaN. Every node has its row count n, mean response and SSE, and
    every subtree is a contiguous preorder range.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    n: np.ndarray
    mean: np.ndarray
    sse: np.ndarray
    feature_names: tuple[str, ...]
    params: TreeParams

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _levels(self, X: np.ndarray):
        """Per depth level, the rows of X still descending and the node each has reached."""
        rows = np.arange(X.shape[0])
        at = np.zeros(X.shape[0], dtype=np.intp)
        while rows.size:
            yield rows, at
            inner = self.feature[at] >= 0
            rows, at = rows[inner], at[inner]
            at = np.where(X[rows, self.feature[at]] < self.threshold[at], at + 1, self.right[at])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf mean for each row of X (left when value < threshold)."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for rows, at in self._levels(X):
            out[rows] = self.mean[at]
        return out

    def leaves(self) -> np.ndarray:
        """Leaf node indices, left to right."""
        return np.flatnonzero(self.feature < 0)

    @property
    def total_n(self) -> int:
        """Rows the tree was grown on: the root's count."""
        return int(self.n[0])

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def children(self, i: int) -> tuple[int, int]:
        """Left and right child of internal node i."""
        return i + 1, int(self.right[i])

    def path(self, leaf: int) -> list[tuple[int, bool]]:
        """(internal node, goes left) for each split from the root down to leaf."""
        steps, at = [], 0
        while at != leaf and self.feature[at] >= 0:
            left, right = self.children(at)
            steps.append((at, leaf < right))  # the left subtree is [left, right)
            at = left if leaf < right else right
        if at != leaf:
            raise DegenerateInputError(f"tree has no node {leaf}")
        return steps


def node_sse(responses) -> tuple[float, float]:
    """Mean and sum of squared errors around it for one node's responses."""
    y = np.asarray(responses, dtype=float)
    means, sses, _ = _run_sse(y, [y.size])
    return means[0], sses[0]


def _run_sse(y: np.ndarray, sizes: list[int]) -> tuple[list, list, list]:
    """node_sse of each consecutive run of y, sizes[i] long.

    Returns the runs' means, their SSEs and their (start, end). Per run: one
    sum, whose division by the size is y.mean() to the bit at half the call
    cost, and one dot of the centred run.
    """
    if 0 in sizes:
        raise DegenerateInputError("a node cannot be empty")
    ends = list(itertools.accumulate(sizes))
    bounds = list(zip([0, *ends], ends))
    means = np.array([np.add.reduce(y[a:b]) for a, b in bounds]) / sizes
    centred = y - np.repeat(means, sizes)
    sses = [float(np.dot(centred[a:b], centred[a:b])) for a, b in bounds]
    return means.tolist(), sses, bounds


def _code(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's (feature, row) int32 value ranks with a pad column, and the values (+inf for pads)."""
    values, codes = np.unique(X, return_inverse=True)
    padded = np.full((X.shape[1], X.shape[0] + 1), values.size, dtype=np.int32)
    padded[:, :-1] = codes.reshape(X.shape).T
    return padded, np.append(values, np.inf)


def _best_cuts(codes: np.ndarray, centred: np.ndarray, n: np.ndarray, min_leaf: int,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best cut of each node in a padded block, scored in one pass.

    codes is (node, candidate, L) ranks into values and centred is (node, L)
    responses less the node's mean, for n[i] <= L rows of node i; every node
    holds at least 2*min_leaf rows. Pads rank as +inf, the last value, and
    are 0 in centred, so no prefix sum changes. Keys rank << b | position are
    unique, so any sort gives the stable order by value. With y centred, a
    cut after sorted position i reduces SSE by sum_L^2/n_L + sum_R^2/n_R -
    sum^2/n, which avoids the cancellation of large squares.

    Returns each node's (candidate position, threshold, gain), the gain -inf
    where no cut keeps min_leaf rows a side. The first maximum in (candidate,
    cut) order wins: the lowest candidate, then the smallest threshold.
    """
    N, F, L = codes.shape
    if F == 0:
        return np.zeros(N, dtype=np.intp), np.full(N, np.nan), np.full(N, -np.inf)
    b = (L - 1).bit_length()
    key = np.left_shift(codes, b, dtype=np.int32 if values.size << b < 2 ** 31 else np.int64)
    key |= np.arange(L, dtype=key.dtype)
    key.sort(axis=2)
    pos = key & ((1 << b) - 1)
    key >>= b  # the sorted ranks
    cum = np.cumsum(centred.reshape(-1)[pos + np.arange(0, N * L, L).reshape(N, 1, 1)], axis=2)
    total = cum[:, :, -1:]  # pads add 0: each column's own sum, as in a single-column search
    lo, hi = min_leaf - 1, L - min_leaf  # the cuts that leave min_leaf rows on the left
    sizes = np.arange(lo + 1, hi + 1)
    n = n.reshape(N, 1, 1)
    right = n - sizes
    # In place; pads make right 0 or less, so masked cuts divide by 1 instead.
    gains = cum[:, :, lo:hi] ** 2 / sizes
    right_sum = (total - cum[:, :, lo:hi]) ** 2
    right_sum /= np.maximum(right, 1)
    gains += right_sum
    gains -= total ** 2 / n
    gains[(key[:, :, lo + 1:hi + 1] == key[:, :, lo:hi]) | (right < min_leaf)] = -np.inf
    gains = gains.reshape(N, -1)
    best = np.argmax(gains, axis=1)
    node = np.arange(N)
    c, j = np.divmod(best, hi - lo)
    below, above = values[key[node, c, lo + j]], values[key[node, c, lo + j + 1]]
    thr = (below + above) / 2.0
    thr = np.where(thr <= below, above, thr)  # adjacent floats can round onto the left value
    return c, thr, gains[node, best]


def best_split(X: np.ndarray, y: np.ndarray, min_leaf: int,
               feature_indices=None) -> Optional[tuple[SplitRule, float]]:
    """Exhaustive best SSE-reducing split over the given rows.

    The one-node call of the block scorer that grows every tree.

    Args:
        X: (n, m) feature values for the node's rows.
        y: (n,) responses.
        min_leaf: both children must keep at least this many rows.
        feature_indices: optional candidate features (ascending); all by default.

    Returns:
        (SplitRule, gain) with gain in raw SSE units, or None when no cut
        satisfies min_leaf on both sides with a positive gain. Ties break to
        the lowest feature index, then the smallest threshold. A non-finite
        X or y raises DegenerateInputError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DegenerateInputError("best_split needs finite X and y")
    n = X.shape[0]
    if n < 2 * min_leaf:
        return None
    features = np.arange(X.shape[1]) if feature_indices is None else np.asarray(feature_indices)
    codes, values = _code(X[:, features])
    c, thr, gain = _best_cuts(codes[None, :, :n], (y - float(y.sum()) / n)[None],
                              np.array([n]), min_leaf, values)
    if not gain[0] > 0.0:
        return None
    return SplitRule(int(features[c[0]]), float(thr[0])), float(gain[0])


_BLOCK_ROWS = 4  # padded rows per block over X's rows: a CV level in few blocks, small temporaries


def _buckets(sizes: list[int], rows: int):
    """Slices of ascending node sizes to pack together, given X's row count.

    A bucket takes the next size while its padded rows, its node count
    times its largest size, stay within _BLOCK_ROWS * rows and exceed its
    real rows by at most rows. It always holds at least one node.
    """
    cap, start = _BLOCK_ROWS * rows, 0
    while start < len(sizes):
        end, real = start + 1, sizes[start]
        while end < len(sizes):
            padded = (end + 1 - start) * sizes[end]
            if padded > cap or padded - real - sizes[end] > rows:
                break
            real += sizes[end]
            end += 1
        yield slice(start, end)
        start = end


def _build_many(matrix: ScoredMatrix, roots, params: TreeParams,
                picks=None) -> list[RegressionTree]:
    """One tree per root (its rows of matrix, in order), grown in one batched pass.

    The trees grow in steps. Each tree keeps a stack of its pending nodes,
    those that may split, in preorder. A step pops every stack, each node
    taking every feature as candidates when picks is None and its tree's
    pick otherwise, and stops a tree after the first node whose children may
    split when it picks. So without picks the trees grow a depth level per
    step; with one pick callable per root, each returning the same number of
    distinct feature indices in any order, every tree draws its candidates
    in preorder, as a recursion growing it alone would, and trees sharing no
    generator grow as they would one by one.

    A step packs the nodes it takes, bucketed by size, into padded (node,
    candidate, row) blocks, each scored by one _best_cuts call, and routes
    the rows of a whole block to its children in one gather. A child keeps
    its parent's row order, so every node scores exactly as it would grown
    alone. A block sorts its candidates, so ties still break to the lowest
    feature index. A matrix of fewer than min_leaf rows raises
    EmptyModelError.
    """
    X, y = matrix.scores, matrix.response
    if X.shape[0] < params.min_leaf:
        raise EmptyModelError(f"need at least min_leaf={params.min_leaf} rows, got {X.shape[0]}")
    # Per node, in the order made. Until the layout below, a split's third
    # column holds its left child's place in this list; its right child is next.
    columns = []

    def make(rows, sizes, depths):
        """Per consecutive run of rows, sizes[i] long: a new node's column and,
        if it may split at depths[i], its pending (rows, depth)."""
        means, sses, bounds = _run_sse(y[rows], sizes)
        return [([-1, np.nan, -1, b - a, mean, sse],
                 (rows[a:b], depth) if splits(b - a, depth) else None)
                for mean, sse, (a, b), depth in zip(means, sses, bounds, depths)]

    def splits(size, depth):
        return size >= 2 * params.min_leaf and (params.max_depth is None
                                                or depth < params.max_depth)

    # Per tree, its pending nodes that may split, as (node, rows, depth); the
    # right child goes on first. Tree t's root is node t.
    stacks = []
    for column, pending in make(np.concatenate(roots), [len(idx) for idx in roots],
                                [0] * len(roots)):
        columns.append(column)
        stacks.append([(len(columns) - 1, *pending)] if pending else [])
    codes, values = _code(X)  # (feature, row); the pad column reads +inf
    padded_y = np.append(y, 0.0)
    stride = codes.shape[1]
    codes = codes.reshape(-1)  # one flat index per (feature, row) gathers faster
    everything = np.arange(X.shape[1])
    while True:
        able = []  # (node, rows, depth, candidates, its tree's stack)
        for t, stack in enumerate(stacks):
            while stack:
                node = stack.pop()
                able.append((*node, everything if picks is None else picks[t](), stack))
                if picks is not None and splits(node[1].size - params.min_leaf, node[2] + 1):
                    break  # its children may split, and they come next in preorder
        if not able:
            break
        able.sort(key=lambda node: node[1].size)
        sizes = [node[1].size for node in able]
        for part in _buckets(sizes, X.shape[0]):
            block, n = able[part], np.array(sizes[part])
            real = np.arange(n[-1]) < n[:, None]
            at = np.full(real.shape, X.shape[0])  # a pad reads the extra last row
            at[real] = rows = np.concatenate([node[1] for node in block])
            means = np.array([columns[node[0]][4] for node in block])
            centred = np.where(real, padded_y[at] - means[:, None], 0.0)
            feats = np.sort([node[3] for node in block], axis=1)
            c, thr, gain = _best_cuts(codes[(feats * stride)[:, :, None] + at[:, None, :]],
                                      centred, n, params.min_leaf, values)
            feature = feats[np.arange(len(block)), c]
            keep = gain > 0.0  # the nodes that split
            if not keep.all():
                block = [node for node, k in zip(block, keep.tolist()) if k]
                rows = rows[np.repeat(keep, n)]
                n, feature, thr = n[keep], feature[keep], thr[keep]
            go_left = X[rows, np.repeat(feature, n)] < np.repeat(thr, n)
            left_n = np.add.reduceat(go_left, np.cumsum(n) - n, dtype=np.intp)
            depths = [node[2] + 1 for node in block]
            kids = make(rows[np.argsort(~go_left, kind="stable")],  # the lefts, then the rights
                        [*left_n.tolist(), *(n - left_n).tolist()], depths * 2)
            for (i, *_, stack), f, threshold, (left, to_left), (right, to_right) in zip(
                    block, feature.tolist(), thr.tolist(), kids, kids[len(block):]):
                columns[i][:3] = f, threshold, len(columns)
                columns += left, right
                if to_right:
                    stack.append((len(columns) - 1, *to_right))
                if to_left:
                    stack.append((len(columns) - 2, *to_left))

    trees = []
    for t in range(len(stacks)):  # lay each tree out in preorder
        nodes, pending = [], [(t, None)]  # (node, the split whose right child it is)
        while pending:
            i, parent = pending.pop()
            if parent is not None:
                parent[2] = len(nodes)
            node = columns[i]
            if node[2] >= 0:
                pending += (node[2] + 1, node), (node[2], None)
            nodes.append(node)
        trees.append(RegressionTree(*zip(*nodes), matrix.feature_names, params))
    return trees


def grow(matrix: ScoredMatrix, params: TreeParams = TreeParams()) -> RegressionTree:
    """Grow a CART tree on a scored matrix.

    Splits while a node holds at least 2*min_leaf rows, some cut has positive
    gain, and both children keep min_leaf rows. max_depth, when set, caps the
    depth (0 means a single leaf).
    """
    return _build_many(matrix, [np.arange(matrix.n_rows)], params)[0]


def _fold_penalties(tree: RegressionTree) -> tuple[np.ndarray, np.ndarray]:
    """Weakest-link pruning as two read-only per-node arrays (penalty, above).

    One heap pass folds the internal node of least g = (its SSE - its leaves'
    SSE) / (its leaves - 1), ties to the earlier in preorder, until the root
    is a leaf. penalty[i] is the largest g so far, and at least 0, when node
    i folds (g need not ascend, and a zero gain can compute a residue below 0);
    it is -inf for a leaf and +inf for a node folded together with an
    ancestor. above[i] is the least penalty of i's ancestors (+inf at
    the root). Pruned at alpha, node i is kept when alpha < above[i], and is
    a leaf when also penalty[i] <= alpha.
    """
    right, sse = tree.right.tolist(), tree.sse.tolist()
    internal = [i for i, r in enumerate(right) if r >= 0]
    parent = [-1] * len(right)
    for i in internal:
        parent[i + 1] = parent[right[i]] = i
    leaves, leaf_sse = [1] * len(right), list(sse)
    stamp = [0] * len(right)  # heap entries with another stamp are stale

    def refresh(i: int) -> tuple[float, int, int]:
        left, r = i + 1, right[i]
        leaves[i], leaf_sse[i] = leaves[left] + leaves[r], leaf_sse[left] + leaf_sse[r]
        stamp[i] += 1
        return (sse[i] - leaf_sse[i]) / (leaves[i] - 1), i, stamp[i]

    heap = [refresh(i) for i in reversed(internal)]  # children before their parent
    heapq.heapify(heap)
    size = [2 * count - 1 for count in leaves]  # a subtree is contiguous in preorder
    penalty = [math.inf if r >= 0 else -math.inf for r in right]
    running = 0.0  # a node's SSE is at least its leaves', so a true g is >= 0
    while heap:
        g, i, s = heapq.heappop(heap)
        if s == stamp[i]:
            running = penalty[i] = max(running, g)
            # A collapse changes only its ancestors' g; re-add their leaf SSE sums.
            stamp[i:i + size[i]] = [-1] * size[i]
            leaves[i], leaf_sse[i] = 1, sse[i]
            while parent[i] >= 0:
                i = parent[i]
                heapq.heappush(heap, refresh(i))
    above = [math.inf] * len(right)
    for i in internal:  # preorder: a node's own value is set before its children's
        above[i + 1] = above[right[i]] = min(above[i], penalty[i])
    arrays = np.array(penalty), np.array(above)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def prune_at(tree: RegressionTree, alpha: float) -> RegressionTree:
    """Collapse internal nodes while the weakest link costs at most alpha."""
    penalty, above = _fold_penalties(tree)
    keep = alpha < above
    keep[0] = True  # the root has no ancestor to fold into, even at alpha = inf
    inner = alpha < penalty
    renumber = np.cumsum(keep) - 1
    return RegressionTree(np.where(inner, tree.feature, -1)[keep],
                          np.where(inner, tree.threshold, np.nan)[keep],
                          np.where(inner, renumber[tree.right], -1)[keep],
                          tree.n[keep], tree.mean[keep], tree.sse[keep],
                          tree.feature_names, tree.params)


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
    penalty, above = _fold_penalties(tree)
    alphas = np.unique(penalty[np.isfinite(penalty)])  # links of one penalty fold together
    sizes = ((penalty[:, None] <= alphas) & (alphas < above[:, None])).sum(axis=0)
    return PruneTrace(tuple(alphas.tolist()), (tree.n_leaves, *sizes.tolist()))


def _pruned_predictions(tree: RegressionTree, X: np.ndarray, alphas) -> np.ndarray:
    """prune_at(tree, alpha).predict_batch(X) for every alpha, as (alphas, rows).

    Each row is routed once. At alpha it stops at the node on its path that
    prune_at keeps as a leaf: penalty <= alpha < above.
    """
    penalty, above = _fold_penalties(tree)
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty((alphas.size, X.shape[0]))
    for rows, at in tree._levels(X):
        stop, ai = np.nonzero((penalty[at, None] <= alphas) & (alphas < above[at, None]))
        out[ai, rows[stop]] = tree.mean[at[stop]]
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

    folds = np.array_split(make_rng(seed).permutation(n), k)
    full, *fold_trees = _build_many(
        matrix, [np.arange(n), *(np.setdiff1d(np.arange(n), test) for test in folds)], params)
    trace = cost_complexity_sequence(full)
    if not trace.alphas:
        return full, PruneTrace((), (1,), (0.0,), None, 0.0, rule)

    alphas = trace.alphas
    evals = [0.0, *(float(np.sqrt(a * b)) for a, b in zip(alphas[:-1], alphas[1:])), alphas[-1]]

    cv = np.empty((len(evals), k))
    for fi, (test_idx, fold_tree) in enumerate(zip(folds, fold_trees)):
        preds = _pruned_predictions(fold_tree, matrix.scores[test_idx], evals)
        cv[:, fi] = np.mean((preds - matrix.response[test_idx]) ** 2, axis=1)

    means = cv.mean(axis=1)
    best = np.flatnonzero(means == means.min())[-1]  # ties go to the larger penalty
    if rule == "one_se":
        se = float(np.std(cv[best], ddof=1) / np.sqrt(k))
        best = np.flatnonzero(means <= means[best] + se)[-1]
    chosen = float(evals[best])
    pruned = prune_at(full, chosen)
    return pruned, PruneTrace(alphas, trace.subtree_sizes, tuple(evals), cv, chosen, rule)


def extreme_leaf_indices(tree: RegressionTree) -> tuple[int, int]:
    """Node indices of the minimum- and maximum-mean leaves.

    Ties break to the larger leaf, then the leftmost.
    """
    mean, n = tree.mean.tolist(), tree.n.tolist()
    leaves = tree.leaves().tolist()
    lo = min(leaves, key=lambda i: (mean[i], -n[i]))
    hi = max(leaves, key=lambda i: (mean[i], n[i]))
    return lo, hi  # min and max keep the first of equal keys


def export_dot(tree: RegressionTree, labels=None) -> str:
    """Graphviz digraph: splits as "name < threshold", leaves as n and mean.

    Node i is named n{i}. The minimum- and maximum-mean leaves carry Q^Min /
    Q^Max annotations.
    """
    names = list(labels) if labels is not None else list(tree.feature_names)
    lo, hi = extreme_leaf_indices(tree)
    feature, threshold, right, n, mean = (a.tolist() for a in (
        tree.feature, tree.threshold, tree.right, tree.n, tree.mean))

    lines = ["digraph tree {", "  node [shape=box];"]
    for i, f in enumerate(feature):
        if f < 0:
            tag = ("\\nQ^Min" if i == lo else "") + ("\\nQ^Max" if i == hi else "")
            label = f"n={n[i]}\\nQ={mean[i]:.3f}{tag}"
        else:
            name = names[f].replace('"', r'\"')
            label = f"{name} < {threshold[i]:.3f}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, r in enumerate(right):
        if r >= 0:
            lines.append(f"  n{i} -> n{i + 1};")
            lines.append(f"  n{i} -> n{r};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(tree: RegressionTree) -> str:
    """Lossless JSON text for a tree, nested from the root; floats keep full precision."""
    feature, threshold, right, n, mean, sse = (getattr(tree, name).tolist()
                                               for name, _ in _NODE_ARRAYS)

    def node(i: int) -> dict:
        stats = {"n": n[i], "mean": mean[i], "sse": sse[i]}
        if feature[i] < 0:
            return stats
        return {"split": {"feature": feature[i], "threshold": threshold[i]}, **stats,
                "left": node(i + 1), "right": node(right[i])}

    doc = {"format": "charterseg-tree", "version": 1,
           "feature_names": list(tree.feature_names), "total_n": tree.total_n,
           "params": {"min_leaf": tree.params.min_leaf, "max_depth": tree.params.max_depth},
           "root": node(0)}
    return json.dumps(doc, indent=2) + "\n"


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"tree {where} must be an object, got {type(value).__name__}")
    return value


def _integer(obj: dict, key: str, where: str, low: int = 0, high: int = 2 ** 63) -> int:
    """obj[key] as a JSON integer (not a bool) in [low, high); counts fit in int64."""
    value = obj.get(key)
    if isinstance(value, int) and not isinstance(value, bool) and low <= value < high:
        return value
    bound = f"in [{low}, {high})" if high < 2 ** 63 else f">= {low}"
    raise ParseError(f"tree {where}.{key} must be an integer {bound}, got {value!r}")


def _real(obj: dict, key: str, where: str) -> float:
    """obj[key] as a finite JSON number (not a bool)."""
    value = obj.get(key)
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ParseError(f"tree {where}.{key} must be a finite number, got {value!r}")


def _read_node(obj, where: str, n_features: int, nodes: list) -> None:
    """Append the nodes of a nested export_json subtree to nodes, in preorder."""
    obj = _object(obj, where)
    node = [-1, np.nan, -1, _integer(obj, "n", where), _real(obj, "mean", where),
            _real(obj, "sse", where)]
    if node[3] < 1:
        raise ParseError(f"tree {where}.n must be at least 1, got {node[3]}")
    if node[5] < 0:
        raise ParseError(f"tree {where}.sse must not be negative, got {node[5]!r}")
    at = len(nodes)
    nodes.append(node)
    if "split" not in obj:
        return
    split = _object(obj["split"], f"{where}.split")
    node[:2] = (_integer(split, "feature", f"{where}.split", high=n_features),
                _real(split, "threshold", f"{where}.split"))
    _read_node(obj.get("left"), f"{where}.left", n_features, nodes)
    node[2] = len(nodes)
    _read_node(obj.get("right"), f"{where}.right", n_features, nodes)
    left_n, right_n = nodes[at + 1][3], nodes[node[2]][3]
    if left_n + right_n != node[3]:
        raise ParseError(f"tree {where}.n is {node[3]}, but its children hold "
                         f"{left_n} + {right_n} rows")


def import_json(text: str) -> RegressionTree:
    """Parse a tree produced by export_json; malformed input raises ParseError.

    Counts and feature indices must be JSON integers, node statistics and
    thresholds finite JSON numbers, and feature_names a list of strings. Every
    node holds at least one row and an SSE of at least zero, the two children
    of a split hold all of their parent's rows, and total_n is the root's n.
    """
    try:
        doc = _object(json.loads(text), "document")
        if doc.get("format") != "charterseg-tree":
            raise ParseError("not a charterseg tree document")
        names = doc.get("feature_names")
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ParseError(f"tree feature_names must be a list of strings, got {names!r}")
        given = _object(doc.get("params"), "params")
        max_depth = given.get("max_depth")
        if max_depth is not None:
            max_depth = _integer(given, "max_depth", "params")
        params = TreeParams(_integer(given, "min_leaf", "params", low=1), max_depth)
        total_n = _integer(doc, "total_n", "document")
        nodes = []
        _read_node(doc.get("root"), "root", len(names), nodes)
    except ValueError as exc:  # a JSONDecodeError, or an integer over 4,300 digits
        raise ParseError(f"invalid tree JSON: {exc}") from None
    except RecursionError:
        raise ParseError("tree JSON nests too deeply") from None
    if total_n != nodes[0][3]:
        raise ParseError(f"tree document.total_n is {total_n}, but root.n is {nodes[0][3]}")
    return RegressionTree(*zip(*nodes), tuple(names), params)
