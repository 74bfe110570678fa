"""CART regression trees with cost-complexity pruning.

Splits minimise within-node sum of squared errors. Candidate thresholds sit
at midpoints between consecutive distinct sorted feature values; rows route
left when value < threshold and right otherwise, so training rows reproduce
the fitted partition exactly. Every tree comes from one batched factory,
_build_many, as in SLIQ and SPRINT: the nodes of a step that may split are
packed by size into padded blocks of X's value ranks that waste at most n
padded rows, and each block is sorted as unique integer keys (rank,
position) and scored in one pass; one gather routes the step's splits to
their children. Nodes are rows of one table of arrays, as in scikit-learn's
tree builder, and are laid out in each tree's preorder only at the end.
Each step pops every tree's stack of pending nodes, and a tree that draws
its candidate features stops after the first node whose children may
split: forest trees advance in lockstep, each drawing in its own preorder,
while grow and cv_prune drain their stacks, a depth level per step, so
cv_prune grows its full tree and every fold tree together. Pruning follows
the weakest-link sequence with k-fold cross-validated selection of the
complexity penalty, read off two per-node arrays: the penalty at which each
node folds and the least of its ancestors'. CV routes each test row once
through a fold tree and reads its prediction at every candidate penalty off
the row's path.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateInputError, EmptyModelError, echo
from .rescale import ScoredMatrix
from .seeding import make_rng


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 30
    max_depth: Optional[int] = None

    def __post_init__(self):  # the checks of the config's tree section too
        if self.min_leaf < 1:
            raise ConfigError(f"tree.min_leaf must be >= 1, got {echo(self.min_leaf)}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"tree.max_depth must be >= 0, got {echo(self.max_depth)}")


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


def _run_sse(y: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean and sum of squared errors of each consecutive run of y, sizes[i] long.

    Returns the runs' means, their SSEs and their ends. Per run: one sum,
    whose division by the size is y.mean() to the bit at half the call cost,
    and one dot of the centred run.
    """
    if not sizes.all():
        raise DegenerateInputError("a node cannot be empty")
    ends = np.cumsum(sizes)
    runs = list(map(slice, (ends - sizes).tolist(), ends.tolist()))
    means = np.fromiter(map(np.add.reduce, map(y.__getitem__, runs)), float, len(runs)) / sizes
    centred = list(map((y - np.repeat(means, sizes)).__getitem__, runs))
    return means, np.fromiter(map(np.dot, centred, centred), float, len(runs)), ends


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
    N, _, L = codes.shape
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
    the rows of all its splits to their children in one gather. A child
    keeps its parent's row order, so every node scores exactly as it would
    grown alone. A block sorts its candidates, so ties still break to the
    lowest feature index. Nodes are rows of one table of arrays, and each
    split a record of the step that made it; a node gets a stack entry only
    if it may split. The layout then sizes every subtree and places every
    node in its tree's preorder, a depth level at a time. A matrix of fewer
    than min_leaf rows raises EmptyModelError.
    """
    X, y = matrix.scores, matrix.response
    min_leaf = params.min_leaf
    if X.shape[0] < min_leaf:
        raise EmptyModelError(f"need at least min_leaf={min_leaf} rows, got {X.shape[0]}")
    cap = math.inf if params.max_depth is None else params.max_depth
    rows = np.concatenate(roots)
    sizes = np.array([len(idx) for idx in roots], dtype=np.intp)
    # The node table: node i's row count, mean and SSE. Roots are nodes
    # 0 .. T-1; a step's k splits make nodes top .. top + 2k - 1, the lefts,
    # then the rights. Every non-root keeps min_leaf rows, so a root of r
    # rows grows at most 2 * (r // min_leaf) - 1 nodes.
    room = int(np.maximum(2 * (sizes // min_leaf) - 1, 1).sum())
    n, mean, sse = np.empty(room, dtype=np.intp), np.empty(room), np.empty(room)
    empty = np.zeros(0, dtype=np.intp)
    # Per step, its splits' nodes, features, thresholds and depths, and its
    # top; the first entry makes no split, so a call without splits lays out too.
    splits = [(empty, empty, np.zeros(0), empty, 0)]
    top = 0  # nodes made

    def make(rows, sizes, depths, homes):
        """Record the runs of rows, sizes[i] long, as the next nodes, at depths[i].

        Each run that may split goes on homes[i] as (node, rows, depth, its
        children may split, homes[i]), the last run first.
        """
        nonlocal top
        means, sses, ends = _run_sse(y[rows], sizes)
        made = slice(top, top + sizes.size)
        n[made], mean[made], sse[made] = sizes, means, sses
        may = np.flatnonzero(sizes >= 2 * min_leaf)[::-1].tolist()
        ends, sizes = ends.tolist(), sizes.tolist()
        for i in may:
            depth = depths[i]
            if depth < cap:
                home, size = homes[i], sizes[i]
                home.append((top + i, rows[ends[i] - size:ends[i]], depth,
                             size >= 3 * min_leaf and depth + 1 < cap, home))
        top += len(sizes)

    stacks = [[] for _ in roots]  # per tree, its pending nodes; the right child goes on first
    make(rows, sizes, [0] * len(roots), stacks)
    codes, values = _code(X)  # (feature, row); the pad column reads +inf
    stride = codes.shape[1]
    codes = codes.reshape(-1)  # one flat index per (feature, row) gathers faster
    everything = np.arange(X.shape[1])
    while True:
        taken, cands = [], []
        for t, stack in enumerate(stacks):
            while stack:
                node = stack.pop()
                taken.append(node)
                if picks is not None:
                    cands.append(picks[t]())
                    if node[3]:
                        break  # its children may split, and they come next in preorder
        if not taken:
            break
        ids, parts, depths, _, homes = zip(*taken)
        ids = np.array(ids)
        sizes = n[ids]
        order = np.argsort(sizes, kind="stable")
        ids, sizes, places = ids[order], sizes[order], order.tolist()
        rows = np.concatenate([parts[i] for i in places])
        centred = y[rows] - np.repeat(mean[ids], sizes)
        feats = (np.broadcast_to(everything, (ids.size, everything.size)) if picks is None
                 else np.sort(np.array([cands[i] for i in places]), axis=1))
        flat = feats * stride
        bounds = [0, *np.cumsum(sizes).tolist()]
        found = []
        for part in _buckets(sizes.tolist(), X.shape[0]):
            a, b, nb = bounds[part.start], bounds[part.stop], sizes[part]
            real = np.arange(nb[-1]) < nb[:, None]
            at = np.full(real.shape, X.shape[0])  # a pad reads the pad column
            at[real] = rows[a:b]
            block = np.zeros(real.shape)  # pads add 0 to every sum
            block[real] = centred[a:b]
            found.append(_best_cuts(codes[flat[part, :, None] + at[:, None, :]], block, nb,
                                    min_leaf, values))
        c, thr, gain = map(np.concatenate, zip(*found))
        f = feats[np.arange(c.size), c]
        keep = gain > 0.0  # the nodes that split
        if not keep.all():
            rows = rows[np.repeat(keep, sizes)]
            ids, sizes, f, thr = ids[keep], sizes[keep], f[keep], thr[keep]
            places = order[keep].tolist()
        if not ids.size:
            continue
        go_left = X[rows, np.repeat(f, sizes)] < np.repeat(thr, sizes)
        left_n = np.add.reduceat(go_left, np.cumsum(sizes) - sizes, dtype=np.intp)
        depth = [depths[i] for i in places]
        splits.append((ids, f, thr, np.array(depth), top))
        make(rows[np.argsort(~go_left, kind="stable")],  # the lefts, then the rights
             np.concatenate([left_n, sizes - left_n]), [d + 1 for d in depth] * 2,
             [homes[i] for i in places] * 2)

    # Layout: subtree sizes bottom up, then places in the trees' concatenated
    # preorders top down, a depth level at a time. Split j of a step's k
    # splits has children top + j and top + k + j.
    nodes, feats, thrs, depth, tops = zip(*splits)
    k = np.array([len(ids) for ids in nodes])
    nodes, feats, thrs, depth = map(np.concatenate, (nodes, feats, thrs, depth))
    left = np.repeat(np.array(tops) - (np.cumsum(k) - k), k) + np.arange(nodes.size)
    right = left + np.repeat(k, k)
    levels = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
    size = np.ones(top, dtype=np.intp)
    for s in reversed(levels):
        size[nodes[s]] += size[left[s]] + size[right[s]]
    counts = size[:len(roots)]
    starts = np.cumsum(counts) - counts
    place = np.empty(top, dtype=np.intp)
    place[:len(roots)] = starts
    for s in levels:
        place[left[s]] = place[nodes[s]] + 1
        place[right[s]] = place[left[s]] + size[left[s]]
    inner = place[nodes]
    feature, threshold, after = np.full(top, -1), np.full(top, np.nan), np.full(top, -1)
    feature[inner], threshold[inner] = feats, thrs
    after[inner] = place[right] - np.repeat(starts, counts)[inner]  # within its tree
    by_place = np.empty(top, dtype=np.intp)
    by_place[place] = np.arange(top)
    columns = (feature, threshold, after, n[by_place], mean[by_place], sse[by_place])
    return [RegressionTree(*(column[a:a + m].copy() for column in columns),
                           matrix.feature_names, params)
            for a, m in zip(starts.tolist(), counts.tolist())]


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


@dataclass(frozen=True, eq=False)
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
    prune_at keeps as a leaf: penalty <= alpha < above. The array is
    C-contiguous: cv_prune's np.mean(..., axis=1) sums each row in memory
    order, and another layout can move cv_mse in the last bit.
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
        raise ConfigError(f"unknown pruning rule {echo(rule)}")
    n = matrix.n_rows
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} rows into {k} folds")

    folds = np.array_split(make_rng(seed).permutation(n), k)
    train = np.ones((k, n), dtype=bool)  # row fi: fold fi's training rows
    for fi, test in enumerate(folds):
        train[fi, test] = False
    full, *fold_trees = _build_many(matrix, [np.arange(n), *map(np.flatnonzero, train)], params)
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


def export_dot(tree: RegressionTree) -> str:
    """Graphviz digraph: splits as "name < threshold", leaves as n and mean.

    Node i is named n{i}. The minimum- and maximum-mean leaves carry Q^Min /
    Q^Max annotations.
    """
    lo, hi = extreme_leaf_indices(tree)
    feature, threshold, right, n, mean = (a.tolist() for a in (
        tree.feature, tree.threshold, tree.right, tree.n, tree.mean))

    lines = ["digraph tree {", "  node [shape=box];"]
    for i, f in enumerate(feature):
        if f < 0:
            tag = ("\\nQ^Min" if i == lo else "") + ("\\nQ^Max" if i == hi else "")
            label = f"n={n[i]}\\nQ={mean[i]:.3f}{tag}"
        else:
            name = tree.feature_names[f].replace('"', r'\"')
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
