"""Random forests with out-of-bag permutation importance.

Each tree grows unpruned on a bootstrap resample, drawing a fresh random
feature subset of size mtry at every node in preorder. Tree t seeds its own
generator from a 64-bit mix of the master seed and t, so a forest is
reproducible whichever trees grow together. A tree draws its subsets in
batches, one integers call per batch, equal to one rng.choice call per node
for up to 10,000 features. Trees grow in
lockstep in calls of the tree factory, each call as many consecutive trees
as fit a row budget, each tree from its bootstrap rows of the shared
matrix. Out-of-bag prediction and permutation importance share
one walk over the trees with out-of-bag rows. Importance routes a tree's OOB
rows once, noting which features each row's path tests, then routes in one
call only the permuted copies whose shuffled feature the row's path tests;
shuffling any other feature cannot move the row from its leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyModelError, echo
from .rescale import ScoredMatrix
from .seeding import derive_seed, make_rng
from .tree import RegressionTree, TreeParams, _build_many


# Bootstrap rows grown per _build_many call: every tree of a call is in
# flight at once, so this bounds a large forest's memory. At 890 rows a call
# grows 147 trees.
_FOREST_ROWS = 1 << 17

# Candidate subsets a tree draws per integers call.
_SUBSET_BATCH = 32


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 2000
    mtry: Optional[int] = None  # default max(m // 3, 1)
    min_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"forest.n_trees must be >= 1, got {echo(self.n_trees)}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"forest.mtry must be >= 1, got {echo(self.mtry)}")
        if self.min_leaf < 1:
            raise ConfigError(f"forest.min_leaf must be >= 1, got {echo(self.min_leaf)}")

    def resolve_mtry(self, m: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(m // 3, 1)
        if not 1 <= mtry <= m:
            raise ConfigError(f"forest.mtry must be in [1, {m}], got {echo(mtry)}")
        return mtry


def _subset_bounds(m: int, mtry: int) -> np.ndarray:
    """The exclusive bounds of rng.choice(m, mtry, replace=False)'s draws, per row of a batch.

    For m <= 10,000 numpy's choice is Floyd's algorithm, one draw in [0, j]
    for each j = m - mtry .. m - 1, then a shuffle, one draw in [0, i] for
    each i = mtry - 1 .. 1. Above 10,000 it shuffles instead, so _subsets'
    rows, still uniform and seeded, differ from its.
    """
    return np.tile(np.r_[m - mtry + 1:m + 1, mtry:1:-1], (_SUBSET_BATCH, 1))


def _subsets(rng: np.random.Generator, m: int, mtry: int, bounds: np.ndarray):
    """Yield, call by call, the sorted rows rng.choice(m, mtry, replace=False) returns.

    One integers call over bounds (_subset_bounds(m, mtry)) makes the draws
    of a batch of choice calls. The shuffle's draws only advance the
    stream, as the rows come sorted.
    """
    while True:
        rows = rng.integers(0, bounds)[:, :mtry].copy()
        for p in range(1, mtry):  # Floyd: a value drawn before becomes m - mtry + p
            rows[(rows[:, :p] == rows[:, p, None]).any(axis=1), p] = m - mtry + p
        rows.sort(axis=1)
        yield from rows


@dataclass(frozen=True, eq=False)
class Forest:
    trees: tuple[RegressionTree, ...]
    bootstrap_indices: tuple[np.ndarray, ...]


def grow_forest(matrix: ScoredMatrix, params: ForestParams = ForestParams(), seed: int = 0,
                bootstrap=None) -> Forest:
    """Grow a seeded forest on a scored matrix.

    Tree t draws its bootstrap, then its nodes' candidate subsets in
    preorder, from its own generator. The subsets come in batches, equal to
    one rng.choice(m, mtry, replace=False) call per node for m <= 10,000;
    the rows a tree draws past its last node change nothing.

    Args:
        matrix: scored rows; needs at least min_leaf of them.
        params: forest size, mtry, and leaf floor.
        seed: master seed; tree t draws from derive_seed(seed, t).
        bootstrap: test hook replacing the with-replacement resample; called
            as bootstrap(rng, n) and must return n row indices.

    Returns:
        Forest holding every tree and its bootstrap multiset.
    """
    n, m = matrix.n_rows, matrix.n_features
    mtry = params.resolve_mtry(m)
    tree_params = TreeParams(min_leaf=params.min_leaf, max_depth=None)
    trees, boots = [], []
    per_call = max(1, _FOREST_ROWS // max(n, 1))
    bounds = _subset_bounds(m, mtry)  # one array for every tree
    for first in range(0, params.n_trees, per_call):
        rngs = [make_rng(derive_seed(seed, t))
                for t in range(first, min(first + per_call, params.n_trees))]
        chunk = [np.asarray(bootstrap(rng, n) if bootstrap is not None
                            else rng.integers(0, n, size=n)) for rng in rngs]
        # Sorted, so ties break to the lowest feature index, as in single-tree
        # growth when mtry == m.
        picks = [_subsets(rng, m, mtry, bounds).__next__ for rng in rngs]
        trees += _build_many(matrix, chunk, tree_params, picks)
        boots += chunk
    return Forest(tuple(trees), tuple(boots))


def _oob_trees(forest: Forest, matrix: ScoredMatrix):
    """(t, tree t, its out-of-bag rows) for each tree with out-of-bag rows."""
    n = matrix.n_rows
    if n != forest.trees[0].total_n:
        raise ConfigError("matrix row count differs from the forest's training rows")
    for t, (tree, boot) in enumerate(zip(forest.trees, forest.bootstrap_indices)):
        out = np.ones(n, dtype=bool)
        out[boot] = False
        oob = np.flatnonzero(out)
        if oob.size:
            yield t, tree, oob


def _oob_predictions(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's summed OOB predictions over their count; NaN where the count is 0."""
    covered = counts > 0
    if not covered.any():
        raise EmptyModelError("no row was ever out of bag; grow more trees")
    predictions = np.full(sums.size, np.nan)
    predictions[covered] = sums[covered] / counts[covered]
    return predictions


def oob_predict(forest: Forest, matrix: ScoredMatrix) -> np.ndarray:
    """Average each row's predictions over the trees that did not train on it.

    Returns the (n,) predictions, NaN on each row that every bootstrap drew.
    """
    sums = np.zeros(matrix.n_rows)
    counts = np.zeros(matrix.n_rows, dtype=int)
    for _, tree, oob in _oob_trees(forest, matrix):
        sums[oob] += tree.predict_batch(matrix.scores[oob])
        counts[oob] += 1
    return _oob_predictions(sums, counts)


@dataclass(frozen=True, eq=False)
class ImportanceReport:
    """Permutation importance per feature.

    raw_delta is the mean over trees of (OOB MSE after permuting the feature
    within the tree's OOB rows) minus (the tree's unpermuted OOB MSE);
    pct_inc_mse expresses it as a percentage of the forest-level OOB MSE.
    A study's per_group report joins one forest per group: each group's
    pct_inc_mse is scaled by its own forest's OOB MSE, which the report does
    not keep, so oob_mse is NaN and the groups' values are on different scales.
    """

    feature_names: tuple[str, ...]
    pct_inc_mse: np.ndarray
    raw_delta: np.ndarray
    stderr: np.ndarray
    oob_mse: float

    def by_name(self) -> dict[str, float]:
        return dict(zip(self.feature_names, (float(x) for x in self.pct_inc_mse)))


def permutation_importance(forest: Forest, matrix: ScoredMatrix,
                           seed: int = 0) -> ImportanceReport:
    """Out-of-bag permutation importance with %IncMSE normalisation.

    Per tree, each feature column is shuffled within the tree's OOB rows
    (one seeded permuted call per tree, whose row f is the f-th of m
    rng.permutation calls) and the MSE increase recorded; deltas average
    over trees.
    """
    n, m = matrix.n_rows, matrix.n_features
    X, y = matrix.scores, matrix.response
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=int)
    deltas = []
    for t, tree, oob in _oob_trees(forest, matrix):
        k = oob.size
        Xo, yo = X[oob], y[oob]
        rng = make_rng(derive_seed(seed, t))
        # Row pred[f + 1] is the prediction with feature f shuffled, pred[0]
        # with none. Shuffling f moves only a row whose path tests f, so only
        # those (f, row) copies are routed; every other entry is pred[0]'s.
        pred = np.empty((m + 1, k))
        tested = np.zeros((m, k), dtype=bool)
        for rows, at in tree._levels(Xo):
            pred[0, rows] = tree.mean[at]
            split = tree.feature[at]
            inner = split >= 0
            tested[split[inner], rows[inner]] = True
        pred[1:] = pred[0]
        perms = rng.permuted(np.tile(np.arange(k), (m, 1)), axis=1)
        fi, ri = np.nonzero(tested)
        copies = Xo[ri]
        copies[np.arange(fi.size), fi] = Xo[perms[fi, ri], fi]
        pred[fi + 1, ri] = tree.predict_batch(copies)
        sums[oob] += pred[0]
        counts[oob] += 1
        mse = np.mean((pred - yo) ** 2, axis=1)
        deltas.append(mse[1:] - mse[0])
    covered = counts > 0
    resid = _oob_predictions(sums, counts)[covered] - y[covered]  # raises unless some row was OOB
    oob_mse = float(np.mean(resid ** 2))
    d = np.array(deltas)
    raw = d.mean(axis=0)
    if d.shape[0] > 1:
        stderr = d.std(axis=0, ddof=1) / np.sqrt(d.shape[0])
    else:
        stderr = np.zeros(m)
    if oob_mse == 0.0:
        raise EmptyModelError("forest OOB MSE is zero; %IncMSE undefined")
    return ImportanceReport(matrix.feature_names, 100.0 * raw / oob_mse, raw, stderr, oob_mse)
