"""Random forests with out-of-bag permutation importance.

Each tree grows unpruned on a bootstrap resample, drawing a fresh random
feature subset of size mtry at every node in preorder. Tree t seeds its own
generator from a 64-bit mix of the master seed and t, so a forest is
reproducible independent of how many workers grew it. All trees grow in
lockstep in one call of the tree factory, each from its bootstrap rows of
the shared matrix. Out-of-bag prediction and permutation importance share
one walk over the trees with out-of-bag rows; importance routes a tree's OOB
rows and all their permuted copies through the tree in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyModelError
from .rescale import ScoredMatrix
from .seeding import derive_seed, make_rng
from .tree import RegressionTree, TreeParams, _build_many


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 2000
    mtry: Optional[int] = None  # default max(m // 3, 1)
    min_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"forest.n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"forest.mtry must be >= 1, got {self.mtry}")
        if self.min_leaf < 1:
            raise ConfigError(f"forest.min_leaf must be >= 1, got {self.min_leaf}")

    def resolve_mtry(self, m: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(m // 3, 1)
        if not 1 <= mtry <= m:
            raise ConfigError(f"forest.mtry must be in [1, {m}], got {mtry}")
        return mtry


@dataclass(frozen=True)
class Forest:
    trees: tuple[RegressionTree, ...]
    bootstrap_indices: tuple[np.ndarray, ...]


def grow_forest(matrix: ScoredMatrix, params: ForestParams = ForestParams(), seed: int = 0,
                bootstrap=None) -> Forest:
    """Grow a seeded forest on a scored matrix.

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
    rngs = [make_rng(derive_seed(seed, t)) for t in range(params.n_trees)]
    boots = [np.asarray(bootstrap(rng, n) if bootstrap is not None else rng.integers(0, n, size=n))
             for rng in rngs]

    def picker(rng):
        # Sorted so tie-breaking matches single-tree growth when mtry == m.
        return lambda: np.sort(rng.choice(m, size=mtry, replace=False))

    trees = _build_many(matrix, boots, tree_params, [picker(rng) for rng in rngs])
    return Forest(tuple(trees), tuple(boots))


@dataclass(frozen=True)
class OobResult:
    """Ensemble out-of-bag predictions.

    predictions averages only trees whose bootstrap missed the row; rows in
    every bootstrap are flagged in always_in_bag and carry NaN predictions.
    """

    predictions: np.ndarray
    oob_counts: np.ndarray
    oob_mse: float
    always_in_bag: np.ndarray


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


def _oob_result(sums: np.ndarray, counts: np.ndarray, y: np.ndarray) -> OobResult:
    """The ensemble OOB result from each row's summed OOB predictions and their count."""
    covered = counts > 0
    predictions = np.full(y.size, np.nan)
    predictions[covered] = sums[covered] / counts[covered]
    if not covered.any():
        raise EmptyModelError("no row was ever out of bag; grow more trees")
    resid = predictions[covered] - y[covered]
    return OobResult(predictions, counts, float(np.mean(resid ** 2)), ~covered)


def oob_predict(forest: Forest, matrix: ScoredMatrix) -> OobResult:
    """Average each row's predictions over the trees that did not train on it."""
    sums = np.zeros(matrix.n_rows)
    counts = np.zeros(matrix.n_rows, dtype=int)
    for _, tree, oob in _oob_trees(forest, matrix):
        sums[oob] += tree.predict_batch(matrix.scores[oob])
        counts[oob] += 1
    return _oob_result(sums, counts, matrix.response)


@dataclass(frozen=True)
class ImportanceReport:
    """Permutation importance per feature.

    raw_delta is the mean over trees of (OOB MSE after permuting the feature
    within the tree's OOB rows) minus (the tree's unpermuted OOB MSE);
    pct_inc_mse expresses it as a percentage of the forest-level OOB MSE.
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
    (one seeded draw per tree and feature, independent of worker count) and
    the MSE increase recorded; deltas average over trees.
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
        # Copy 0 shuffles no feature and copy f + 1 shuffles feature f; one
        # routing call takes all m + 1 copies.
        stack = np.tile(Xo, (m + 1, 1, 1))
        for f in range(m):
            stack[f + 1, :, f] = Xo[rng.permutation(k), f]
        pred = tree.predict_batch(stack.reshape(-1, m)).reshape(m + 1, k)
        sums[oob] += pred[0]
        counts[oob] += 1
        mse = [float(np.mean((p - yo) ** 2)) for p in pred]
        deltas.append(np.array(mse[1:]) - mse[0])
    base = _oob_result(sums, counts, y)  # raises unless some tree had out-of-bag rows
    d = np.array(deltas)
    raw = d.mean(axis=0)
    if d.shape[0] > 1:
        stderr = d.std(axis=0, ddof=1) / np.sqrt(d.shape[0])
    else:
        stderr = np.zeros(m)
    if base.oob_mse == 0.0:
        raise EmptyModelError("forest OOB MSE is zero; %IncMSE undefined")
    pct = 100.0 * raw / base.oob_mse
    return ImportanceReport(matrix.feature_names, pct, raw, stderr, base.oob_mse)
