"""Random forests with out-of-bag permutation importance.

Each tree grows unpruned on a bootstrap resample, drawing a fresh random
feature subset of size mtry at every node. Tree t seeds its own generator
from a 64-bit mix of the master seed and t, so a forest is reproducible
independent of how many workers grew it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyModelError
from .rescale import ScoredMatrix
from .seeding import derive_seed, make_rng
from .tree import RegressionTree, TreeParams, _build


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


def _grow_one(X, y, feature_names, tree_params: TreeParams, mtry: int, seed: int,
              bootstrap=None) -> tuple[RegressionTree, np.ndarray]:
    rng = make_rng(seed)
    n, m = X.shape
    boot = np.asarray(bootstrap(rng, n) if bootstrap is not None
                      else rng.integers(0, n, size=n))
    Xb, yb = X[boot], y[boot]

    def pick():
        # Sorted so tie-breaking matches single-tree growth when mtry == m.
        return np.sort(rng.choice(m, size=mtry, replace=False))

    return RegressionTree(*_build(Xb, yb, tree_params, pick), feature_names, tree_params), boot


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
    if n < params.min_leaf:
        raise EmptyModelError(f"need at least min_leaf={params.min_leaf} rows, got {n}")
    mtry = params.resolve_mtry(m)
    tree_params = TreeParams(min_leaf=params.min_leaf, max_depth=None)
    X, y = matrix.scores, matrix.response
    trees, boots = [], []
    for t in range(params.n_trees):
        tree, boot = _grow_one(X, y, matrix.feature_names, tree_params, mtry,
                               derive_seed(seed, t), bootstrap)
        trees.append(tree)
        boots.append(boot)
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


def _oob_mask(boot: np.ndarray, n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[boot] = False
    return mask


def oob_predict(forest: Forest, matrix: ScoredMatrix) -> OobResult:
    """Average each row's predictions over the trees that did not train on it."""
    n = matrix.n_rows
    if n != forest.trees[0].total_n:
        raise ConfigError("matrix row count differs from the forest's training rows")
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=int)
    for tree, boot in zip(forest.trees, forest.bootstrap_indices):
        oob = np.flatnonzero(_oob_mask(boot, n))
        if oob.size == 0:
            continue
        sums[oob] += tree.predict_batch(matrix.scores[oob])
        counts[oob] += 1
    covered = counts > 0
    predictions = np.full(n, np.nan)
    predictions[covered] = sums[covered] / counts[covered]
    if not covered.any():
        raise EmptyModelError("no row was ever out of bag; grow more trees")
    resid = predictions[covered] - matrix.response[covered]
    return OobResult(predictions, counts, float(np.mean(resid ** 2)), ~covered)


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
    base = oob_predict(forest, matrix)
    X, y = matrix.scores, matrix.response
    deltas = []
    for t, (tree, boot) in enumerate(zip(forest.trees, forest.bootstrap_indices)):
        oob = np.flatnonzero(_oob_mask(boot, n))
        if oob.size == 0:
            continue
        Xo, yo = X[oob], y[oob]
        tree_mse = float(np.mean((tree.predict_batch(Xo) - yo) ** 2))
        rng = make_rng(derive_seed(seed, t))
        row = np.empty(m)
        for f in range(m):
            perm = rng.permutation(oob.size)
            Xp = Xo.copy()
            Xp[:, f] = Xo[perm, f]
            row[f] = float(np.mean((tree.predict_batch(Xp) - yo) ** 2)) - tree_mse
        deltas.append(row)
    if not deltas:
        raise EmptyModelError("no tree had out-of-bag rows")
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
