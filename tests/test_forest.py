"""Forest tests: determinism, OOB accounting, permutation importance."""

from __future__ import annotations

import numpy as np
import pytest

from charterseg.errors import ConfigError, EmptyModelError
from charterseg.forest import (
    _SUBSET_BATCH,
    ForestParams,
    _subset_bounds,
    _subsets,
    grow_forest,
    oob_predict,
    permutation_importance,
)
from charterseg.seeding import derive_seed, make_rng
from charterseg.study import write_importance_table
from charterseg.synthetic import generate_synthetic_panel, planted_matrix
from charterseg.tree import RegressionTree, TreeParams, _build_many, export_json, grow

from helpers import (make_matrix, random_matrix, reference_build, reference_importance,
                     reference_oob_predictions)


def identity_bootstrap(rng, n):
    return np.arange(n)


def signal_matrix(seed=0, n=300, noise_features=3, sigma=0.05):
    """One planted stump feature plus independent noise columns."""
    rng = make_rng(seed)
    signal = rng.uniform(1.0, 5.0, size=n)
    y = np.where(signal < 3.0, 0.9, 1.2) + rng.normal(0.0, sigma, size=n)
    cols = [signal] + [rng.uniform(1.0, 5.0, size=n) for _ in range(noise_features)]
    names = ["signal"] + [f"noise{i}" for i in range(noise_features)]
    return make_matrix(np.column_stack(cols), y, names)


# ------------------------------------------------------------- grow_forest


def test_degenerate_forest_equals_single_tree():
    rng = make_rng(50)
    mat = random_matrix(rng, n=80, m=3)
    params = ForestParams(n_trees=1, mtry=3, min_leaf=5)
    forest = grow_forest(mat, params, seed=9, bootstrap=identity_bootstrap)
    single = grow(mat, TreeParams(min_leaf=5))
    assert export_json(forest.trees[0]) == export_json(single)
    probe = rng.uniform(1.0, 5.0, size=(40, 3))
    assert np.array_equal(forest.trees[0].predict_batch(probe),
                          single.predict_batch(probe))


def test_forest_determinism():
    mat = signal_matrix()
    params = ForestParams(n_trees=12, min_leaf=5)
    a = grow_forest(mat, params, seed=123)
    b = grow_forest(mat, params, seed=123)
    assert all(export_json(x) == export_json(y) for x, y in zip(a.trees, b.trees))
    assert all(np.array_equal(x, y)
               for x, y in zip(a.bootstrap_indices, b.bootstrap_indices))
    c = grow_forest(mat, ForestParams(n_trees=12, min_leaf=5), seed=124)
    assert any(export_json(x) != export_json(y) for x, y in zip(a.trees, c.trees))


def one_by_one(mat, n_trees, mtry, params, seed, bootstrap=None):
    """Each tree's bootstrap, then its tree by the preorder recursion, one tree at a time."""
    n, m = mat.n_rows, mat.n_features
    trees, boots = [], []
    for t in range(n_trees):
        rng = make_rng(derive_seed(seed, t))
        boot = bootstrap(rng, n) if bootstrap is not None else rng.integers(0, n, size=n)
        columns = reference_build(mat.scores[boot], mat.response[boot], params,
                                  lambda: np.sort(rng.choice(m, size=mtry, replace=False)))
        trees.append(RegressionTree(*columns, mat.feature_names, params))
        boots.append(boot)
    return trees, boots


def test_lockstep_forest_equals_trees_grown_one_by_one():
    # The trees advance together, one preorder node each per step; every
    # tree must still draw its bootstrap and its candidates from its own
    # generator in its own preorder. max_depth is reached through
    # _build_many, since forest trees grow unbounded.
    rng = make_rng(44)
    for trial in range(24):
        n, m = int(rng.integers(2, 120)), int(rng.integers(1, 7))
        X = rng.integers(1, 6, size=(n, m)).astype(float)
        mat = make_matrix(X, np.round(X[:, 0] + rng.normal(size=n), 1))
        bootstrap = identity_bootstrap if trial % 4 == 0 else None
        for mtry in sorted({1, min(2, m), max(1, m // 3), m}):
            for min_leaf in (1, 2, 5):
                if n < min_leaf:
                    continue
                want, want_boots = one_by_one(mat, 4, mtry, TreeParams(min_leaf), trial,
                                              bootstrap)
                forest = grow_forest(mat, ForestParams(4, mtry, min_leaf), seed=trial,
                                     bootstrap=bootstrap)
                assert [export_json(t) for t in forest.trees] == [export_json(t) for t in want]
                assert all(np.array_equal(a, b)
                           for a, b in zip(forest.bootstrap_indices, want_boots))
                params = TreeParams(min_leaf, max_depth=3)
                want, boots = one_by_one(mat, 4, mtry, params, trial, bootstrap)
                rngs = [make_rng(derive_seed(trial, t)) for t in range(4)]
                for r in rngs:  # the bootstrap draws come first
                    bootstrap(r, n) if bootstrap is not None else r.integers(0, n, size=n)
                picks = [lambda r=r: np.sort(r.choice(m, size=mtry, replace=False))
                         for r in rngs]
                got = _build_many(mat, boots, params, picks)
                assert [export_json(t) for t in got] == [export_json(t) for t in want]
    # Tree t does not depend on how many trees grow beside it.
    mat = signal_matrix(seed=8, n=200, noise_features=5)
    big = grow_forest(mat, ForestParams(n_trees=12, mtry=2, min_leaf=3), seed=8)
    small = grow_forest(mat, ForestParams(n_trees=5, mtry=2, min_leaf=3), seed=8)
    for t in range(5):
        assert export_json(big.trees[t]) == export_json(small.trees[t])
        assert np.array_equal(big.bootstrap_indices[t], small.bootstrap_indices[t])


def test_lockstep_forest_of_the_benchmark_shape_equals_trees_grown_one_by_one():
    # Wide, mixed-size steps: 12 trees on 890 rows and 18 features, where a
    # block packs nodes of many sizes and trees that advance more than one
    # node per step.
    rng = make_rng(45)
    X = rng.uniform(1.0, 5.0, size=(890, 18))
    X[:, ::3] = np.round(X[:, ::3] * 4.0) / 4.0  # ties within a node
    mat = make_matrix(X, X[:, 0] - X[:, 1] ** 2 / 5.0 + rng.normal(0.0, 0.5, size=890))
    want, want_boots = one_by_one(mat, 12, 6, TreeParams(5), 7)
    forest = grow_forest(mat, ForestParams(12, 6, 5), seed=7)
    assert [export_json(t) for t in forest.trees] == [export_json(t) for t in want]
    assert all(np.array_equal(a, b) for a, b in zip(forest.bootstrap_indices, want_boots))


def test_forests_of_one_chunk_and_one_more_tree_equal_trees_grown_one_by_one(monkeypatch):
    # A call of the tree factory lays out every tree of its chunk from one
    # node table; the last chunk may hold a single tree.
    mat = signal_matrix(seed=10, n=120, noise_features=4)
    monkeypatch.setattr("charterseg.forest._FOREST_ROWS", 3 * mat.n_rows)  # three trees a call
    for n_trees in (3, 4):
        want, want_boots = one_by_one(mat, n_trees, 2, TreeParams(2), 10)
        forest = grow_forest(mat, ForestParams(n_trees, 2, 2), seed=10)
        assert [export_json(t) for t in forest.trees] == [export_json(t) for t in want]
        assert all(np.array_equal(a, b) for a, b in zip(forest.bootstrap_indices, want_boots))


def test_batched_subsets_equal_choice_call_by_call():
    # grow_forest draws a batch of subsets per integers call; each must be
    # the sorted subset numpy's choice draws at that call, and a batch must
    # leave the stream where that many choice calls leave it. If numpy's
    # choice changes, this fails before any pinned digest does.
    calls = 2 * _SUBSET_BATCH + 5
    for seed in (0, 1, 2):
        for m in [*range(1, 21), 40]:
            for mtry in sorted({1, min(2, m), max(m // 3, 1), max(m - 1, 1), m}):
                rng, ref = make_rng(seed), make_rng(seed)
                subsets = _subsets(rng, m, mtry, _subset_bounds(m, mtry))
                for _ in range(calls):
                    assert np.array_equal(next(subsets),
                                          np.sort(ref.choice(m, mtry, replace=False)))
                for _ in range(-calls % _SUBSET_BATCH):  # the rest of the last batch
                    ref.choice(m, mtry, replace=False)
                assert rng.bit_generator.state == ref.bit_generator.state
                if m == 1:  # choice(1, 1) draws nothing
                    assert rng.bit_generator.state == make_rng(seed).bit_generator.state


def test_forest_grown_in_calls_of_a_row_budget_equals_one_call(monkeypatch):
    # Each call of the tree factory grows as many consecutive trees as fit
    # _FOREST_ROWS; every tree keeps its own generator and bootstrap.
    mat = signal_matrix(seed=9, n=200, noise_features=5)
    params = ForestParams(n_trees=12, mtry=2, min_leaf=3)
    whole = grow_forest(mat, params, seed=9)
    calls = []

    def counted(matrix, roots, *args):
        calls.append(len(roots))
        return _build_many(matrix, roots, *args)

    monkeypatch.setattr("charterseg.forest._FOREST_ROWS", 5 * mat.n_rows + 1)
    monkeypatch.setattr("charterseg.forest._build_many", counted)
    parts = grow_forest(mat, params, seed=9)
    assert calls == [5, 5, 2]
    assert [export_json(t) for t in parts.trees] == [export_json(t) for t in whole.trees]
    assert all(np.array_equal(a, b)
               for a, b in zip(parts.bootstrap_indices, whole.bootstrap_indices))


@pytest.mark.parametrize("n", [0, 4])
def test_forest_needs_min_leaf_rows(n):
    # Drawing a bootstrap of zero rows does not fail by itself; growth must.
    mat = make_matrix(np.ones((n, 2)), np.zeros(n))
    with pytest.raises(EmptyModelError, match=f"need at least min_leaf=5 rows, got {n}"):
        grow_forest(mat, ForestParams(n_trees=3, min_leaf=5))


def test_forest_default_mtry():
    assert ForestParams().resolve_mtry(9) == 3
    assert ForestParams().resolve_mtry(2) == 1
    assert ForestParams(mtry=4).resolve_mtry(6) == 4
    with pytest.raises(ConfigError):
        ForestParams(mtry=7).resolve_mtry(6)
    with pytest.raises(ConfigError):
        ForestParams(n_trees=0)
    with pytest.raises(ConfigError, match="forest.mtry must be >= 1"):
        ForestParams(mtry=0)


def test_forest_bootstrap_shape_and_range():
    mat = signal_matrix(n=100)
    forest = grow_forest(mat, ForestParams(n_trees=5, min_leaf=5), seed=3)
    for boot in forest.bootstrap_indices:
        assert boot.shape == (100,)
        assert boot.min() >= 0 and boot.max() < 100


def test_forest_oob_fraction_near_one_over_e():
    mat = signal_matrix(n=1000)
    forest = grow_forest(mat, ForestParams(n_trees=30, min_leaf=5), seed=1)
    fractions = [1.0 - np.unique(b).size / 1000.0 for b in forest.bootstrap_indices]
    assert abs(np.mean(fractions) - np.exp(-1.0)) < 0.03


# ------------------------------------------------------------- oob_predict


def test_oob_single_tree_predictions():
    mat = signal_matrix(n=120)
    forest = grow_forest(mat, ForestParams(n_trees=1, min_leaf=5), seed=7)
    predictions = oob_predict(forest, mat)
    boot = forest.bootstrap_indices[0]
    oob_rows = np.setdiff1d(np.arange(120), boot)
    tree_pred = forest.trees[0].predict_batch(mat.scores[oob_rows])
    assert predictions.shape == (120,)
    assert np.array_equal(predictions[oob_rows], tree_pred)
    assert np.array_equal(np.flatnonzero(np.isnan(predictions)), np.unique(boot))
    assert np.array_equal(predictions, reference_oob_predictions(forest, mat), equal_nan=True)


def test_oob_predictions_equal_the_oracle():
    mat = signal_matrix(n=90)
    forest = grow_forest(mat, ForestParams(n_trees=15, min_leaf=5), seed=2)
    predictions = oob_predict(forest, mat)
    assert not np.isnan(predictions).any()
    assert np.array_equal(predictions, reference_oob_predictions(forest, mat))


def test_oob_predictions_are_nan_exactly_on_the_rows_every_bootstrap_drew():
    # Every bootstrap draws rows 0-9; the rest of each is a seeded resample,
    # so some later rows are out of bag for some trees and not others.
    def with_first_ten(rng, n):
        return np.concatenate([np.arange(10), rng.integers(0, n, size=n - 10)])

    mat = signal_matrix(n=60)
    forest = grow_forest(mat, ForestParams(n_trees=3, min_leaf=5), seed=5,
                         bootstrap=with_first_ten)
    always = set(range(60))
    for boot in forest.bootstrap_indices:
        always &= set(boot.tolist())
    assert set(range(10)) <= always and len(always) > 10
    predictions = oob_predict(forest, mat)
    assert np.flatnonzero(np.isnan(predictions)).tolist() == sorted(always)
    assert np.array_equal(predictions, reference_oob_predictions(forest, mat), equal_nan=True)


def test_oob_beats_single_leaf_on_planted_data(three_split_spec):
    panel = generate_synthetic_panel(three_split_spec, n=300, noise_sigma=0.02, seed=6)
    mat = planted_matrix(panel, three_split_spec)
    forest = grow_forest(mat, ForestParams(n_trees=200, min_leaf=5), seed=6)
    predictions = oob_predict(forest, mat)
    single_leaf_mse = float(np.var(mat.response))
    assert np.mean((predictions - mat.response) ** 2) < single_leaf_mse


def test_oob_row_count_mismatch():
    mat = signal_matrix(n=80)
    forest = grow_forest(mat, ForestParams(n_trees=2, min_leaf=5), seed=1)
    with pytest.raises(ConfigError):
        oob_predict(forest, make_matrix(mat.scores[:40], mat.response[:40], mat.feature_names))


def test_oob_identity_bootstrap_has_no_oob_rows():
    mat = signal_matrix(n=80)
    forest = grow_forest(mat, ForestParams(n_trees=2, min_leaf=5), seed=1,
                         bootstrap=identity_bootstrap)
    with pytest.raises(EmptyModelError):
        oob_predict(forest, mat)


# -------------------------------------------------- permutation_importance


def test_importance_signal_tops_noise():
    mat = signal_matrix(seed=4)
    forest = grow_forest(mat, ForestParams(n_trees=60, min_leaf=5), seed=4)
    report = permutation_importance(forest, mat, seed=4)
    scores = report.by_name()
    assert max(scores, key=scores.get) == "signal"
    assert scores["signal"] > 10.0


def test_importance_determinism():
    mat = signal_matrix(seed=5)
    forest = grow_forest(mat, ForestParams(n_trees=20, min_leaf=5), seed=5)
    a = permutation_importance(forest, mat, seed=11)
    b = permutation_importance(forest, mat, seed=11)
    assert np.array_equal(a.pct_inc_mse, b.pct_inc_mse)
    assert np.array_equal(a.stderr, b.stderr)
    c = permutation_importance(forest, mat, seed=12)
    assert not np.array_equal(a.pct_inc_mse, c.pct_inc_mse)


def test_importance_normalisation_consistency():
    mat = signal_matrix(seed=6)
    forest = grow_forest(mat, ForestParams(n_trees=25, min_leaf=5), seed=6)
    report = permutation_importance(forest, mat, seed=6)
    assert np.allclose(report.pct_inc_mse,
                       100.0 * report.raw_delta / report.oob_mse, rtol=1e-12)
    assert report.oob_mse > 0.0
    assert np.all(report.stderr >= 0.0)


def test_importance_of_a_one_tree_forest_has_zero_stderr():
    mat = signal_matrix(seed=8)
    forest = grow_forest(mat, ForestParams(n_trees=1, min_leaf=5), seed=8)
    report = permutation_importance(forest, mat, seed=8)
    assert np.array_equal(report.stderr, np.zeros(mat.n_features))
    assert report.raw_delta[0] > 0.0


def test_importance_of_a_constant_response_is_an_empty_model():
    mat = signal_matrix(seed=8)
    flat = make_matrix(mat.scores, np.full(mat.n_rows, 1.25), mat.feature_names)
    forest = grow_forest(flat, ForestParams(n_trees=4, min_leaf=5), seed=8)
    with pytest.raises(EmptyModelError, match="forest OOB MSE is zero"):
        permutation_importance(forest, flat, seed=8)


def test_importance_csv_round_trip(tmp_path):
    mat = signal_matrix(seed=7)
    forest = grow_forest(mat, ForestParams(n_trees=10, min_leaf=5), seed=7)
    report = permutation_importance(forest, mat, seed=7)
    path = tmp_path / "importance.csv"
    write_importance_table(path, report)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "feature,pct_inc_mse,raw_delta,stderr"
    assert len(lines) == 1 + mat.n_features
    name, pct, raw, se = lines[1].split(",")
    assert name == "signal"
    # repr round-trips the float exactly
    assert float(pct) == report.pct_inc_mse[0]
    assert float(raw) == report.raw_delta[0]
    assert float(se) == report.stderr[0]


def assert_importance_equals_reference(forest, mat, seed):
    report = permutation_importance(forest, mat, seed=seed)
    pct, raw, stderr, oob_mse = reference_importance(forest, mat, seed)
    assert np.array_equal(report.pct_inc_mse, pct)
    assert np.array_equal(report.raw_delta, raw)
    assert np.array_equal(report.stderr, stderr)
    assert report.oob_mse == oob_mse
    return report


@pytest.mark.parametrize("seed, n, m", [(0, 60, 3), (1, 300, 6), (2, 890, 18)])
def test_importance_equals_a_per_copy_reference(seed, n, m):
    # One mean over each copy's OOB rows must equal that copy's own mean to
    # the bit, also past numpy's 128-element pairwise summation block.
    rng = make_rng(seed)
    X = rng.uniform(1.0, 5.0, size=(n, m))
    mat = make_matrix(X, X[:, 0] + rng.normal(0.0, 0.3, size=n))
    forest = grow_forest(mat, ForestParams(n_trees=6, min_leaf=5), seed=seed)
    assert_importance_equals_reference(forest, mat, seed)


def test_importance_equals_the_reference_when_a_tree_has_no_oob_row():
    # Tree 2 trains on every row, so it has no OOB row and draws nothing;
    # trees 4 and 5 miss one and two rows, and a shuffle of one row draws
    # nothing, as rng.permutation(1) does. The trees after them keep their
    # own seeded draws.
    calls = []
    missed = {3: 0, 5: 1, 6: 2}

    def few_out_of_bag(rng, n):
        calls.append(n)
        if len(calls) not in missed:
            return rng.integers(0, n, size=n)
        boot = np.arange(n)
        boot[n - missed[len(calls)]:] = 0
        return boot

    for seed in (3, 4):
        calls.clear()
        mat = signal_matrix(seed=seed, n=150, noise_features=5)
        forest = grow_forest(mat, ForestParams(n_trees=8, mtry=2, min_leaf=3), seed=seed,
                             bootstrap=few_out_of_bag)
        for t, k in ((2, 0), (4, 1), (5, 2)):
            assert mat.n_rows - np.unique(forest.bootstrap_indices[t]).size == k
        assert_importance_equals_reference(forest, mat, seed)


def test_importance_draws_a_shuffle_for_a_feature_no_path_tests():
    # Feature 0 is constant, so no tree splits on it and no copy shuffling
    # it is routed. Its permutation is still drawn, or every later
    # feature's shuffle would come from a different draw.
    rng = make_rng(8)
    n = 200
    X = np.column_stack([np.full(n, 3.0), rng.uniform(1.0, 5.0, size=(n, 4))])
    mat = make_matrix(X, X[:, 1] + rng.normal(0.0, 0.3, size=n))
    forest = grow_forest(mat, ForestParams(n_trees=6, mtry=3, min_leaf=5), seed=8)
    assert not any((tree.feature == 0).any() for tree in forest.trees)
    report = assert_importance_equals_reference(forest, mat, 8)
    assert report.raw_delta[0] == 0.0
    assert report.raw_delta[1] > 0.0


def test_importance_of_single_leaf_trees_is_zero():
    # With 2 * min_leaf > n no tree splits, so no shuffle moves any row.
    mat = signal_matrix(seed=9, n=9, noise_features=2)
    forest = grow_forest(mat, ForestParams(n_trees=6, min_leaf=5), seed=9)
    assert all(tree.n_leaves == 1 for tree in forest.trees)
    report = assert_importance_equals_reference(forest, mat, 9)
    assert not report.raw_delta.any()


def test_importance_routes_each_oob_row_once_plus_one_copy_per_tested_pair(monkeypatch):
    # A tree routes its k OOB rows once, then one copy of each (feature,
    # row) pair whose root-to-leaf path tests the feature: shuffling any
    # other feature cannot move the row.
    mat = signal_matrix(seed=10, n=300, noise_features=5)
    forest = grow_forest(mat, ForestParams(n_trees=8, mtry=2, min_leaf=5), seed=10)
    expected = {}
    for tree, boot in zip(forest.trees, forest.bootstrap_indices):
        oob = np.setdiff1d(np.arange(mat.n_rows), boot)
        pairs = 0
        for x in mat.scores[oob]:
            at, tested = 0, set()
            while tree.feature[at] >= 0:
                tested.add(int(tree.feature[at]))
                left, right = tree.children(at)
                at = left if x[tree.feature[at]] < tree.threshold[at] else right
            pairs += len(tested)
        expected[id(tree)] = oob.size + pairs
    routed = {}
    levels = RegressionTree._levels

    def counting(tree, X):
        routed[id(tree)] = routed.get(id(tree), 0) + X.shape[0]
        return levels(tree, X)

    monkeypatch.setattr(RegressionTree, "_levels", counting)
    permutation_importance(forest, mat, seed=10)
    assert routed == expected
    # Fewer than the m + 1 copies of every OOB row that routing every
    # shuffle would take.
    assert sum(routed.values()) < (mat.n_features + 1) * sum(
        mat.n_rows - np.unique(b).size for b in forest.bootstrap_indices)
