"""Regression tree unit tests: split search, growth, pruning, export."""

from __future__ import annotations

import importlib.util
import itertools
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from charterseg.config import parse_config
from charterseg.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyModelError,
    SchemaError,
)
from charterseg.forest import ForestParams, grow_forest
from charterseg.seeding import make_rng
from charterseg.study import run_study
from charterseg.tree import (
    RegressionTree,
    TreeParams,
    _BLOCK_ROWS,
    _NODE_ARRAYS,
    _best_cuts,
    _buckets,
    _build_many,
    _code,
    _fold_penalties,
    _pruned_predictions,
    _run_sse,
    cost_complexity_sequence,
    cv_prune,
    export_dot,
    export_json,
    extreme_leaf_indices,
    grow,
    prune_at,
)

from helpers import (
    Internal,
    Leaf,
    SplitRule,
    brute_force_best_split,
    build_tree,
    check_stats_consistency,
    consistent_internal,
    direct_sse,
    internal_paths,
    make_matrix,
    parse_dot,
    random_matrix,
    reference_best_cuts,
    reference_build,
    reference_collapses,
    reference_cost_complexity_sequence,
    reference_predict,
    reference_prune_at,
    root,
    root_split,
    same_topology,
    tree_from_json,
)


# ------------------------------------------------------------ node statistics


def test_node_sse_constant():
    means, sses, ends = _run_sse(np.array([5.0, 5.0, 5.0]), np.array([3]))
    assert (means.tolist(), sses.tolist(), ends.tolist()) == ([5.0], [0.0], [3])


def test_node_sse_two_point():
    means, sses, _ = _run_sse(np.array([0.0, 10.0]), np.array([2]))
    assert (means.tolist(), sses.tolist()) == ([5.0], [50.0])


def test_node_sse_four_point():
    # Two runs in one call, each centred on its own mean.
    means, sses, ends = _run_sse(np.array([0.0, 10.0, 0.0, 0.0, 10.0, 10.0]), np.array([2, 4]))
    assert (means.tolist(), sses.tolist(), ends.tolist()) == ([5.0, 5.0], [50.0, 100.0], [2, 6])


def test_node_sse_empty_rejected():
    with pytest.raises(DegenerateInputError):
        _run_sse(np.array([1.0, 2.0]), np.array([2, 0]))


# ------------------------------------------------------------- best split
# The root of a depth-1 tree from the one tree factory, read by root_split.


def test_best_split_worked_example():
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 10.0, 10.0])
    f, thr, gain = root_split(mat, 1)
    assert (f, thr) == (0, 2.5)
    assert gain == pytest.approx(100.0, rel=1e-12)


def test_best_split_constant_response():
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], np.zeros(4))
    assert root_split(mat, 1) is None


def test_best_split_min_leaf_infeasible():
    mat = make_matrix([[1.0], [2.0], [3.0]], [0.0, 1.0, 2.0])
    assert root_split(mat, 2) is None


def test_best_split_tie_prefers_lower_feature():
    # second column duplicates the first; gains are float-identical
    mat = make_matrix([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]], [0.0, 0.0, 10.0, 10.0])
    assert root_split(mat, 1)[0] == 0


def test_best_split_tie_prefers_smaller_threshold():
    # symmetric response: cutting after the first or before the last point
    # reduces SSE by the same amount; the smaller threshold must win
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, 1.0, 1.0, 0.0])
    _, thr, gain = root_split(mat, 1)
    assert thr == 1.5
    assert gain == pytest.approx(1.0 - direct_sse([1.0, 1.0, 0.0]), rel=1e-12)


def test_best_split_midpoint_rounds_to_upper_value():
    a = 1.0
    b = float(np.nextafter(1.0, 2.0))
    _, thr, _ = root_split(make_matrix([[a], [a], [b], [b]], [0.0, 0.0, 1.0, 1.0]), 1)
    # (a + b) / 2 rounds back onto a, so the threshold must be b itself
    assert thr == b
    assert a < thr <= b


def test_best_split_restricted_features():
    mat = make_matrix([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]], [0.0, 0.0, 10.0, 10.0])
    assert root_split(mat, 1, subset=np.array([1]))[0] == 1


def test_best_split_matches_brute_force():
    rng = make_rng(2024)
    for trial in range(25):
        mat = random_matrix(rng, tie_heavy=bool(trial % 2))
        min_leaf = int(rng.integers(1, 6))
        got = root_split(mat, min_leaf)
        want = brute_force_best_split(mat.scores, mat.response, min_leaf)
        if want is None:
            assert got is None
            continue
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], rel=1e-9)


def test_best_split_on_feature_subsets_matches_brute_force():
    # Forest nodes search a random subset of the columns, drawn as the
    # forest's pick() draws it; the oracle searches those columns alone.
    rng = make_rng(2025)
    for trial in range(40):
        mat = random_matrix(rng, m=int(rng.integers(2, 9)), tie_heavy=bool(trial % 2))
        X, y = np.array(mat.scores), mat.response
        m = X.shape[1]
        if trial % 3 == 0:
            X[:, m - 1] = X[:, 0]  # the first and last columns tie on every cut
        subset = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        min_leaf = int(rng.integers(1, 6))
        got = root_split(make_matrix(X, y), min_leaf, subset)
        want = brute_force_best_split(X[:, subset], y, min_leaf)
        if want is None:
            assert got is None
            continue
        assert got[:2] == (subset[want[0]], want[1])
        assert got[2] == pytest.approx(want[2], rel=1e-9)


def test_best_split_tie_between_non_adjacent_candidates_takes_the_lower():
    rng = make_rng(31)
    X = rng.uniform(1.0, 5.0, size=(60, 4))
    X[:, 3] = X[:, 1]
    y = np.where(X[:, 1] < 3.0, 0.0, 1.0) + rng.normal(0.0, 0.01, 60)
    mat = make_matrix(X, y)
    f, thr, gain = root_split(mat, 5, np.array([0, 1, 3]))
    alone, alone_thr, alone_gain = root_split(mat, 5, np.array([0, 3]))
    assert (f, alone) == (1, 3)
    assert (thr, gain) == (alone_thr, alone_gain)
    ref_f, ref_thr, ref_gain = brute_force_best_split(X[:, [0, 1, 3]], y, 5)
    assert (ref_f, ref_thr) == (1, thr)
    assert gain == pytest.approx(ref_gain, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_best_split_rejects_non_finite_y(bad):
    # The split search takes only a ScoredMatrix, which refuses a non-finite response.
    with pytest.raises(DegenerateInputError, match="finite"):
        root_split(make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, bad, 1.0, 1.0]), 1)


def test_gain_shift_and_scale_behavior():
    rng = make_rng(5)
    mat = random_matrix(rng, n=120, m=4)
    gain = root_split(mat, 5)[2]
    gain_shift = root_split(make_matrix(mat.scores, mat.response + 100.0), 5)[2]
    gain_scale = root_split(make_matrix(mat.scores, mat.response * 2.0), 5)[2]
    assert gain_shift == pytest.approx(gain, rel=1e-9)
    assert gain_scale == pytest.approx(4.0 * gain, rel=1e-9)


# ------------------------------------------------------------ block scorer


def padded_block(rng, X, y, sizes, width):
    """A block of nodes of the given sizes over random rows of X, padded to the largest.

    Returns (float columns with +inf pads, their value ranks, centred
    responses with 0 pads): the inputs of reference_best_cuts and _best_cuts.
    """
    L = int(sizes.max())
    at = np.full((sizes.size, L), X.shape[0])  # a pad reads the extra last row
    means = np.empty(sizes.size)
    for i, size in enumerate(sizes):
        at[i, :size] = rng.choice(X.shape[0], size=size, replace=False)
        means[i] = y[at[i, :size]].mean()
    feats = np.sort(np.array([rng.choice(X.shape[1], size=width, replace=False)
                              for _ in sizes]), axis=1)
    padded_X = np.hstack([X.T, np.full((X.shape[1], 1), np.inf)])
    codes, _ = _code(X)
    pad = at == X.shape[0]
    centred = np.where(pad, 0.0, np.append(y, 0.0)[at] - means[:, None])
    return (padded_X[feats[:, :, None], at[:, None, :]], codes[feats[:, :, None], at[:, None, :]],
            centred)


def test_key_scorer_equals_the_float_scorer_on_tie_heavy_blocks():
    rng = make_rng(47)
    for _ in range(150):
        min_leaf = int(rng.choice([1, 2, 5]))
        n_rows, m = int(rng.integers(4 * min_leaf + 2, 90)), int(rng.integers(1, 6))
        X = rng.integers(1, int(rng.integers(2, 7)), size=(n_rows, m)).astype(float)
        y = np.round(X[:, 0] + rng.normal(size=n_rows), 1)
        sizes = np.sort(rng.integers(2 * min_leaf, n_rows + 1, size=int(rng.integers(1, 8))))
        cols, codes, centred = padded_block(rng, X, y, sizes, int(rng.integers(1, m + 1)))
        _, values = _code(X)
        got = _best_cuts(codes, centred, sizes, min_leaf, values)
        want = reference_best_cuts(cols, centred, sizes, min_leaf)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_key_scorer_takes_int64_keys_when_int32_would_overflow():
    # 2**21 + 1 values and L = 1025 (11 position bits): rank << 11 passes
    # 2**31 for the top ranks, so int32 keys would wrap and misorder them.
    rng = make_rng(48)
    values = np.append(np.arange(2.0 ** 21), np.inf)
    L, min_leaf = 1025, 2
    sizes = np.array([400, 700, L])
    ranks = np.concatenate([rng.choice(2 ** 21, size=20, replace=False), [0, 2 ** 21 - 1]])
    codes = rng.choice(ranks, size=(sizes.size, 3, L)).astype(np.int32)
    pad = np.arange(L) >= sizes[:, None]
    codes[np.broadcast_to(pad[:, None, :], codes.shape)] = values.size - 1
    centred = np.where(pad, 0.0, np.round(rng.normal(size=pad.shape), 1))
    for i, size in enumerate(sizes):
        centred[i, :size] -= centred[i, :size].mean()
    got = _best_cuts(codes, centred, sizes, min_leaf, values)
    want = reference_best_cuts(values[codes], centred, sizes, min_leaf)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert np.all(got[2] > 0.0)


# -------------------------------------------------------------------- grow


def test_grow_four_row_fixture():
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 10.0, 10.0])
    tree = grow(mat, TreeParams(min_leaf=1))
    assert isinstance(root(tree), Internal)
    assert root(tree).split == SplitRule(0, 2.5)
    left, right = root(tree).left, root(tree).right
    assert isinstance(left, Leaf) and isinstance(right, Leaf)
    assert (left.mean, right.mean) == (0.0, 10.0)
    assert tree.n_leaves == 2


def test_grow_too_few_rows():
    mat = make_matrix([[1.0], [2.0]], [0.0, 1.0])
    with pytest.raises(EmptyModelError):
        grow(mat, TreeParams(min_leaf=3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grow_refuses_a_non_finite_response(bad):
    # A NaN response would grow a one-leaf tree of mean NaN; the matrix refuses it.
    with pytest.raises(DegenerateInputError, match="response must be finite"):
        grow(make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, bad, 1.0, 1.0]),
             TreeParams(min_leaf=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grow_refuses_a_non_finite_score(bad):
    # Value ranks would put NaN last, so a cut could land beside it; the matrix refuses it.
    with pytest.raises(DegenerateInputError, match=re.escape("scores must lie within [1, 5]")):
        grow(make_matrix([[1.0], [2.0], [bad], [4.0]], [0.0, 0.0, 1.0, 1.0]),
             TreeParams(min_leaf=1))


def test_grow_refuses_a_matrix_without_features():
    # With no column to split on, the grower would fail on a numpy IndexError.
    with pytest.raises(SchemaError, match="at least one feature column"):
        grow(make_matrix(np.empty((4, 0)), np.zeros(4)), TreeParams(min_leaf=1))


def test_grow_single_leaf_between_min_leaf_and_double():
    # enough rows to exist, too few to split
    mat = make_matrix([[1.0], [2.0], [3.0]], [0.0, 5.0, 9.0])
    tree = grow(mat, TreeParams(min_leaf=2))
    assert isinstance(root(tree), Leaf)
    assert root(tree).n == 3


def test_grow_max_depth_zero_and_one():
    rng = make_rng(3)
    mat = random_matrix(rng, n=100, m=3)
    stump_only = grow(mat, TreeParams(min_leaf=5, max_depth=0))
    assert isinstance(root(stump_only), Leaf)
    depth1 = grow(mat, TreeParams(min_leaf=5, max_depth=1))
    assert depth1.n_leaves <= 2
    for child in (root(depth1).left, root(depth1).right):
        assert isinstance(child, Leaf)


def _walk_leaves(node):
    if isinstance(node, Leaf):
        yield node
        return
    yield from _walk_leaves(node.left)
    yield from _walk_leaves(node.right)


def test_grow_invariants_on_random_data():
    rng = make_rng(11)
    for _ in range(5):
        mat = random_matrix(rng, n=150, m=4)
        params = TreeParams(min_leaf=10)
        tree = grow(mat, params)
        assert root(tree).n == mat.n_rows
        check_stats_consistency(root(tree))
        for leaf in _walk_leaves(root(tree)):
            assert leaf.n >= params.min_leaf
        for _, node in internal_paths(root(tree)):
            assert node.n == node.left.n + node.right.n
            # positive gain was required to make the cut
            assert node.sse > node.left.sse + node.right.sse


def test_grow_training_rows_reach_their_leaf_means():
    rng = make_rng(12)
    mat = random_matrix(rng, n=80, m=3)
    tree = grow(mat, TreeParams(min_leaf=8))
    preds = tree.predict_batch(mat.scores)
    # group rows by prediction and verify each group's mean equals it
    for value in np.unique(preds):
        group = mat.response[preds == value]
        assert np.mean(group) == pytest.approx(value, rel=1e-12)


def tie_heavy_matrix(rng, low=2):
    """Integer scores 1-5 and responses rounded to one decimal: many tied cuts."""
    n, m = int(rng.integers(low, 120)), int(rng.integers(1, 6))
    X = rng.integers(1, 6, size=(n, m)).astype(float)
    return make_matrix(X, np.round(X[:, 0] + rng.normal(size=n), 1))


def test_grow_matches_the_preorder_recursion():
    # grow builds level by level over padded blocks; the reference recursion
    # scores one node at a time. With every feature a candidate at every
    # node, the two must give the same tree to the bit.
    rng = make_rng(41)
    for _ in range(200):
        mat = tie_heavy_matrix(rng)
        everything = np.arange(mat.n_features)
        for params in (TreeParams(min_leaf=int(rng.choice([1, 2, 5])), max_depth=md)
                       for md in (None, 3)):
            if mat.n_rows < params.min_leaf:
                continue
            recursive = RegressionTree(*reference_build(mat.scores, mat.response, params,
                                                        lambda: everything),
                                       mat.feature_names, params)
            assert export_json(grow(mat, params)) == export_json(recursive)


def test_fold_trees_of_one_batch_equal_trees_grown_alone():
    rng = make_rng(42)
    for min_leaf in (1, 1, 2, 2, 5, 5, 10):
        # At least 4 * min_leaf rows, so every five-fold training set holds min_leaf.
        mat = (tie_heavy_matrix(rng, low=4 * min_leaf) if min_leaf < 10
               else random_matrix(rng, n=150, m=4))
        params = TreeParams(min_leaf=min_leaf)
        roots = [np.arange(mat.n_rows)] + [
            np.setdiff1d(np.arange(mat.n_rows), test)
            for test in np.array_split(rng.permutation(mat.n_rows), 5)]
        batch = _build_many(mat, roots, params)
        for rows, tree in zip(roots, batch):
            alone = grow(make_matrix(mat.scores[rows], mat.response[rows]), params)
            assert export_json(tree) == export_json(alone)


def test_node_table_trees_equal_the_preorder_recursion(monkeypatch):
    # _build_many keeps every node in one table and places it in its tree's
    # preorder only at the end. Each tree must still equal reference_build's
    # to the bit: roots that stay leaves, depth caps of 0 and 1, blocks in
    # which no node splits, unsorted picks and a long right-hand chain.
    gains = []

    def scored(*args):
        found = _best_cuts(*args)
        gains.append(found[2])
        return found

    monkeypatch.setattr("charterseg.tree._best_cuts", scored)
    rng = make_rng(51)
    X = rng.integers(1, 6, size=(60, 3)).astype(float)
    y = np.round(X[:, 0] + rng.normal(size=60), 1)
    y[:20] = 1.5  # a root of these rows finds no cut with a gain
    i = np.arange(40)
    # y falls fourfold a row: every split cuts off the row of least x, and
    # the right child goes on down.
    chain = make_matrix(np.column_stack([1 + i / 10, 1 + (39 - i) % 7 / 2]), 0.25 ** i)
    cases = [(make_matrix(X, y), [np.arange(60), np.arange(20), np.arange(20, 23),
                                  rng.integers(0, 60, size=60), rng.permutation(60)[:33]]),
             (chain, [i, i[::-1], i[::2]])]
    leaf_roots = 0
    for mat, roots in cases:
        m = mat.n_features
        for params in (TreeParams(min_leaf, max_depth)
                       for min_leaf in (1, 3) for max_depth in (None, 0, 1, 3)):
            for mtry in (None, 1, m - 1):
                picks = None if mtry is None else [
                    lambda r=make_rng(100 + t): r.permutation(m)[:mtry]  # unsorted
                    for t in range(len(roots))]
                got = _build_many(mat, roots, params, picks)
                for t, (rows, tree) in enumerate(zip(roots, got)):
                    draw = make_rng(100 + t)
                    pick = ((lambda: np.arange(m)) if mtry is None
                            else lambda: np.sort(draw.permutation(m)[:mtry]))
                    want = RegressionTree(*reference_build(mat.scores[rows], mat.response[rows],
                                                           params, pick),
                                          mat.feature_names, params)
                    assert export_json(tree) == export_json(want)
                    leaf_roots += tree.n_leaves == 1
                for a, b in itertools.combinations(got, 2):
                    assert not any(np.shares_memory(getattr(a, name), getattr(b, name))
                                   for name, _ in _NODE_ARRAYS)
                for tree in got:  # its own read-only arrays, no views of a shared table
                    assert all(getattr(tree, name).base is None
                               and not getattr(tree, name).flags.writeable
                               for name, _ in _NODE_ARRAYS)
    assert leaf_roots and any(not (gain > 0.0).any() for gain in gains)
    for rows in (i, i[::-1]):  # 39 levels: each left child is a leaf
        tree = _build_many(chain, [rows], TreeParams(1))[0]
        assert np.array_equal(tree.right[tree.feature >= 0], np.arange(2, 79, 2))


def test_buckets_pad_at_most_x_rows_and_hold_at_most_rows_over_l_nodes():
    rng = make_rng(43)
    for _ in range(200):
        n_rows = int(rng.integers(2, 500))
        rows = _BLOCK_ROWS * n_rows
        sizes = np.sort(rng.integers(2, n_rows + 1, size=int(rng.integers(1, 60)))).tolist()
        covered = []
        for part in _buckets(sizes, n_rows):
            block = sizes[part]
            padded = len(block) * block[-1]
            assert len(block) >= 1 and part.step is None
            assert len(block) <= max(1, rows // block[-1])
            assert len(block) == 1 or padded - sum(block) <= n_rows
            if part.stop < len(sizes):  # the next size would break a bound
                grown = (len(block) + 1) * sizes[part.stop]
                assert grown > rows or grown - sum(block) - sizes[part.stop] > n_rows
            covered.extend(range(part.start, part.stop))
        assert covered == list(range(len(sizes)))


def _count_best_cuts(monkeypatch):
    """Record the node count of each _best_cuts call."""
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return _best_cuts(*args)

    monkeypatch.setattr("charterseg.tree._best_cuts", counted)
    return calls


def test_cv_prune_scores_a_level_of_its_trees_in_few_blocks(monkeypatch):
    # The waste rule packs the full tree's and the ten fold trees' nodes of a
    # level into a few blocks: 65 calls score these 693 nodes. Buckets of
    # sizes within 2x of their smallest took 91, and a cap of one tree's rows
    # per block, n // L nodes, took 179.
    calls = _count_best_cuts(monkeypatch)
    mat = random_matrix(make_rng(49), n=890, m=6)
    cv_prune(mat, TreeParams(min_leaf=10), k=10, seed=0)
    assert (len(calls), sum(calls)) == (65, 693)


def test_deep_prune_cv_scores_its_levels_in_few_blocks(monkeypatch, tmp_path):
    # The one cv_prune of the benchmark's deep_prune study on its full
    # sample (890 rows, six fixed proxies, min_leaf 10, ten folds): 26 calls
    # score its 682 splittable nodes. How the factory keeps its nodes does
    # not move these counts; only other blocks do.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_panel(tmp_path / "panel.csv", 75, 0)
    config = parse_config({"data": {"path": str(tmp_path / "panel.csv")}, "seed": 1,
                           "tree": {"min_leaf": 10, "cv_folds": 10},
                           "selection": {"mode": "fixed"},
                           "subsamples": [{"name": "full", "criterion": {"kind": "all"}}]})
    calls = _count_best_cuts(monkeypatch)
    (result,) = run_study(config).results
    assert result.n_rows == 890 and len(result.tree.feature_names) == 6
    assert (len(calls), sum(calls)) == (26, 682)


def test_lockstep_forest_scores_its_steps_in_few_blocks(monkeypatch):
    # A 12-tree forest of the benchmark's shape: 208 calls score its 1,694
    # splittable nodes. A step takes each tree's next pending node and, while
    # a taken node's children cannot split, the node after it. One node per
    # tree per step, in buckets of sizes within 2x of their smallest, took 501.
    calls = _count_best_cuts(monkeypatch)
    mat = random_matrix(make_rng(50), n=890, m=18)
    grow_forest(mat, ForestParams(n_trees=12, mtry=6, min_leaf=5), seed=0)
    assert (len(calls), sum(calls)) == (208, 1694)


def test_grow_row_permutation_invariance():
    rng = make_rng(13)
    mat = random_matrix(rng, n=90, m=3)
    perm = rng.permutation(mat.n_rows)
    tree_a = grow(mat, TreeParams(min_leaf=7))
    tree_b = grow(make_matrix(mat.scores[perm], mat.response[perm]), TreeParams(min_leaf=7))
    assert same_topology(tree_a, tree_b)


def test_grow_response_shift_scale_invariance():
    rng = make_rng(14)
    mat = random_matrix(rng, n=90, m=3)
    shifted = make_matrix(mat.scores, mat.response + 7.0, mat.feature_names)
    scaled = make_matrix(mat.scores, mat.response * 2.0, mat.feature_names)
    base = grow(mat, TreeParams(min_leaf=7))
    assert same_topology(base, grow(shifted, TreeParams(min_leaf=7)))
    assert same_topology(base, grow(scaled, TreeParams(min_leaf=7)))


# ----------------------------------------------------------------- predict


def test_predict_single_leaf():
    tree = build_tree(Leaf(10, 1.25, 0.5), ("f0",))
    assert list(tree.predict_batch([[3.0], [999.0]])) == [1.25, 1.25]


def test_predict_routes_threshold_right():
    stump = consistent_internal(SplitRule(0, 2.5), Leaf(2, 0.0, 0.0), Leaf(2, 10.0, 0.0))
    tree = build_tree(stump, ("f0",))
    got = tree.predict_batch([[2.4999], [2.5], [2.5001]])
    assert list(got) == [0.0, 10.0, 10.0]  # value == threshold goes right


def test_predict_batch_matches_scalar_predict():
    rng = make_rng(15)
    mat = random_matrix(rng, n=60, m=4)
    tree = grow(mat, TreeParams(min_leaf=5))
    batch = tree.predict_batch(mat.scores)
    single = np.array([reference_predict(tree, row) for row in mat.scores])
    assert np.array_equal(batch, single)


@pytest.mark.parametrize("node", [3, -1])
def test_path_to_a_node_outside_the_tree(node):
    stump = consistent_internal(SplitRule(0, 2.5), Leaf(2, 0.0, 0.0), Leaf(2, 10.0, 0.0))
    tree = build_tree(stump, ("f0",))
    assert tree.path(2) == [(0, False)]
    with pytest.raises(DegenerateInputError, match=f"tree has no node {node}"):
        tree.path(node)


# ----------------------------------------------------------------- pruning


def test_stump_alpha_equals_root_gain():
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 10.0, 10.0])
    tree = grow(mat, TreeParams(min_leaf=1))
    trace = cost_complexity_sequence(tree)
    assert trace.subtree_sizes == (2, 1)
    assert len(trace.alphas) == 1
    assert trace.alphas[0] == pytest.approx(100.0, rel=1e-12)


def test_alpha_sequence_strictly_ascends():
    rng = make_rng(21)
    for _ in range(5):
        mat = random_matrix(rng, n=160, m=4)
        tree = grow(mat, TreeParams(min_leaf=8))
        trace = cost_complexity_sequence(tree)
        assert trace.subtree_sizes[0] == tree.n_leaves
        assert trace.subtree_sizes[-1] == 1
        assert all(b > a for a, b in zip(trace.alphas, trace.alphas[1:]))
        # sizes strictly decrease along the collapse schedule
        assert all(b < a for a, b in zip(trace.subtree_sizes, trace.subtree_sizes[1:]))


def test_cost_complexity_sequence_single_leaf():
    tree = build_tree(Leaf(40, 1.0, 2.0), ("f0",))
    trace = cost_complexity_sequence(tree)
    assert trace.alphas == ()
    assert trace.subtree_sizes == (1,)


def test_prune_at_endpoints():
    rng = make_rng(22)
    mat = random_matrix(rng, n=160, m=4)
    tree = grow(mat, TreeParams(min_leaf=8))
    trace = cost_complexity_sequence(tree)
    assert same_topology(prune_at(tree, 0.0), tree)
    collapsed = prune_at(tree, trace.alphas[-1])
    assert isinstance(root(collapsed), Leaf)
    assert root(collapsed).n == mat.n_rows
    assert export_json(prune_at(tree, np.inf)) == export_json(collapsed)


def test_prune_at_follows_schedule_sizes():
    rng = make_rng(23)
    mat = random_matrix(rng, n=200, m=5)
    tree = grow(mat, TreeParams(min_leaf=8))
    trace = cost_complexity_sequence(tree)
    for alpha, size in zip(trace.alphas, trace.subtree_sizes[1:]):
        assert prune_at(tree, alpha).n_leaves == size


def test_cv_prune_determinism_and_trace_shape():
    rng = make_rng(24)
    mat = random_matrix(rng, n=150, m=4)
    params = TreeParams(min_leaf=10)
    tree_a, trace_a = cv_prune(mat, params, k=5, seed=77)
    tree_b, trace_b = cv_prune(mat, params, k=5, seed=77)
    assert trace_a.chosen_alpha == trace_b.chosen_alpha
    assert export_json(tree_a) == export_json(tree_b)
    assert trace_a.rule == "min_cv"
    assert len(trace_a.eval_alphas) == len(trace_a.alphas) + 1
    assert trace_a.cv_mse.shape == (len(trace_a.eval_alphas), 5)
    assert np.array_equal(trace_a.cv_mse, trace_b.cv_mse)


def test_cv_prune_eval_alpha_grid():
    rng = make_rng(25)
    mat = random_matrix(rng, n=150, m=4)
    _, trace = cv_prune(mat, TreeParams(min_leaf=10), k=5, seed=1)
    evals, alphas = trace.eval_alphas, trace.alphas
    assert evals[0] == 0.0
    assert evals[-1] == alphas[-1]
    for mid, (a, b) in zip(evals[1:-1], zip(alphas[:-1], alphas[1:])):
        assert mid == pytest.approx(np.sqrt(a * b), rel=1e-12)
    assert trace.chosen_alpha in evals


def test_cv_prune_tie_goes_to_the_larger_penalty():
    # The full tree's 20 rows split 10/10, but no 16-row fold tree can split
    # at min_leaf 10, so every candidate penalty scores the same CV error.
    X = (1 + np.arange(20) / 5).reshape(-1, 1)
    mat = make_matrix(X, (np.arange(20) >= 10).astype(float))
    tree, trace = cv_prune(mat, TreeParams(min_leaf=10), k=5)
    assert trace.subtree_sizes == (2, 1)
    assert np.all(trace.cv_mse == trace.cv_mse[0])
    assert trace.chosen_alpha == trace.alphas[-1]
    assert tree.n_leaves == 1


def test_cv_prune_one_se_uses_the_sample_standard_deviation():
    # On this matrix the population SD (ddof=0) would choose another penalty.
    mat = random_matrix(make_rng(34), n=80, m=3)
    tree, trace = cv_prune(mat, TreeParams(min_leaf=5), k=5, rule="one_se", seed=34)
    means = trace.cv_mse.mean(axis=1)
    best = np.flatnonzero(means == means.min())[-1]

    def one_se(ddof):
        se = np.std(trace.cv_mse[best], ddof=ddof) / np.sqrt(5)
        return trace.eval_alphas[np.flatnonzero(means <= means[best] + se)[-1]]

    assert trace.chosen_alpha == one_se(1) == trace.eval_alphas[-1]
    assert one_se(0) != one_se(1)
    assert tree.n_leaves == 1


def test_cv_prune_bad_fold_counts():
    rng = make_rng(26)
    mat = random_matrix(rng, n=40, m=2)
    with pytest.raises(ConfigError):
        cv_prune(mat, TreeParams(min_leaf=3), k=1)
    with pytest.raises(ConfigError):
        cv_prune(mat, TreeParams(min_leaf=3), k=41)
    with pytest.raises(ConfigError):
        cv_prune(mat, TreeParams(min_leaf=3), k=10, rule="both")


def test_cv_prune_single_leaf_tree():
    mat = make_matrix([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 0.0, 0.0])
    tree, trace = cv_prune(mat, TreeParams(min_leaf=1), k=2)
    assert isinstance(root(tree), Leaf)
    assert trace.alphas == ()
    assert trace.chosen_alpha == 0.0


def test_cv_prune_keeps_noise_free_planted_tree(three_split_spec):
    from charterseg.synthetic import generate_synthetic_panel, planted_matrix

    panel = generate_synthetic_panel(three_split_spec, n=320, noise_sigma=0.0, seed=5)
    mat = planted_matrix(panel, three_split_spec)
    full = grow(mat, TreeParams(min_leaf=30))
    pruned, _ = cv_prune(mat, TreeParams(min_leaf=30), k=10, seed=5)
    assert same_topology(full, pruned)
    assert full.n_leaves == 4


def midpoint_alphas(alphas):
    """0, the geometric midpoints and the last alpha, as cv_prune scores them."""
    mids = [float(np.sqrt(a * b)) for a, b in zip(alphas[:-1], alphas[1:])]
    return [0.0, *mids, *alphas[-1:]]


@pytest.mark.parametrize("min_leaf", range(1, 11))
def test_pruning_matches_rescanning_reference(min_leaf):
    rng = make_rng(100 + min_leaf)
    for tie_heavy in (False, True):
        mat = random_matrix(rng, n=30 + 8 * min_leaf, m=3, tie_heavy=tie_heavy)
        tree = grow(mat, TreeParams(min_leaf=min_leaf))
        trace = cost_complexity_sequence(tree)
        assert (trace.alphas, trace.subtree_sizes) == reference_cost_complexity_sequence(tree)
        alphas = [0.0, *trace.alphas, *midpoint_alphas(trace.alphas)]
        X = np.round(rng.uniform(1.0, 5.0, size=(40, 3)) * 2.0) / 2.0
        preds = _pruned_predictions(tree, X, alphas)
        # cv_prune's np.mean(..., axis=1) sums each row in memory order, so
        # another layout could move cv_mse in the last bit.
        assert preds.flags.c_contiguous
        for alpha, pred in zip(alphas, preds):
            reference = reference_prune_at(tree, alpha)
            assert export_json(prune_at(tree, alpha)) == export_json(reference)
            assert np.array_equal(pred, reference.predict_batch(X))


def test_cv_prune_matches_rescanning_reference():
    rng = make_rng(27)
    mat = random_matrix(rng, n=120, m=4)
    params = TreeParams(min_leaf=4)
    pruned, trace = cv_prune(mat, params, k=5, seed=3)
    assert list(trace.eval_alphas) == midpoint_alphas(trace.alphas)
    for fi, test_idx in enumerate(np.array_split(make_rng(3).permutation(mat.n_rows), 5)):
        train = np.setdiff1d(np.arange(mat.n_rows), test_idx)
        fold_tree = grow(make_matrix(mat.scores[train], mat.response[train]), params)
        for ai, alpha in enumerate(trace.eval_alphas):
            pred = reference_prune_at(fold_tree, alpha).predict_batch(mat.scores[test_idx])
            assert trace.cv_mse[ai, fi] == np.mean((pred - mat.response[test_idx]) ** 2)
    reference = reference_prune_at(grow(mat, params), trace.chosen_alpha)
    assert export_json(pruned) == export_json(reference)


def test_cv_prune_zero_gain_split_gives_no_negative_penalty():
    # Integer responses let the split search accept a cut whose true gain is 0 with
    # a rounding residue, so its g computes to about -4e-16. Floored at 0,
    # no eval alpha is the NaN sqrt of a negative product, and every cv_mse
    # cell is written (a NaN alpha used to leave a row of np.empty unset).
    rng = np.random.default_rng(20)
    mat = make_matrix(rng.uniform(1.0, 5.0, (89, 2)), np.round(rng.standard_normal(89)))
    params = TreeParams(min_leaf=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [cv_prune(mat, params, k=10, seed=0)[1] for _ in range(3)]
    trace = runs[0]
    assert trace.alphas[0] == 0.0  # the zero-gain split, floored; the rest ascend from it
    assert np.isfinite(trace.eval_alphas).all()
    assert list(trace.eval_alphas) == midpoint_alphas(trace.alphas)
    for other in runs[1:]:
        assert np.array_equal(other.cv_mse, trace.cv_mse)
    for fi, test_idx in enumerate(np.array_split(make_rng(0).permutation(mat.n_rows), 10)):
        train = np.setdiff1d(np.arange(mat.n_rows), test_idx)
        fold_tree = grow(make_matrix(mat.scores[train], mat.response[train]), params)
        for ai, alpha in enumerate(trace.eval_alphas):
            pred = reference_prune_at(fold_tree, alpha).predict_batch(mat.scores[test_idx])
            assert trace.cv_mse[ai, fi] == np.mean((pred - mat.response[test_idx]) ** 2)


def test_schedule_breaks_ties_in_preorder():
    # a (depth 2, left) and b (depth 1, right) both cost exactly g = 20 to
    # collapse; preorder takes a first, where depth order would take b. Links
    # of equal g fold at the same penalty, so no output shows their order.
    a = consistent_internal(SplitRule(0, 1.5), Leaf(10, 0.0, 1.0), Leaf(10, 2.0, 1.0))
    b = consistent_internal(SplitRule(0, 4.5), Leaf(10, 10.0, 1.0), Leaf(10, 12.0, 1.0))
    left = consistent_internal(SplitRule(0, 2.5), a, Leaf(20, 50.0, 1.0))
    tree = build_tree(consistent_internal(SplitRule(0, 3.5), left, b), ("f0",))
    internal = np.flatnonzero(tree.right >= 0).tolist()  # in preorder, as internal_paths
    paths = {i: path for i, (path, _) in zip(internal, internal_paths(root(tree)))}
    penalty, _ = _fold_penalties(tree)
    _, reference = reference_collapses(tree)
    running, want = -np.inf, {}
    for g, path in reference:
        running = want[path] = max(running, g)
    assert {paths[i]: p for i, p in enumerate(penalty.tolist()) if np.isfinite(p)} == want
    assert [step[:2] for step in reference[:2]] == [(20.0, (0, 0)), (20.0, (1,))]
    trace = cost_complexity_sequence(tree)
    assert (trace.alphas, trace.subtree_sizes) == reference_cost_complexity_sequence(tree)


def test_prune_at_cuts_at_first_step_above_alpha():
    # Rounding puts the root's cost after its child folds (g2) just below
    # the child's own cost (g1), so g does not ascend along the schedule.
    child = Internal(SplitRule(0, 1.5), Leaf(5, 0.0, 5.705757280793544),
                     Leaf(5, 1.0, 1.8390834669152767), 10, 0.5, 7.812280975358874)
    root = Internal(SplitRule(0, 2.5), child, Leaf(5, 2.0, 8.21207861793246),
                    15, 1.0, 16.29179982094139)
    tree = build_tree(root, ("f0",))
    (g1, _), (g2, _) = reference_collapses(tree)[1]
    assert g2 < g1
    assert prune_at(tree, g2).n_leaves == 3  # the first step already costs more
    alphas = [0.0, g2, g1]
    X = np.array([[1.0], [2.0], [3.0]])
    for alpha, pred in zip(alphas, _pruned_predictions(tree, X, alphas)):
        reference = reference_prune_at(tree, alpha)
        assert export_json(prune_at(tree, alpha)) == export_json(reference)
        assert np.array_equal(pred, reference.predict_batch(X))
    trace = cost_complexity_sequence(tree)
    assert (trace.alphas, trace.subtree_sizes) == reference_cost_complexity_sequence(tree)
    assert trace.alphas == (g1,)


# ------------------------------------------------------------------ export


def test_extreme_leaf_indices_tie_rules():
    # equal means: the larger leaf wins; equal n too: leftmost wins
    left = consistent_internal(SplitRule(0, 2.0), Leaf(10, 1.0, 0.1), Leaf(30, 1.0, 0.1))
    root = consistent_internal(SplitRule(0, 3.0), left, Leaf(20, 2.0, 0.1))
    lo, hi = extreme_leaf_indices(build_tree(root, ("f0",)))
    assert lo == 3  # node 3 (n=30) beats node 2 (n=10) on the tie
    assert hi == 4
    high = consistent_internal(SplitRule(0, 2.0), Leaf(10, 2.0, 0.1), Leaf(30, 2.0, 0.1))
    root = consistent_internal(SplitRule(0, 1.5), Leaf(20, 1.0, 0.1), high)
    lo, hi = extreme_leaf_indices(build_tree(root, ("f0",)))
    assert lo == 1
    assert hi == 4  # node 4 (n=30) beats node 3 (n=10) on the Q^Max tie
    even = consistent_internal(SplitRule(0, 2.0), Leaf(10, 1.0, 0.1), Leaf(10, 1.0, 0.1))
    lo, hi = extreme_leaf_indices(build_tree(even, ("f0",)))
    assert (lo, hi) == (1, 1)


def test_export_dot_single_leaf():
    tree = build_tree(Leaf(12, 1.234, 0.8), ("f0",))
    nodes, edges = parse_dot(export_dot(tree))
    assert len(nodes) == 1 and not edges
    label = nodes["n0"]
    assert "n=12" in label and "Q=1.234" in label
    # the only leaf is both extremes
    assert "Q^Min" in label and "Q^Max" in label


def test_export_dot_stump_structure_and_tags():
    stump = consistent_internal(SplitRule(0, 2.5), Leaf(3, 0.9, 0.0), Leaf(4, 1.1, 0.0))
    tree = build_tree(stump, ("C",))
    nodes, edges = parse_dot(export_dot(tree))
    assert len(nodes) == 3
    assert edges == [("n0", "n1"), ("n0", "n2")]
    assert nodes["n0"] == "C < 2.500"
    assert "Q^Min" in nodes["n1"] and "Q^Max" in nodes["n2"]


def test_export_dot_round_trip_structure(reference_tree):
    nodes, edges = parse_dot(export_dot(reference_tree))
    children = {}
    for a, b in edges:
        children.setdefault(a, []).append(b)

    def compare(node, nid):
        label = nodes[nid]
        if isinstance(node, Leaf):
            assert nid not in children
            assert f"n={node.n}" in label
            assert f"Q={node.mean:.3f}" in label
            return
        name = reference_tree.feature_names[node.split.feature]
        assert label == f"{name} < {node.split.threshold:.3f}"
        kids = children[nid]
        assert len(kids) == 2
        compare(node.left, kids[0])
        compare(node.right, kids[1])

    compare(root(reference_tree), "n0")


def test_json_round_trip_bit_exact():
    rng = make_rng(31)
    for _ in range(5):
        mat = random_matrix(rng, n=120, m=4)
        tree = grow(mat, TreeParams(min_leaf=9))
        text = export_json(tree)
        again = tree_from_json(text)
        assert export_json(again) == text
        probe = rng.uniform(1.0, 5.0, size=(30, mat.n_features))
        assert np.array_equal(tree.predict_batch(probe), again.predict_batch(probe))


def test_json_thresholds_survive_exactly():
    thr = 1.0 + np.pi / 7.0
    stump = consistent_internal(SplitRule(0, float(thr)), Leaf(5, 0.9, 0.1), Leaf(5, 1.1, 0.1))
    tree = build_tree(stump, ("f0",))
    again = tree_from_json(export_json(tree))
    assert root(again).split.threshold == float(thr)


def test_fitted_tree_arrays_are_read_only():
    tree = grow(random_matrix(make_rng(41), n=60, m=2), TreeParams(min_leaf=5))
    for array in (tree.feature, tree.threshold, tree.right, tree.n, tree.mean, tree.sse):
        with pytest.raises(ValueError):
            array[0] = array[0]
