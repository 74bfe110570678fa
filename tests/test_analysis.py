"""Extreme-leaf paths, alignment verdicts, and group contrast tables."""

from __future__ import annotations

import json

import numpy as np
import pytest

from charterseg.analysis import (
    AMBIGUOUS,
    ALIGNED,
    MISALIGNED,
    NO_EVIDENCE,
    VERDICT_LABELS,
    alignment_verdicts,
    extreme_leaves,
    group_comparison,
    path_rows,
    significance_stars,
)
from charterseg.errors import DegenerateInputError, ParseError
from charterseg.tree import SplitRule, TreeParams, export_json, grow, import_json
from helpers import Leaf, build_tree, consistent_internal, make_matrix


def verdicts_on_paths(tree):
    return alignment_verdicts(tree, extreme_leaves(tree))


def stump(lmean, rmean, feature=0, thr=3.0, n=10):
    left = Leaf(n, lmean, 0.0)
    right = Leaf(n, rmean, 0.0)
    return build_tree(consistent_internal(SplitRule(feature, thr), left, right),
                      ["C", "A"], min_leaf=1)


def test_single_leaf_paths():
    tree = build_tree(Leaf(7, 1.1, 0.2), ["C"], min_leaf=1)
    qmin, qmax = extreme_leaves(tree)
    assert qmin.leaf == qmax.leaf
    assert qmin.steps == ()
    assert qmin.share == 1.0
    assert qmin.describe() == "(root)"


def test_stump_paths_and_shares():
    tree = stump(0.9, 1.2)
    qmin, qmax = extreme_leaves(tree)
    assert qmin.mean == 0.9
    assert qmax.mean == 1.2
    assert [s.side for s in qmin.steps] == ["lt"]
    assert [s.side for s in qmax.steps] == ["ge"]
    assert qmin.steps[0].name == "C"
    assert qmin.steps[0].node == qmax.steps[0].node == 0
    assert qmin.share == 0.5
    assert qmin.describe() == "C < 3.000"
    assert qmax.describe() == "C >= 3.000"


def test_reference_tree_extremes(reference_tree):
    qmin, qmax = extreme_leaves(reference_tree)
    assert qmin.mean == pytest.approx(0.887, abs=1e-12)
    assert qmax.mean == pytest.approx(1.079, abs=1e-12)
    assert qmin.n == 60
    assert qmax.n == 510
    assert qmin.share == pytest.approx(60 / 900)
    assert [(s.name, s.threshold, s.side) for s in qmin.steps] == [
        ("C", 1.986, "lt"), ("S", 3.140, "lt"), ("L", 2.446, "ge"),
        ("C", 1.650, "lt"),
    ]
    assert [(s.name, s.threshold, s.side) for s in qmax.steps] == [
        ("C", 1.986, "ge"), ("E", 1.869, "lt"),
    ]


def test_leaf_share_requires_rows():
    # A leaf's share divides by the root's count; a document whose total_n
    # disagrees with its root (0 over 3 rows) does not load.
    tree = build_tree(Leaf(3, 1.0, 0.0), ["C"])
    assert extreme_leaves(tree)[0].share == 1.0
    doc = json.loads(export_json(tree))
    doc["total_n"] = 0
    with pytest.raises(ParseError, match=r"total_n is 0, but root\.n is 3"):
        import_json(json.dumps(doc))


def test_path_rows_match_leaf_counts():
    rng = np.random.default_rng(5)
    X = rng.uniform(1.0, 5.0, size=(200, 3))
    y = np.where(X[:, 1] < 3.0, 0.9, 1.2) + rng.normal(0, 0.02, 200)
    matrix = make_matrix(X, y)
    tree = grow(matrix, TreeParams(min_leaf=20))
    qmin, qmax = extreme_leaves(tree)
    for path in (qmin, qmax):
        mask = path_rows(matrix, path)
        assert int(mask.sum()) == path.n
        assert float(y[mask].mean()) == pytest.approx(path.mean, rel=1e-9)


def test_verdict_stump_aligned():
    # Low-risk (left) side has the higher mean Q: aligned evidence.
    tree = stump(1.2, 0.9)
    verdicts = verdicts_on_paths(tree)
    assert verdicts == {"C": ALIGNED, "A": NO_EVIDENCE}
    assert list(verdicts) == list(tree.feature_names)
    assert VERDICT_LABELS[verdicts["C"]] == "Yes"
    assert VERDICT_LABELS[verdicts["A"]] == "-"
    # The evidence behind the verdict is the root's two child means.
    assert [float(tree.mean[i]) for i in tree.children(0)] == [1.2, 0.9]


def test_verdict_stump_misaligned():
    verdicts = verdicts_on_paths(stump(0.9, 1.2))
    assert verdicts["C"] == MISALIGNED
    assert VERDICT_LABELS[verdicts["C"]] == "No"


def test_verdict_tied_means_give_no_evidence():
    verdicts = verdicts_on_paths(stump(1.0, 1.0))
    assert verdicts == {"C": NO_EVIDENCE, "A": NO_EVIDENCE}


def test_verdict_conflicting_nodes_are_ambiguous():
    # C splits twice with opposite orderings, both on extreme paths.
    inner = consistent_internal(SplitRule(0, 2.0), Leaf(10, 0.8, 0.0), Leaf(10, 1.0, 0.0))
    root = consistent_internal(SplitRule(0, 3.0), inner, Leaf(20, 0.7, 0.0))
    tree = build_tree(root, ["C", "A"], min_leaf=1)
    # Root: left mean 0.9 > right 0.7 (aligned); inner: 0.8 < 1.0 (misaligned).
    verdicts = verdicts_on_paths(tree)
    assert verdicts == {"C": AMBIGUOUS, "A": NO_EVIDENCE}
    assert VERDICT_LABELS[verdicts["C"]] == "Ambig"


def test_verdict_scope_all_sees_off_path_nodes():
    # The A split separates two middling leaves, so neither extreme path
    # passes through it and A gets no evidence.
    a_node = consistent_internal(SplitRule(1, 2.5), Leaf(10, 1.05, 0.0), Leaf(10, 0.95, 0.0))
    root = consistent_internal(
        SplitRule(0, 3.0),
        consistent_internal(SplitRule(0, 2.0), Leaf(10, 0.7, 0.0), a_node),
        Leaf(10, 1.3, 0.0),
    )
    tree = build_tree(root, ["C", "A"], min_leaf=1)
    on_path = verdicts_on_paths(tree)
    assert on_path["A"] == NO_EVIDENCE


def test_reference_tree_verdicts(reference_tree):
    verdicts = verdicts_on_paths(reference_tree)
    assert {k: VERDICT_LABELS[v] for k, v in verdicts.items()} == {
        "C": "No", "A": "-", "M": "-", "E": "Yes", "L": "Yes", "S": "No",
    }


def test_significance_stars():
    assert significance_stars(0.005) == "***"
    assert significance_stars(0.01) == "***"
    assert significance_stars(0.03) == "**"
    assert significance_stars(0.05) == "**"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.10) == "*"
    assert significance_stars(0.2) == ""


def test_group_comparison_directions():
    rng = np.random.default_rng(31)
    lo = rng.normal(0.0, 1.0, 200)
    hi = rng.normal(3.0, 1.0, 200)
    result = group_comparison([("up", lo, hi, "increasing"), ("down", lo, hi, "decreasing"),
                               ("free", lo, hi, None)])
    rows = {r.variable: r for r in result}
    # qmin's values are smaller everywhere.
    assert rows["up"].lower_risk == "qmin"
    assert rows["down"].lower_risk == "qmax"
    assert rows["free"].lower_risk is None
    for r in rows.values():
        assert r.stars == "***"
        assert r.p_value < 0.001
        assert r.mean_min == pytest.approx(lo.mean())
        assert r.mean_max == pytest.approx(hi.mean())


def test_group_comparison_identical_groups():
    x = np.arange(30, dtype=float)
    result = group_comparison([("v", x, x.copy(), "increasing")])
    row = result[0]
    assert row.ks_d == 0.0
    assert row.p_value == 1.0
    assert row.stars == ""
    assert row.lower_risk is None  # means tie


def test_group_comparison_skips_nan_and_validates():
    a = np.array([1.0, 2.0, np.nan])
    b = np.array([4.0, 5.0, 6.0])
    result = group_comparison([("v", a, b, None)])
    assert result[0].mean_min == pytest.approx(1.5)
    with pytest.raises(DegenerateInputError):
        group_comparison([("v", np.array([np.nan]), b, None)])
    with pytest.raises(DegenerateInputError, match="direction"):
        group_comparison([("v", a, b, "sideways")])
