"""Planted-panel generator tests: determinism and exact recovery."""

from __future__ import annotations

import numpy as np
import pytest

from charterseg.errors import ConfigError
from charterseg.synthetic import (
    DEFAULT_GRID,
    PlantedLeaf,
    PlantedSplit,
    PlantedTreeSpec,
    generate_synthetic_panel,
    planted_matrix,
)
from charterseg.tree import TreeParams, grow
from helpers import root


def test_same_seed_identical_panels(stump_spec):
    a = generate_synthetic_panel(stump_spec, n=80, noise_sigma=0.05, seed=7)
    b = generate_synthetic_panel(stump_spec, n=80, noise_sigma=0.05, seed=7)
    assert a.rows.tolist() == b.rows.tolist()
    c = generate_synthetic_panel(stump_spec, n=80, noise_sigma=0.05, seed=8)
    assert a.rows.tolist() != c.rows.tolist()


def test_zero_noise_reproduces_leaf_means(stump_spec):
    panel = generate_synthetic_panel(stump_spec, n=100, noise_sigma=0.0, seed=3)
    mat = planted_matrix(panel, stump_spec)
    means = set(stump_spec.leaf_means())
    assert set(np.unique(mat.response)) == means
    # each row's response equals the mean its features route to
    for row, q in zip(mat.scores, mat.response):
        values = dict(zip(mat.feature_names, row))
        assert q == stump_spec.route(values)


def test_planted_matrix_passes_feature_values_through(stump_spec):
    panel = generate_synthetic_panel(stump_spec, n=90, noise_sigma=0.0, seed=11)
    mat = planted_matrix(panel, stump_spec)
    assert mat.feature_names == ("capital_ratio",)
    grid = np.asarray(DEFAULT_GRID)
    # every recovered value sits on the grid (exact: powers-of-two assets)
    assert np.isin(mat.scores[:, 0], grid).all()
    assert mat.n_rows == 90


def test_grown_tree_recovers_two_leaf_split(stump_spec):
    panel = generate_synthetic_panel(stump_spec, n=200, noise_sigma=0.01, seed=21)
    mat = planted_matrix(panel, stump_spec)
    tree = grow(mat, TreeParams(min_leaf=30))
    assert root(tree).split.feature == 0
    # threshold lands within half a grid step of the planted cut
    assert abs(root(tree).split.threshold - 2.875) <= 0.125


def test_three_split_spec_fields_in_preorder(three_split_spec):
    assert three_split_spec.feature_fields() == \
        ("capital_ratio", "loans_to_deposits", "roa")
    panel = generate_synthetic_panel(three_split_spec, n=120, noise_sigma=0.0, seed=2)
    mat = planted_matrix(panel, three_split_spec)
    assert mat.feature_names == ("capital_ratio", "loans_to_deposits", "roa")
    assert sorted(np.unique(mat.response)) == sorted(three_split_spec.leaf_means())


def test_nodes_walk_preorder_and_feed_fields_and_leaf_means():
    inner = PlantedSplit("roa", 3.0, PlantedLeaf(0.8), PlantedLeaf(0.9))
    spec = PlantedTreeSpec(root=PlantedSplit(
        "capital_ratio", 2.5, inner,
        PlantedSplit("capital_ratio", 4.0, PlantedLeaf(1.1), PlantedLeaf(1.2))))
    nodes = list(spec.nodes())
    assert len(nodes) == 7
    assert nodes[:4] == [spec.root, inner, inner.left, inner.right]
    assert spec.feature_fields() == ("capital_ratio", "roa")  # first encounter, once
    assert spec.leaf_means() == (0.8, 0.9, 1.1, 1.2)


def test_generator_rejects_bad_requests(stump_spec):
    with pytest.raises(ConfigError):
        generate_synthetic_panel(stump_spec, n=10, noise_sigma=0.0, seed=1)
    with pytest.raises(ConfigError):
        generate_synthetic_panel(stump_spec, n=80, noise_sigma=-0.1, seed=1)
    bad = PlantedTreeSpec(root=PlantedSplit("not_a_field", 2.0,
                                            PlantedLeaf(1.0), PlantedLeaf(2.0)))
    with pytest.raises(ConfigError):
        generate_synthetic_panel(bad, n=80, noise_sigma=0.0, seed=1)
    offgrid = PlantedTreeSpec(
        root=PlantedSplit("roa", 2.0, PlantedLeaf(1.0), PlantedLeaf(2.0)),
        grids={"roa": (0.5, 6.0)})
    with pytest.raises(ConfigError):
        generate_synthetic_panel(offgrid, n=80, noise_sigma=0.0, seed=1)


def test_custom_grid_respected():
    spec = PlantedTreeSpec(
        root=PlantedSplit("beta", 3.0, PlantedLeaf(0.9), PlantedLeaf(1.1)),
        grids={"beta": (1.5, 2.5, 3.5, 4.5)})
    panel = generate_synthetic_panel(spec, n=80, noise_sigma=0.0, seed=4)
    mat = planted_matrix(panel, spec)
    assert set(np.unique(mat.scores[:, 0])) <= {1.5, 2.5, 3.5, 4.5}
