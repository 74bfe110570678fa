from __future__ import annotations

import os
import warnings

import pytest

from charterseg.synthetic import PlantedLeaf, PlantedSplit, PlantedTreeSpec, generate_synthetic_panel

from helpers import tree_from_json

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# hypothesis reports a failing property test through hypothesis.extra._patching,
# which imports libcst, and libcst raises a DeprecationWarning as it loads. Under
# the error::DeprecationWarning filter that import would end the session as an
# INTERNALERROR, losing the falsifying example and every later test, so the
# module is loaded here, once, with its warnings silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an older hypothesis, or no libcst
        pass


@pytest.fixture
def reference_tree():
    """Six-leaf bank tree with two evidence nodes per extreme path."""
    with open(os.path.join(DATA_DIR, "eurozone_tree.json"), encoding="utf-8") as fh:
        return tree_from_json(fh.read())


@pytest.fixture
def stump_spec():
    return PlantedTreeSpec(
        root=PlantedSplit("capital_ratio", 2.875, PlantedLeaf(0.9), PlantedLeaf(1.2)))


@pytest.fixture
def three_split_spec():
    """Planted tree with three internal nodes over distinct raw fields."""
    return PlantedTreeSpec(
        root=PlantedSplit(
            "capital_ratio", 2.875,
            PlantedSplit("loans_to_deposits", 2.125, PlantedLeaf(0.90), PlantedLeaf(1.00)),
            PlantedSplit("roa", 3.625, PlantedLeaf(1.10), PlantedLeaf(1.25)),
        ))


@pytest.fixture
def planted_panel(three_split_spec):
    return generate_synthetic_panel(three_split_spec, n=400, noise_sigma=0.01, seed=42)
