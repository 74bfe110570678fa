"""The benchmark's traced call sites still name callables in the package.

perfbench/child.py wraps package functions by (module, attribute), so a
rename in the package would otherwise only show as a failed traced run.
Its counters also read attributes of what those functions return, so a
traced study is run here too.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import charterseg.cli as cli
import charterseg.forest
import charterseg.tree
from charterseg.forest import ForestParams
from charterseg.tree import TreeParams

from helpers import make_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"

# Every count the child's counters produce on a study with a forest and a tree.
COUNTS = {"panel.rows_read", "panel.rows_in", "panel.rows_kept", "rescale.rows_scored",
          "forest.trees", "forest.nodes", "tree.final_leaves", "tree.full_leaves",
          "tree.leaves_grown"}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    child = _load("perfbench_child", CHILD)
    # main() also wraps the CLI's config loader to time the setup.
    sites = [(cli, "_load_run_config", "setup")]
    sites += [(module, attr, span) for module, attr, span, _ in child._traced_names()]
    for module, attr, span in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_a_traced_study_records_every_span_and_count(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    child = _load("perfbench_child", CHILD)
    gen = _load("perfbench_gen", PERFBENCH / "gen.py")
    panel = tmp_path / "panel.csv"
    assert gen.write_panel(panel, 75, 0) == 900  # the benchmark workloads' panel
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"path": str(panel)}, "seed": 1,
        "tree": {"min_leaf": 30, "cv_folds": 10}, "forest": {"n_trees": 3},
        "selection": {"mode": "rf", "forest_scope": "joint"}}), encoding="utf-8")

    recorder = child.SpanRecorder()
    recorder.install()
    try:
        code = cli.main(["study", "--config", str(config), "--out", str(tmp_path / "out")])
        # A study grows its trees in cv_prune's one batched call and sums OOB
        # predictions inside permutation_importance, so it reaches neither
        # tree.grow nor forest.oob_predict; call both to check their wrappers.
        reached = {span[1] for span in recorder.spans}
        matrix = make_matrix(np.arange(1.0, 5.0, 0.25).reshape(-1, 2), np.arange(8.0))
        charterseg.tree.grow(matrix, TreeParams(min_leaf=1))
        forest = charterseg.forest.grow_forest(matrix, ForestParams(n_trees=3, min_leaf=1))
        charterseg.forest.oob_predict(forest, matrix)
    finally:
        recorder.restore()
    assert code == 0, capsys.readouterr().err
    traced = {span for _, _, span, _ in child._traced_names()}
    assert traced - reached == {"tree.grow", "forest.oob_predict"}
    recorded = {span[1] for span in recorder.spans}
    missing = traced - recorded
    assert not missing
    assert {name for name, _ in recorder.counts} == COUNTS
    assert all(isinstance(value, int) and value >= 0 for _, value in recorder.counts)
