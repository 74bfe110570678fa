"""End-to-end study runs and the command-line interface."""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import functools
import importlib.util
import io
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import venv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from charterseg.cli import main
from charterseg.config import CONFIG_ENV_VAR, RunConfig, SubsampleSpec, load_config, parse_config
from charterseg.errors import ConfigError, DegenerateInputError
from charterseg.forest import Forest, ImportanceReport
from charterseg.panel import (PANEL_DTYPE, PROXY_FIELDS, ProxyFrame, SizeHalf,
                              compute_raw_proxies, filter_subsample, load_panel, row_ids)
from charterseg.rescale import (DEFAULT_PROXY_SPECS, ScoredMatrix, build_scored_matrix,
                                complete_rows)
from charterseg.select import canonical_specs
from charterseg.stats import pearson
from charterseg.study import StudyResult, SubsampleResult, run_study, summary_table, write_study
from charterseg.tree import PruneTrace, export_dot, export_json

from helpers import (CONFIG_EDGES, CONFIG_WORDS, FULL_HEADER, PANEL_BYTES, bundle_digests,
                     fast_config, json_paths, replaced, src_env, synth_panel_csv,
                     tree_from_json)


@pytest.fixture(scope="module")
def study_env(tmp_path_factory):
    base = tmp_path_factory.mktemp("study")
    csv_path = synth_panel_csv(base / "panel.csv")
    out = base / "bundle"
    cfg_path = base / "run.json"
    cfg_path.write_text(json.dumps(fast_config(csv_path, out)), encoding="utf-8")
    return {"base": base, "csv": csv_path, "config": cfg_path, "out": out}


@pytest.fixture(scope="module")
def study_result(study_env):
    config = load_config(study_env["config"])
    result = run_study(config)
    write_study(result, study_env["out"])
    return result


# ------------------------------------------------------------- run_study


def test_study_statuses_and_trees(study_result):
    assert [r.name for r in study_result.results] == ["all", "early"]
    for r in study_result.results:
        assert r.status == "ok"
        assert r.tree is not None and r.tree.n_leaves >= 2
        assert r.qmin.mean < r.qmax.mean
        assert dict(r.chosen).keys() == {"C", "A", "M", "E", "L", "S"}
        assert len(r.verdicts) == 6
    assert not study_result.degraded


def test_study_capital_alignment(study_result):
    # Q steps up with capital, and the capital proxies score risk as
    # decreasing in the raw ratio, so C must come out aligned.
    full = study_result.results[0]
    assert dict(full.verdicts)["C"] == "Yes"
    assert full.n_rows == 240


def test_study_bundle_files(study_env, study_result):
    out = study_env["out"]
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "- master seed: 7" in report
    assert "## all" in report and "## early" in report
    assert "Q^Min leaf" in report

    verdicts = (out / "tables" / "verdicts.csv").read_text(encoding="utf-8")
    assert verdicts.splitlines()[0] == "subsample,status,C,A,M,E,L,S"
    assert verdicts.splitlines()[1].startswith("all,ok,")

    for slug in ("all", "early"):
        assert (out / "trees" / f"{slug}.dot").exists()
        assert (out / "trees" / f"{slug}.json").exists()
        for table in ("summary", "importance", "selection", "correlations"):
            assert (out / "tables" / f"{table}_{slug}.csv").exists()

    data = (out / "trees" / "all.json").read_bytes()
    assert set(json.loads(data)["feature_names"]) == {"C", "A", "M", "E", "L", "S"}
    # The tree file is lossless: the tree read back writes the same JSON and DOT bytes.
    tree = tree_from_json(data.decode("utf-8"))
    assert export_json(tree).encode("utf-8") == data
    assert export_dot(tree).encode("utf-8") == (out / "trees" / "all.dot").read_bytes()


def test_study_rerun_is_byte_identical(study_env):
    config = load_config(study_env["config"])
    out_a = study_env["base"] / "rerun_a"
    out_b = study_env["base"] / "rerun_b"
    write_study(run_study(config), out_a)
    write_study(run_study(config), out_b)
    a, b = bundle_digests(out_a), bundle_digests(out_b)
    assert a and a == b


def test_study_worker_count_does_not_change_output(study_env, no_env_config, tmp_path):
    # --jobs is accepted and has no effect on the bundle.
    out_a = tmp_path / "jobs1"
    out_b = tmp_path / "jobs8"
    for out, jobs in ((out_a, "1"), (out_b, "8")):
        assert main(["study", "--config", str(study_env["config"]), "--out", str(out),
                     "--jobs", jobs]) == 0
    a, b = bundle_digests(out_a), bundle_digests(out_b)
    assert a and a == b


def test_study_degraded_subsamples(study_env):
    doc = fast_config(study_env["csv"], study_env["base"] / "degraded")
    doc["subsamples"] = doc["subsamples"][:1] + [
        {"name": "nineties", "criterion": {"kind": "years", "start": 1990,
                                           "end": 1991}},
        {"name": "thin", "criterion": {"kind": "years", "start": 2014,
                                       "end": 2014}},
    ]
    result = run_study(parse_config(doc))
    by_name = {r.name: r for r in result.results}
    assert by_name["all"].status == "ok"
    assert by_name["nineties"].status == "empty"
    assert by_name["thin"].status == "no_tree"
    assert "min_leaf" in by_name["thin"].reason
    assert result.degraded

    out = study_env["base"] / "degraded"
    write_study(result, out)
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "status: empty" in report and "status: no_tree" in report
    assert not (out / "trees" / "nineties.dot").exists()


def test_study_subsample_fault_ends_that_subsample_only(study_env, monkeypatch):
    # A data fault (not a config fault) in one subsample's filter ends only
    # that subsample, as no_tree with the fault as its reason.
    def filter_or_fail(panel, criterion):
        if criterion == SizeHalf("large"):
            raise DegenerateInputError("no usable rows in the large half")
        return filter_subsample(panel, criterion)

    monkeypatch.setattr("charterseg.study.filter_subsample", filter_or_fail)
    config = dataclasses.replace(
        parse_config(fast_config(study_env["csv"], study_env["base"] / "unused")),
        subsamples=(SubsampleSpec("small", SizeHalf("small")),
                    SubsampleSpec("odd", SizeHalf("large"))))
    small, odd = run_study(config).results
    assert small.status == "ok"
    assert (odd.status, odd.reason) == ("no_tree", "no usable rows in the large half")


def with_beta(csv_path: Path, cell: str, path: Path) -> Path:
    """A copy of the panel at csv_path with every beta cell (the last column) set to cell."""
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    lines = [header] + [row.rsplit(",", 1)[0] + "," + cell for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_summary_table_skips_a_variable_with_no_finite_value(study_env, tmp_path):
    panel = load_panel(with_beta(study_env["csv"], "", tmp_path / "no_beta.csv"))
    summary = summary_table(compute_raw_proxies(panel))
    assert [name for name, _ in summary] == [n for n in ("q",) + PROXY_FIELDS if n != "beta"]


def test_study_correlations_skip_a_constant_factor(study_env, tmp_path):
    csv_path = with_beta(study_env["csv"], "1.0", tmp_path / "flat_beta.csv")
    out = tmp_path / "bundle"
    result = run_study(parse_config(fast_config(csv_path, out, selection={"mode": "fixed"})))
    full = result.results[0]
    assert full.status == "ok"
    assert [name for name, _, _ in full.correlations] == ["C", "A", "M", "E", "L"]
    write_study(result, out)
    with open(out / "tables" / "correlations_all.csv", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["factor", "C", "A", "M", "E", "L"]


def test_study_fixed_selection_skips_forest(study_env):
    doc = fast_config(study_env["csv"], study_env["base"] / "fixed_out",
                      selection={"mode": "fixed"})
    result = run_study(parse_config(doc))
    r = result.results[0]
    assert r.status == "ok"
    assert r.importance is None
    assert dict(r.chosen) == {"C": "Capt", "A": "Asts", "M": "Mang",
                              "E": "Ergs_x", "L": "Liqt_x", "S": "Syst"}


def test_per_group_selection_has_no_oob_mse(study_env):
    doc = fast_config(study_env["csv"], study_env["base"] / "per_group_out",
                      selection={"forest_scope": "per_group"})
    doc["subsamples"] = doc["subsamples"][:1]
    imp = run_study(parse_config(doc)).results[0].importance
    # One forest per group: no single out-of-bag error describes them all.
    assert math.isnan(imp.oob_mse)
    assert len(imp.feature_names) == len(DEFAULT_PROXY_SPECS)
    assert np.all(np.isfinite(imp.pct_inc_mse))


def test_full_scope_trees_use_each_subsample_own_proxies(study_env):
    # "all" and "early" pick different A and M proxies. Each tree must see
    # its own picks, scored with the full panel's knots: the rows of the
    # full-panel matrix of those picks that fall inside the subsample.
    doc = fast_config(study_env["csv"], study_env["base"] / "full_scope_out",
                      rescale_scope="full")
    config = parse_config(doc)
    panel = load_panel(study_env["csv"])
    result = run_study(config, panel)
    assert result.results[0].chosen != result.results[1].chosen
    full_frame = compute_raw_proxies(panel)
    for r, sub in zip(result.results, config.subsamples):
        specs = canonical_specs(dict(r.chosen), config.proxies)
        full = build_scored_matrix(full_frame, specs)
        full_ids = row_ids(full_frame.rows[complete_rows(full_frame, specs)])
        wanted = set(row_ids(filter_subsample(panel, sub.criterion).rows))
        inside = [i for i, rid in enumerate(full_ids) if rid in wanted]
        m = ScoredMatrix(full.feature_names, full.scores[inside], full.response[inside])
        assert r.status == "ok" and r.n_rows == m.n_rows
        assert r.correlations == tuple((name, *pearson(m.scores[:, j], m.response))
                                       for j, name in enumerate(m.feature_names))


def test_study_needs_a_data_path():
    with pytest.raises(ConfigError, match="data.path"):
        run_study(parse_config({}))


# ------------------------------------------------------------------- CLI


@pytest.fixture()
def no_env_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def test_cli_requires_config(no_env_config, capsys):
    assert main(["study"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert CONFIG_ENV_VAR in err


def test_cli_unreadable_config(no_env_config, capsys, tmp_path):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_panel(no_env_config, capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": {"path": str(tmp_path / "gone.csv")},
                               "out": str(tmp_path / "o")}), encoding="utf-8")
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_ingest(study_env, no_env_config, capsys, tmp_path):
    out = tmp_path / "ingest_out"
    rc = main(["ingest", "--config", str(study_env["config"]),
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "panel: 240 rows loaded, window 2005-2014" in captured
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "variable,n,mean,std,min,max,std_defined"
    assert summary[1].startswith("q,240,")
    assert (out / "exclusions.csv").exists()


def test_cli_select(study_env, no_env_config, capsys, tmp_path):
    out = tmp_path / "select_out"
    rc = main(["select", "--config", str(study_env["config"]),
               "--out", str(out), "--trees", "12"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "forest: 12 trees" in captured
    importance = (out / "importance.csv").read_text(encoding="utf-8").splitlines()
    assert importance[0] == "feature,pct_inc_mse,raw_delta,stderr"
    assert len(importance) == 19
    fragment = json.loads((out / "selected_proxies.json").read_text(encoding="utf-8"))
    assert [f["name"] for f in fragment] == ["C", "A", "M", "E", "L", "S"]
    # The fragment must load back as a config proxies section.
    cfg = parse_config({"proxies": fragment})
    assert len(cfg.proxies) == 6


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("extra", [
    {"selection": {"mode": "rf", "forest_scope": "joint"}},
    {"selection": {"mode": "rf", "forest_scope": "per_group"}},
    {"selection": {"mode": "rf"}, "rescale_scope": "full"},
    {"selection": {"mode": "fixed"}},
], ids=["joint", "per_group", "joint_full_scope", "fixed"])
def test_cli_select_agrees_with_grow(study_env, no_env_config, capsys, tmp_path, extra):
    cfg = write_config(tmp_path / "run.json",
                       fast_config(study_env["csv"], tmp_path / "unused", **extra))
    sel_out, grow_out = tmp_path / "select_out", tmp_path / "grow_out"
    assert main(["select", "--config", str(cfg), "--out", str(sel_out)]) == 0
    printed = capsys.readouterr().out
    assert main(["grow", "--config", str(cfg), "--out", str(grow_out)]) == 0

    grown = grow_out / "tables" / "selection_full.csv"
    with open(grown, newline="", encoding="utf-8") as fh:
        chosen = dict(list(csv.reader(fh))[1:])
    fragment = json.loads((sel_out / "selected_proxies.json").read_text(encoding="utf-8"))
    assert fragment == [dataclasses.asdict(s)
                        for s in canonical_specs(chosen, DEFAULT_PROXY_SPECS)]
    assert (sel_out / "selection.csv").read_bytes() == grown.read_bytes()
    for group, name in chosen.items():
        assert f"  {group}: {name}" in printed

    fixed = extra["selection"]["mode"] == "fixed"
    assert (sel_out / "importance.csv").exists() == (not fixed)
    assert ("OOB MSE" in printed) == (extra["selection"].get("forest_scope") != "per_group"
                                      and not fixed)


def test_cli_study_refuses_an_out_holding_an_earlier_bundle(study_env, no_env_config, capsys,
                                                           tmp_path):
    # A second run into the same --out used to leave the first run's trees and
    # tables beside a verdicts.csv that says no_tree.
    out = tmp_path / "st"
    early = [{"name": "early", "criterion": {"kind": "years", "start": 2005, "end": 2009}}]
    first = write_config(tmp_path / "ok.json",
                         fast_config(study_env["csv"], out, subsamples=early))
    assert main(["study", "--config", str(first)]) == 0
    before = bundle_digests(out)
    assert "trees/early.json" in before
    capsys.readouterr()
    second = write_config(tmp_path / "no_tree.json", fast_config(
        study_env["csv"], out, subsamples=early,
        tree={"min_leaf": 400, "cv_folds": 5, "prune_rule": "min_cv"}))
    assert main(["study", "--config", str(second)]) == 2
    assert capsys.readouterr().err == (f"error: output {out / 'report.md'} already exists; "
                                       "remove it or choose another directory\n")
    assert bundle_digests(out) == before


@pytest.mark.parametrize("command, existing", [
    ("ingest", "summary.csv"),
    ("ingest", "exclusions.csv"),
    ("select", "selection.csv"),
    ("select", "selected_proxies.json"),
    ("select", "importance.csv"),
    ("grow", "report.md"),
    ("grow", "tables"),
    ("grow", "trees"),
    ("study", "report.md"),
    ("study", "tables"),
    ("study", "trees"),
])
def test_cli_refuses_an_out_holding_any_output_before_reading_the_panel(
        no_env_config, capsys, tmp_path, command, existing):
    # Running select in rf mode and then fixed mode used to keep the first importance.csv.
    out = tmp_path / "out"
    out.mkdir()
    (out / existing).write_text("earlier run\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", fast_config(tmp_path / "no_such_panel.csv", out))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{out / existing} already exists" in err
    assert "no_such_panel" not in err
    assert sorted(p.name for p in out.iterdir()) == [existing]


def test_write_study_refuses_an_earlier_bundle(study_result, tmp_path):
    write_study(study_result, tmp_path)
    before = bundle_digests(tmp_path)
    with pytest.raises(ConfigError, match="report.md already exists"):
        write_study(study_result, tmp_path)
    assert bundle_digests(tmp_path) == before


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("extra, fragment", [
    ({"forest": {"n_trees": 16, "mtry": 99}}, "mtry must be in [1, 18], got 99"),
    ({"selection": {"mode": "fixed", "fixed": ["Capt", "Nope"]}},
     "selection.fixed names unknown proxy 'Nope'"),
], ids=["mtry", "fixed"])
def test_cli_config_fault_inside_subsample_exits_2(study_env, no_env_config, capsys, tmp_path,
                                                   extra, fragment, jobs):
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "fault.json", fast_config(study_env["csv"], out, **extra))
    assert main(["study", "--config", str(cfg), "--jobs", str(jobs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("extra, fragment", [
    ({"forest": {"n_trees": 16, "mtry": 99}}, "forest.mtry must be in [1, 18], got 99"),
    ({"selection": {"mode": "fixed", "fixed": ["Capt", "Nope"]}},
     "selection.fixed names unknown proxy 'Nope'"),
    ({"selection": {"mode": "fixed", "fixed": ["Capt", "Capt_x"]}},
     "selection.fixed has two proxies for group 'C'"),
    # "betta" is no panel field, so beta would read as blank on every row.
    ({"data": {"path": "no_such_panel.csv", "columns": {"betta": "Beta"}},
      "selection": {"mode": "fixed"}}, "unknown keys in data.columns: ['betta']"),
], ids=["mtry", "unknown", "two_of_a_group", "unknown_column_field"])
def test_cli_selection_fault_exits_2_before_reading_the_panel(no_env_config, capsys, tmp_path,
                                                              extra, fragment):
    # The panel path does not exist, so an error naming the config key shows
    # that the fault was found before the panel was read.
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "fault.json",
                       fast_config(tmp_path / "no_such_panel.csv", out, **extra))
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "no_such_panel" not in err
    assert not out.exists()


@pytest.mark.parametrize("scope", ["subsample", "full"])
def test_cli_header_only_panel_exits_2(no_env_config, capsys, tmp_path, scope):
    panel = tmp_path / "empty.csv"
    panel.write_text(",".join(FULL_HEADER) + "\n", encoding="utf-8")
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "c.json", fast_config(panel, out, rescale_scope=scope))
    assert main(["study", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: panel has no rows\n"
    assert not out.exists()


def test_cli_ingest_non_utf8_exits_2(no_env_config, capsys, tmp_path):
    panel = tmp_path / "latin1.csv"
    synth_panel_csv(panel, n_banks=2, years=range(2005, 2007))
    panel.write_bytes(panel.read_bytes().replace(b"DE", b"D\xc9"))
    cfg = write_config(tmp_path / "c.json", {"data": {"path": str(panel)},
                                             "out": str(tmp_path / "o")})
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err and "line 2" in err
    assert "Traceback" not in err


def test_cli_study_two_fields_reading_one_column_exits_2(study_env, no_env_config, capsys,
                                                         tmp_path):
    out = tmp_path / "never"
    doc = fast_config(study_env["csv"], out)
    doc["data"]["columns"] = {"bvl": "mve"}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fields 'mve' and 'bvl' both read column 'mve'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cell, message", [
    ("1" * 140_000, "field larger than field limit"),
    ('"1.5,1.5', "unexpected end of data"),
    ("inf", "expected a finite number"),
], ids=["huge_cell", "open_quote", "infinite"])
def test_cli_ingest_malformed_csv_exits_2(no_env_config, capsys, tmp_path, cell, message):
    # The huge cell used to end in a _csv.Error traceback (exit 1); the open
    # quote at the end of the file used to be read without an error.
    panel = synth_panel_csv(tmp_path / "bad.csv", n_banks=2, years=range(2005, 2007))
    lines = panel.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[FULL_HEADER.index("beta")] = cell
    panel.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", {"data": {"path": str(panel)},
                                             "out": str(tmp_path / "o")})
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "line 5" in err
    assert "Traceback" not in err


@seed(20240611)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PANEL_BYTES)
def test_cli_ingest_fuzz_exits_0_or_2(data):
    # Any panel file ends in exit 0 or a located error and exit 2, never in
    # a traceback; --config is given, so the environment plays no part.
    with tempfile.TemporaryDirectory() as tmp:
        panel = Path(tmp) / "p.csv"
        panel.write_bytes(data)
        cfg = write_config(Path(tmp) / "c.json", {"data": {"path": str(panel)},
                                                  "out": str(Path(tmp) / "o")})
        assert main(["ingest", "--config", str(cfg)]) in (0, 2)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    """A valid config on a 2005-2014 panel of 120 rows that touches every section."""
    base = tmp_path_factory.mktemp("cli_fuzz")
    fixed = ["Capt", "Asts", "Mang", "Ergs_x", "Liqt_x", "Syst"]
    return {
        "data": {"path": str(synth_panel_csv(base / "panel.csv", n_banks=12)),
                 "columns": {"beta": "beta"}, "window": [2005, 2014]},
        "proxies": [dataclasses.asdict(s) for s in DEFAULT_PROXY_SPECS
                    if s.name in fixed or s.name == "Capt_x"],
        "rescale_scope": "subsample",
        "subsamples": [
            {"name": "all", "criterion": {"kind": "all"}},
            {"name": "early", "criterion": {"kind": "years", "start": 2005, "end": 2009},
             "min_leaf": 10},
            {"name": "late", "criterion": {"kind": "years", "start": 2014, "end": 2015}},
            {"name": "south", "criterion": {"kind": "countries", "codes": ["ES", "IT"]}},
            {"name": "big", "criterion": {"kind": "size", "half": "large"}},
            {"name": "pigs", "criterion": {"kind": "countries", "group": "pigs"}},
        ],
        "tree": {"min_leaf": 15, "max_depth": 4, "cv_folds": 5, "prune_rule": "min_cv"},
        "forest": {"n_trees": 3, "mtry": 2, "min_leaf": 5},
        "selection": {"mode": "rf", "fixed": fixed, "forest_scope": "joint"},
        "seed": 7,
        "out": "unused",
    }


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _mutated(doc, edits):
    """doc after each edit: a value replaced (by "renumber", a number by a
    number), a key deleted, or an unknown key added to an object."""
    for pick, action, value in edits:
        places = [p for p in json_paths(doc)
                  if action != "renumber" or type(_at(doc, p)) in (int, float)]
        if not places:
            continue
        path = places[pick % len(places)]
        target = _at(doc, path)
        if action in ("replace", "renumber"):
            doc = replaced(doc, path, value)
        elif action == "add" and isinstance(target, dict):
            doc = replaced(doc, path, {**target, "zz_unknown": value})
        elif action == "delete" and path:
            doc = copy.deepcopy(doc)
            del _at(doc, path[:-1])[path[-1]]
    return doc


# Wrong JSON types and config words (test_config's edge cases) anywhere, and
# numbers at and past the edges of the ranges that only the run itself
# meets: fold and leaf counts against 120 rows, years against the panel's.
_NUMBERS = [-1, 0, 1, 2, 3, 5, 15, 60, 120, 10 ** 6, 2 ** 63, -0.5, 0.5, 1e-300, 1e308,
            2004, 2005, 2008, 2014, 2015]
_PICKS = st.integers(0, 10 ** 4)
_EDITS = st.lists(st.tuples(_PICKS, st.sampled_from(["replace", "delete", "add"]),
                            st.sampled_from([*CONFIG_EDGES, *CONFIG_WORDS]))
                  | st.tuples(_PICKS, st.just("renumber"), st.sampled_from(_NUMBERS)),
                  min_size=1, max_size=3)


@seed(20241018)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["select", "grow", "study"]), _EDITS)
def test_cli_fuzzed_config_exits_0_1_or_2(fuzz_config, command, edits):
    # A perturbed config ends in a result (0), a degraded study (1) or a
    # located error (2), never in a traceback. --trees keeps any forest the
    # edits leave valid at 3 trees; the config's own n_trees is still checked.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.json", _mutated(fuzz_config, edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o"),
                       "--trees", "3"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Magnitudes past panel.CELL_BOUND either way (a subnormal among them) and
# the in-range extremes, which the bundle must still carry as finite numbers.
_MAGNITUDES = [1e308, -1e308, 1e-320, -1e-320, 1e51, -1e51, 1e-51, 1e50, -1e50, 1e-50, 0.0]


@seed(20261019)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(1, 120), st.integers(3, len(FULL_HEADER) - 1),
                          st.sampled_from(_MAGNITUDES)), min_size=1, max_size=4))
def test_cli_study_on_extreme_cells_exits_0_1_or_2_with_finite_bundle(fuzz_config, edits):
    # A huge, tiny or subnormal cell used to reach the bundle as inf with exit 0.
    with tempfile.TemporaryDirectory() as tmp:
        lines = Path(fuzz_config["data"]["path"]).read_text(encoding="utf-8").splitlines()
        for row, column, value in edits:
            cells = lines[row].split(",")
            cells[column] = repr(value)
            lines[row] = ",".join(cells)
        panel = Path(tmp) / "p.csv"
        panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = replaced(fuzz_config, ("data", "path"), str(panel))
        cfg = write_config(Path(tmp) / "c.json", doc)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["study", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        written = "".join(p.read_text(encoding="utf-8")
                          for p in sorted((Path(tmp) / "o").rglob("*")) if p.is_file())
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not re.search(r"\b(inf|nan)\b", written, re.IGNORECASE)


def test_cli_subsample_names_sharing_a_file_name_exit_2_before_reading_the_panel(
        no_env_config, capsys, tmp_path):
    # Both names write *_early_years.*, so the second's files used to replace the first's.
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "slugs.json", fast_config(
        tmp_path / "no_such_panel.csv", out, subsamples=[
            {"name": "early years", "criterion": {"kind": "years", "start": 2005, "end": 2009}},
            {"name": "early_years", "criterion": {"kind": "years", "start": 2010, "end": 2014}},
        ]))
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'early years' and 'early_years'" in err
    assert "no_such_panel" not in err
    assert not out.exists()


def test_cli_subsample_name_too_long_for_a_file_name_exits_2_before_reading_the_panel(
        no_env_config, capsys, tmp_path):
    # tables/correlations_<239 n>.csv is 256 bytes long: the study used to run
    # every subsample, then fail writing it and leave a partial bundle behind.
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "long.json", fast_config(
        tmp_path / "no_such_panel.csv", out,
        subsamples=[{"name": "n" * 239, "criterion": {"kind": "all"}}]))
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is too long for its file names" in err
    assert "no_such_panel" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, says", [
    ("", "'' is empty"),
    ("a\n# injected", "'a\\n# injected' holds a line break"),
    ("a\u2028b", "holds a line break, tab or other unprintable character"),
], ids=["empty", "line_break", "line_separator"])
def test_cli_subsample_name_unfit_for_a_file_name_or_heading_exits_2_before_reading_the_panel(
        no_env_config, capsys, tmp_path, name, says):
    # The empty name used to write trees/.json under a bare "## " heading, and
    # a line break to add a heading of its own to report.md.
    out = tmp_path / "never"
    cfg = write_config(tmp_path / "names.json", fast_config(
        tmp_path / "no_such_panel.csv", out,
        subsamples=[{"name": name, "criterion": {"kind": "all"}}]))
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert "no_such_panel" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, says", [
    ("", "proxy name '' is empty"),
    ("Capt\n# injected", "'Capt\\n# injected' holds a line break"),
    ("Capt\u2028b", "holds a line break, tab or other unprintable character"),
], ids=["empty", "line_break", "line_separator"])
def test_cli_proxy_name_unfit_for_a_report_line_exits_2_before_reading_the_panel(
        no_env_config, capsys, tmp_path, name, says):
    # A line break in a proxy name used to add a heading of its own to report.md.
    out = tmp_path / "never"
    proxy = {"name": name, "group": "C", "raw_field": "capital_ratio",
             "direction": "decreasing", "mode": "quantile"}
    cfg = write_config(tmp_path / "proxies.json", fast_config(
        tmp_path / "no_such_panel.csv", out, proxies=[proxy],
        selection={"mode": "fixed", "fixed": [name]}))
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert "no_such_panel" not in err
    assert not out.exists()


def test_cli_subsample_name_of_the_longest_file_name_runs(study_env, no_env_config, tmp_path):
    name = "n" * 238  # tables/correlations_<name>.csv is 255 bytes long
    out = tmp_path / "bundle"
    cfg = write_config(tmp_path / "long.json", fast_config(
        study_env["csv"], out, subsamples=[{"name": name, "criterion": {"kind": "all"}}]))
    assert main(["study", "--config", str(cfg)]) == 0
    assert (out / "tables" / f"correlations_{name}.csv").is_file()


@pytest.mark.parametrize("argv", [
    ["ingest", "--jobs", "3"],
    ["select", "--min-leaf", "3"],
    ["grow", "--jobs", "2"],
    ["study", "--max-depth", "2"],
], ids=["ingest", "select", "grow", "study"])
def test_cli_rejects_flags_the_subcommand_does_not_read(study_env, no_env_config, capsys,
                                                        tmp_path, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as done:
        main(argv + ["--config", str(study_env["config"]), "--out", str(out)])
    assert done.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["charterseg", "charterseg.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    done = subprocess.run([sys.executable, "-m", module, "--help"], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "usage: charterseg" in done.stdout
    for cmd in ("ingest", "select", "grow", "study"):
        assert cmd in done.stdout


_IMPORT_PROBE = """
import json, sys
from charterseg import cli
rc = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"rc": rc, "modules": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def import_probe(command, config, out) -> dict:
    """Run one CLI command in a fresh interpreter; its exit code and loaded scipy modules."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, command, str(config),
                           str(out)], cwd=out.parent, env=src_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_study_loads_only_scipy_special(study_env, tmp_path):
    # pearson's Student-t tail is scipy.special.stdtr; importing scipy.stats
    # for it would pull in optimize, linalg, sparse and spatial and more than
    # double the start-up time of every charterseg process.
    probe = import_probe("study", study_env["config"], tmp_path / "out")
    assert probe["rc"] in (0, 1)
    assert (tmp_path / "out" / "tables").is_dir()
    assert "scipy.special" in probe["modules"]
    for heavy in ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse",
                  "scipy.spatial"):
        assert heavy not in probe["modules"]
    # pearson imports scipy.special on its first call, so ingest, which
    # correlates nothing, loads no scipy module at all.
    probe = import_probe("ingest", study_env["config"], tmp_path / "ingest")
    assert probe["rc"] == 0
    assert (tmp_path / "ingest" / "summary.csv").is_file()
    assert probe["modules"] == []


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charterseg"


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")
                                           if p.stem != "__init__"))
def test_each_module_imports_alone(module, tmp_path):
    # The package __init__ imports nothing, so no import order can hide a cycle.
    done = subprocess.run([sys.executable, "-c", f"import charterseg.{module}"], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _trace():
    return PruneTrace((0.5,), (2, 1), (0.0, 0.5), np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5,
                      "min_cv")


def _report():
    return ImportanceReport(("a", "b"), np.array([10.0, 5.0]), np.array([0.1, 0.05]),
                            np.zeros(2), 1.0)


def _subsample():
    return SubsampleResult("full", "ok", n_rows=4, importance=_report(), trace=_trace())


@pytest.mark.parametrize("make", [
    lambda: ProxyFrame(np.zeros(2, dtype=PANEL_DTYPE), np.ones(2), {"beta": np.ones(2)}),
    lambda: ScoredMatrix(("a",), np.ones((2, 1)), np.ones(2)),
    lambda: Forest((), (np.arange(3),)),
    _report,
    _trace,
    _subsample,
    lambda: StudyResult(RunConfig(), (_subsample(),)),
], ids=["ProxyFrame", "ScoredMatrix", "Forest", "ImportanceReport", "PruneTrace",
        "SubsampleResult", "StudyResult"])
def test_array_holding_records_compare_by_identity(make):
    # Value equality would compare numpy arrays, whose == has no single truth value.
    a, b = make(), make()
    assert a != b
    assert a == a
    assert hash(a) == hash(a)


def test_cli_grow(study_env, no_env_config, capsys, tmp_path):
    out = tmp_path / "grow_out"
    rc = main(["grow", "--config", str(study_env["config"]), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "tree on 240 rows" in captured
    assert (out / "trees" / "full.dot").exists()
    assert (out / "report.md").exists()


def test_cli_study_exit_codes(study_env, no_env_config, capsys, tmp_path):
    rc = main(["study", "--config", str(study_env["config"]),
               "--out", str(tmp_path / "ok_out"), "--jobs", "2"])
    assert rc == 0
    assert "bundle written to" in capsys.readouterr().out

    doc = fast_config(study_env["csv"], tmp_path / "bad_out")
    doc["subsamples"].append({"name": "void", "criterion":
                              {"kind": "years", "start": 1990, "end": 1991}})
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["study", "--config", str(bad_cfg)]) == 1


@pytest.mark.parametrize("section, key", [
    ("tree", "min_leaf"), ("forest", "n_trees"), ("forest", "min_leaf"), ("forest", "mtry"),
])
def test_cli_study_rejects_zero_at_parse_time(study_env, no_env_config, capsys, tmp_path,
                                              section, key):
    doc = fast_config(study_env["csv"], tmp_path / "never")
    doc.setdefault(section, {})[key] = 0
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["study", "--config", str(cfg)]) == 2
    assert f"{section}.{key} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_cli_study_rejects_jobs_below_one(study_env, no_env_config, capsys, tmp_path, jobs):
    out = tmp_path / "never"
    assert main(["study", "--config", str(study_env["config"]), "--out", str(out),
                 "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"jobs must be at least 1, got {jobs}" in err
    assert not out.exists()


def test_cli_study_jobs_starts_no_thread(study_env, no_env_config, monkeypatch, tmp_path):
    # --jobs is accepted and has no effect: the subsamples run in the calling thread.
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or start(self))
    assert main(["study", "--config", str(study_env["config"]), "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    assert started == []


def test_full_scope_exclusions_are_the_subsample_own(no_env_config, capsys, tmp_path):
    # Rows dropped in 2012-2013 lie outside the "early" subsample, so its
    # exclusions must not list them under either rescale scope.
    csv_path = synth_panel_csv(tmp_path / "gappy.csv")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    gaps = {("b000", "2006"): ("beta", ""), ("b001", "2012"): ("beta", ""),
            ("b002", "2013"): ("deposits", "0"), ("b003", "2007"): ("roa", "")}
    for row in rows:
        if (row["bank_id"], row["year"]) in gaps:
            column, value = gaps[(row["bank_id"], row["year"])]
            row[column] = value
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=FULL_HEADER)
        writer.writeheader()
        writer.writerows(rows)

    tables, counts = {}, {}
    for scope in ("subsample", "full"):
        out = tmp_path / scope
        cfg = write_config(tmp_path / f"{scope}.json", fast_config(
            csv_path, out, selection={"mode": "fixed"}, rescale_scope=scope))
        assert main(["study", "--config", str(cfg)]) == 0
        tables[scope] = {p.name: p.read_bytes()
                         for p in sorted((out / "tables").glob("exclusions_*.csv"))}
        counts[scope] = [line for line in (out / "report.md").read_text(
            encoding="utf-8").splitlines() if line.startswith("- rows:")]
    assert sorted(tables["full"]) == ["exclusions_all.csv", "exclusions_early.csv"]
    assert tables["full"] == tables["subsample"]
    assert counts["full"] == counts["subsample"] == ["- rows: 236 (excluded: 4)",
                                                     "- rows: 118 (excluded: 2)"]


@pytest.mark.parametrize("doc, fragment", [
    ({"tree": []}, "tree must be an object"),
    ({"seed": "1.5"}, "seed must be an integer"),
    ({"tree": {"min_leaf": "abc"}}, "tree.min_leaf must be an integer"),
    ({"selection": {"fixed": "Capt"}}, "selection.fixed must be a list"),
])
def test_cli_malformed_config_exits_2_without_traceback(no_env_config, capsys, tmp_path,
                                                        doc, fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def test_cli_env_var_supplies_config(study_env, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv(CONFIG_ENV_VAR, str(study_env["config"]))
    rc = main(["ingest", "--out", str(tmp_path / "env_out")])
    assert rc == 0
    assert "rows loaded" in capsys.readouterr().out


def test_cli_seed_override(study_env, no_env_config, capsys, tmp_path):
    out = tmp_path / "seeded"
    rc = main(["study", "--config", str(study_env["config"]),
               "--seed", "123", "--out", str(out)])
    assert rc in (0, 1)
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "- master seed: 123" in report


def test_cli_min_leaf_override(study_env, no_env_config, capsys, tmp_path):
    out = tmp_path / "out"
    assert main(["study", "--config", str(study_env["config"]), "--min-leaf", "40",
                 "--out", str(out)]) == 0
    trees = sorted((out / "trees").glob("*.json"))
    assert [p.name for p in trees] == ["all.json", "early.json"]
    for path in trees:
        assert json.loads(path.read_text(encoding="utf-8"))["params"]["min_leaf"] == 40


def test_cli_rescale_scope_override(study_env, no_env_config, capsys, tmp_path):
    flag, config = tmp_path / "flag", tmp_path / "config"
    assert main(["grow", "--config", str(study_env["config"]), "--rescale-scope", "full",
                 "--out", str(flag)]) == 0
    full = write_config(tmp_path / "full.json",
                        fast_config(study_env["csv"], config, rescale_scope="full"))
    assert main(["grow", "--config", str(full)]) == 0
    assert bundle_digests(flag) == bundle_digests(config)
    assert "- rescale scope: full" in (flag / "report.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["ingest", "study"])
@pytest.mark.parametrize("form", ["config", "flag"])
def test_cli_empty_out_exits_2_and_writes_nothing(study_env, no_env_config, capsys, tmp_path,
                                                  monkeypatch, command, form):
    # An empty out is the working directory: study used to write its bundle
    # there, and ingest summary.csv and exclusions.csv, and exit 0.
    cfg = write_config(tmp_path / "c.json", fast_config(
        study_env["csv"], "" if form == "config" else tmp_path / "unused"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    flags = ["--out", ""] if form == "flag" else []
    assert main([command, "--config", str(cfg), *flags]) == 2
    assert "out must name an output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "cwd"]
    assert list(cwd.iterdir()) == []


def child_env() -> dict[str, str]:
    """The outer environment without PYTHONPATH, so imports go through the install."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def install_checkout(tmp_path: Path) -> Path:
    """Install a copy of this checkout into a throwaway venv; return its script.

    numpy and scipy come from the base interpreter's site-packages, so
    nothing is downloaded. The install goes through pip when setuptools can
    build wheels (``wheel`` importable, or setuptools >= 70.1) and through
    setuptools' own ``develop`` command otherwise.
    """
    pytest.importorskip("setuptools")
    repo = Path(__file__).resolve().parents[1]
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy2(repo / "pyproject.toml", project)
    shutil.copytree(repo / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))

    env_dir = tmp_path / "venv"
    venv.EnvBuilder(system_site_packages=True, with_pip=False,
                    symlinks=os.name != "nt").create(env_dir)
    bin_dir = str(env_dir / ("Scripts" if os.name == "nt" else "bin"))
    python = shutil.which("python", path=bin_dir)

    if (importlib.util.find_spec("wheel") is not None
            or importlib.util.find_spec("setuptools.command.bdist_wheel") is not None):
        cmd = [python, "-m", "pip", "install", "--no-deps", "--no-build-isolation",
               "--no-index", "--disable-pip-version-check", "-e", str(project)]
    else:
        cmd = [python, "-c", "from setuptools import setup; setup()",
               "develop", "--no-deps"]
    done = subprocess.run(cmd, cwd=project, env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr

    exe = shutil.which("charterseg", path=bin_dir)
    assert exe, "install should create the charterseg console script"
    return Path(exe)


def test_console_script_installed(study_env, tmp_path):
    exe = install_checkout(tmp_path)
    env = child_env()
    helptext = subprocess.run([exe, "--help"], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
    assert helptext.returncode == 0, helptext.stderr
    assert "usage: charterseg" in helptext.stdout
    for cmd in ("ingest", "select", "grow", "study"):
        assert cmd in helptext.stdout

    run = subprocess.run(
        [exe, "ingest", "--config", str(study_env["config"]),
         "--out", str(tmp_path / "script_out")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert "rows loaded" in run.stdout
