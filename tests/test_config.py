"""Run-configuration parsing and validation."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from charterseg.config import (
    CONFIG_ENV_VAR,
    RunConfig,
    default_subsamples,
    load_config,
    parse_config,
)
from charterseg.errors import ChartersegError, ConfigError
from charterseg.panel import Countries, FullSample, SizeHalf, YearRange
from charterseg.rescale import DEFAULT_PROXY_SPECS
from helpers import json_paths, replaced


def test_empty_document_gives_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert cfg.proxies == DEFAULT_PROXY_SPECS
    assert cfg.tree.min_leaf == 30
    assert cfg.tree.prune_rule == "min_cv"
    assert cfg.forest.n_trees == 2000
    assert cfg.selection.mode == "rf"
    assert cfg.rescale_scope == "subsample"
    assert cfg.seed == 0
    assert cfg.out == "study_out"


def test_default_subsamples_cover_nine_slices():
    subs = default_subsamples()
    assert [s.name for s in subs] == [
        "eurozone", "2005-2007", "2008-2009", "2010-2013", "2014-2016",
        "non_pigs", "pigs", "small", "large",
    ]
    assert subs[0].criterion == FullSample()
    assert subs[1].criterion == YearRange(2005, 2007)
    assert subs[6].criterion == Countries.pigs()
    assert subs[8].criterion == SizeHalf("large")


def test_full_document_round_trip():
    doc = {
        "data": {"path": "panel.csv", "columns": {"mve": "MarketCap"},
                 "window": [2005, 2016]},
        "proxies": [{"name": "C", "group": "C", "raw_field": "capital_ratio",
                     "direction": "decreasing", "mode": "quantile",
                     "threshold": None}],
        "rescale_scope": "full",
        "subsamples": [
            {"name": "all", "criterion": {"kind": "all"}},
            {"name": "crisis", "criterion": {"kind": "years", "start": 2008,
                                             "end": 2009}, "min_leaf": 15},
            {"name": "south", "criterion": {"kind": "countries",
                                            "codes": ["ES", "PT"]}},
            {"name": "big", "criterion": {"kind": "size", "half": "large"}},
        ],
        "tree": {"min_leaf": 25, "max_depth": 6, "cv_folds": 5,
                 "prune_rule": "one_se"},
        "forest": {"n_trees": 500, "mtry": 3, "min_leaf": 10},
        "selection": {"mode": "fixed", "fixed": ["C"], "forest_scope": "per_group"},
        "seed": 99,
        "out": "run1",
    }
    cfg = parse_config(doc)
    assert cfg.data.path == "panel.csv"
    assert cfg.data.columns == {"mve": "MarketCap"}
    assert cfg.data.window == (2005, 2016)
    assert len(cfg.proxies) == 1 and cfg.proxies[0].raw_field == "capital_ratio"
    assert cfg.rescale_scope == "full"
    assert [s.name for s in cfg.subsamples] == ["all", "crisis", "south", "big"]
    assert cfg.subsamples[1].criterion == YearRange(2008, 2009)
    assert cfg.subsamples[1].min_leaf == 15
    assert cfg.subsamples[2].criterion == Countries(("ES", "PT"))
    assert cfg.tree.max_depth == 6
    assert cfg.tree.prune_rule == "one_se"
    assert cfg.forest.mtry == 3
    assert cfg.selection.fixed == ("C",)
    assert cfg.seed == 99
    assert cfg.out == "run1"


def test_country_group_criteria():
    cfg = parse_config({"subsamples": [
        {"name": "p", "criterion": {"kind": "countries", "group": "pigs"}},
        {"name": "np", "criterion": {"kind": "countries", "group": "non_pigs"}},
    ]})
    assert cfg.subsamples[0].criterion == Countries.pigs()
    assert cfg.subsamples[1].criterion == Countries.non_pigs()


@pytest.mark.parametrize("doc, fragment", [
    ({"bogus": 1}, "unknown keys"),
    ({"data": {"path": "x", "oops": 2}}, "unknown keys"),
    ({"data": {"window": [2005]}}, "window"),
    ({"data": {"columns": ["a"]}}, "columns"),
    ({"proxies": []}, "non-empty"),
    ({"proxies": ["Capt"]}, "object"),
    ({"proxies": [{"name": "X"}]}, "missing key"),
    ({"rescale_scope": "banana"}, "rescale_scope"),
    ({"subsamples": []}, "non-empty"),
    ({"subsamples": [{"criterion": {"kind": "all"}}]}, "name"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "monthly"}}]}, "kind"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years"}}]}, "years"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "countries"}}]}, "codes"),
    ({"subsamples": [{"name": "a", "criterion":
      {"kind": "countries", "group": "brics"}}]}, "pigs"),
    ({"subsamples": [{"name": "a", "criterion":
      {"kind": "size", "half": "medium"}}]}, "small or large"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "all"}},
                     {"name": "a", "criterion": {"kind": "all"}}]}, "duplicate"),
    ({"tree": {"prune_rule": "best"}}, "prune_rule"),
    ({"tree": {"cv_folds": 1}}, "cv_folds"),
    ({"selection": {"mode": "manual"}}, "mode"),
    ({"selection": {"forest_scope": "global"}}, "forest_scope"),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),
    ({"seed": "1.5"}, "seed must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"tree": []}, "tree must be an object"),
    ({"forest": "many"}, "forest must be an object"),
    ({"selection": None}, "selection must be an object"),
    ({"data": [1]}, "data must be an object"),
    ({"subsamples": ["all"]}, "subsample needs name"),
    ({"tree": {"min_leaf": "abc"}}, "tree.min_leaf must be an integer"),
    ({"tree": {"max_depth": "deep"}}, "tree.max_depth must be an integer"),
    ({"tree": {"min_leaf": 0}}, "tree.min_leaf must be >= 1"),
    ({"tree": {"max_depth": -1}}, "tree.max_depth must be >= 0"),
    ({"forest": {"n_trees": 0}}, "forest.n_trees must be >= 1"),
    ({"forest": {"min_leaf": 0}}, "forest.min_leaf must be >= 1"),
    ({"forest": {"mtry": 0}}, "forest.mtry must be >= 1"),
    ({"forest": {"mtry": [3]}}, "forest.mtry must be an integer"),
    ({"data": {"window": [2005, "later"]}}, "data.window must be an integer"),
    ({"proxies": [{"name": "X", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": "threshold",
                   "threshold": "high"}]}, "threshold must be a number"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "all"}, "min_leaf": 0}]},
     "min_leaf must be >= 1"),
    ({"selection": {"fixed": "Capt"}}, "selection.fixed must be a list"),
    ({"selection": {"fixed": ["Capt", 3]}}, "selection.fixed must be a list"),
    ({"data": {"window": [2016, 2005]}}, "data.window start 2016 is after its end 2005"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years", "start": 2016,
                                                 "end": 2005}}]},
     "years criterion start 2016 is after its end 2005"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years", "start": 2008.5,
                                                 "end": 2009}}]},
     "criterion.start must be an integer, got 2008.5"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years", "start": True,
                                                 "end": 2009}}]},
     "criterion.start must be an integer, got True"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"tree": {"min_leaf": " 12 "}}, "tree.min_leaf must be an integer, got ' 12 '"),
    ({"forest": {"n_trees": "16"}}, "forest.n_trees must be an integer"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years", "start": "2008",
                                                 "end": 2009}}]},
     "subsamples[0].criterion.start must be an integer, got '2008'"),
    ({"data": {"path": 2}}, "data.path must be a string, got 2"),
    ({"data": {"columns": {"mve": 3}}}, "data.columns must map field names"),
    ({"out": ["dir"]}, "out must be a string"),
    ({"rescale_scope": 1}, "rescale_scope must be a string"),
    ({"subsamples": [{"name": 7, "criterion": {"kind": "all"}}]},
     "subsamples[0].name must be a string, got 7"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "countries",
                                                 "codes": ["DE", 49]}}]},
     "subsamples[0].criterion.codes must be a string, got 49"),
    ({"proxies": [{"name": "X", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": None}]},
     "proxies[0].mode must be a string, got None"),
    ({"tree": {"prune_rule": 1}}, "tree.prune_rule must be a string"),
    ({"selection": {"mode": True}}, "selection.mode must be a string"),
    ({"selection": {"forest_scope": 0}}, "selection.forest_scope must be a string"),
    # json.load reads the literals Infinity and NaN as floats.
    ({"proxies": [{"name": "Capt_x", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": "threshold",
                   "threshold": float("inf")}]}, "proxies[0].threshold must be finite, got inf"),
    ({"proxies": [{"name": "Capt_x", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": "threshold",
                   "threshold": float("nan")}]}, "proxies[0].threshold must be finite, got nan"),
    ({"seed": float("-inf")}, "seed must be finite, got -inf"),
    ({"subsamples": [{"name": "early years", "criterion": {"kind": "all"}},
                     {"name": "early_years", "criterion": {"kind": "all"}}]},
     "subsample names 'early years' and 'early_years' would both write files named "
     "'early_years'"),
    ({"data": {"columns": {"betta": "Beta"}}}, "unknown keys in data.columns: ['betta']"),
    # 1e308 used to overflow the risky-side scores and end the run in the
    # unlocated "scores must lie within [1, 5]".
    ({"proxies": [{"name": "Capt_x", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": "threshold",
                   "threshold": 1e308}]}, "Capt_x: threshold must lie within"),
])
def test_bad_documents_are_config_errors(doc, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(doc)


def test_infinity_in_the_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"proxies": [{"name": "Capt_x", "group": "C", "raw_field": '
                    '"capital_ratio", "direction": "decreasing", "mode": "threshold", '
                    '"threshold": Infinity}]}', encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape("proxies[0].threshold must be finite")):
        load_config(path)


def test_duplicate_proxy_names_are_config_errors():
    # A second "Capt" in group E on roa used to be scored on roa under the
    # name Capt inside group C's per-group forest.
    proxies = [dataclasses.asdict(s) for s in DEFAULT_PROXY_SPECS]
    proxies.append(dict(proxies[10], name="Capt"))
    for scope in ("joint", "per_group"):
        with pytest.raises(ConfigError, match=re.escape("duplicate proxy names: ['Capt']")):
            parse_config({"proxies": proxies, "selection": {"forest_scope": scope}})


@pytest.mark.parametrize("selection, fragment", [
    ({"mode": "fixed", "fixed": []}, "selection.fixed must name at least one proxy"),
    ({"mode": "fixed", "fixed": ["Capt", "Nope"]}, "selection.fixed names unknown proxy 'Nope'"),
    ({"mode": "fixed", "fixed": ["Capt", "Capt_x"]},
     "selection.fixed has two proxies for group 'C'"),
])
def test_fixed_selection_is_checked_when_parsed(selection, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config({"selection": selection})


def test_mtry_is_checked_against_the_forest_width():
    # Joint: one forest over all 18 proxies. Per group: the smallest group
    # (S, one proxy) bounds mtry.
    assert parse_config({"forest": {"mtry": 18}}).forest.mtry == 18
    with pytest.raises(ConfigError, match=re.escape("forest.mtry must be in [1, 18], got 19")):
        parse_config({"forest": {"mtry": 19}})
    assert parse_config({"forest": {"mtry": 1},
                         "selection": {"forest_scope": "per_group"}}).forest.mtry == 1
    with pytest.raises(ConfigError, match=re.escape("forest.mtry must be in [1, 1], got 2")):
        parse_config({"forest": {"mtry": 2}, "selection": {"forest_scope": "per_group"}})
    # Fixed selection grows no forest, so mtry is not bounded by the proxies.
    cfg = parse_config({"forest": {"mtry": 99}, "selection": {"mode": "fixed"}})
    assert cfg.forest.mtry == 99


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        parse_config(["not", "a", "config"])


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "out": "x"}), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.out == "x"

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


@pytest.mark.parametrize("data", [
    b'{"out": "r\xe9sum\xe9"}',  # Latin-1, not UTF-8
    b"[" * 100_000,
    b'{"seed": 1' + b"0" * 5000 + b"}",  # past the 4,300-digit limit of int()
], ids=["latin1", "deep", "huge_integer"])
def test_unreadable_config_json_is_a_config_error(tmp_path, data):
    # Each of these used to escape load_config as a ValueError or RecursionError.
    path = tmp_path / "run.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_env_var_name_is_stable():
    assert CONFIG_ENV_VAR == "CHARTERSEG_CONFIG"


# ---------------------------------------------------------------- fuzzing

_CONFIG_KEYS = {"data", "proxies", "rescale_scope", "subsamples", "tree", "forest",
                "selection", "seed", "out"}
_KEYS = ["data", "path", "columns", "window", "proxies", "name", "group", "raw_field",
         "direction", "mode", "threshold", "rescale_scope", "subsamples", "criterion",
         "kind", "start", "end", "codes", "half", "min_leaf", "tree", "max_depth",
         "cv_folds", "prune_rule", "forest", "n_trees", "mtry", "selection", "fixed",
         "forest_scope", "seed", "out"]
_WORDS = _KEYS + ["all", "years", "countries", "size", "pigs", "non_pigs", "small",
                  "large", "subsample", "full", "rf", "joint", "per_group", "min_cv",
                  "one_se", "increasing", "decreasing", "quantile", "Capt", "Capt_x",
                  "Syst", "C", "E", "capital_ratio", "roa", "mve", "DE"]

_BASE = {"data": {"path": "p.csv", "columns": {"mve": "MarketCap"}, "window": [2005, 2016]},
     "proxies": [dataclasses.asdict(s) for s in DEFAULT_PROXY_SPECS[:4]],
     "rescale_scope": "full",
     "subsamples": [{"name": "crisis", "criterion": {"kind": "years", "start": 2008,
                                                     "end": 2009}, "min_leaf": 15},
                    {"name": "south", "criterion": {"kind": "countries", "codes": ["ES"]}},
                    {"name": "big", "criterion": {"kind": "size", "half": "large"}},
                    {"name": "pigs", "criterion": {"kind": "countries", "group": "pigs"}}],
     "tree": {"min_leaf": 25, "max_depth": 6, "cv_folds": 5, "prune_rule": "one_se"},
     "forest": {"n_trees": 50, "mtry": 1, "min_leaf": 10},
     "selection": {"mode": "rf", "fixed": ["Capt", "Asts"], "forest_scope": "per_group"},
     "seed": 99, "out": "run1"}


def _replaced(path, value):
    """_BASE with the value at path replaced."""
    return replaced(_BASE, path, value)


_EDGES = [None, True, 0, -1, 2.5, 1e308, float("inf"), float("-inf"), float("nan"), 2 ** 64,
          "3", " 12 ", "", [], {}, ["x"], {"kind": "all"}]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 2 ** 65) | st.floats()
            | st.sampled_from(_EDGES) | st.sampled_from(_WORDS) | st.text(max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                                     max_size=5)),
    max_leaves=12)
_PLACES = list(json_paths(_BASE))
_DOCUMENTS = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), _VALUES, max_size=6),
    # One value of a valid document replaced, by an edge case or by any value.
    st.builds(_replaced, st.sampled_from(_PLACES), st.sampled_from(_EDGES)),
    st.builds(_replaced, st.sampled_from(_PLACES), _VALUES),
)


def _parses_or_raises_config_fault(doc):
    try:
        cfg = parse_config(doc)
    except ChartersegError:
        return
    assert isinstance(cfg, RunConfig)


@seed(20240611)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_DOCUMENTS)
def test_parse_config_fuzz_raises_only_charterseg_errors(doc):
    _parses_or_raises_config_fault(doc)


def test_every_value_swapped_for_an_edge_case_raises_only_charterseg_errors():
    for path, value in itertools.product(_PLACES, _EDGES):
        _parses_or_raises_config_fault(_replaced(path, value))
