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
    DEFAULT_SUBSAMPLES,
    DataConfig,
    RunConfig,
    SubsampleSpec,
    load_config,
    parse_config,
)
from charterseg.errors import ECHO_LIMIT, ChartersegError, ConfigError
from charterseg.panel import Countries, FullSample, SizeHalf, YearRange
from charterseg.rescale import DEFAULT_PROXY_SPECS, ProxySpec, quantile_rescale
from charterseg.select import canonical_specs
from charterseg.tree import cv_prune
from helpers import CONFIG_EDGES, CONFIG_KEYS, CONFIG_WORDS, json_paths, make_matrix, replaced


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
    subs = DEFAULT_SUBSAMPLES
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
    ({"subsamples": [{"name": "a", "criterion": {"kind": "years"}}]},
     "subsamples[0].criterion missing key 'start'"),
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
    ({"subsamples": ["all"]}, "subsamples[0] must be an object, got 'all'"),
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
    ({"selection": {"fixed": ["Capt", 3]}}, "selection.fixed[1] must be a string, got 3"),
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
     "subsamples[0].criterion.codes[1] must be a string, got 49"),
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
                   "threshold": 1e308}]}, "'Capt_x': threshold must lie within"),
    # A countries criterion takes group or codes, never both; exclude is no JSON key.
    ({"subsamples": [{"name": "a", "criterion": {"kind": "countries", "group": "pigs",
                                                 "codes": ["DE"]}}]},
     "unknown keys in subsamples[0].criterion: ['codes']"),
    ({"subsamples": [{"name": "a", "criterion": {"kind": "countries", "codes": ["DE"],
                                                 "exclude": True}}]},
     "unknown keys in subsamples[0].criterion: ['exclude']"),
    # An integer is a JSON integer, as in a tree document: 30.0 used to read as 30.
    ({"tree": {"min_leaf": 30.0}}, "tree.min_leaf must be an integer, got 30.0"),
    ({"data": {"window": [2005, 2016.0]}}, "data.window must be an integer, got 2016.0"),
    # An unknown kind used to be named without its key.
    ({"subsamples": [{"name": "a", "criterion": {"kind": "bogus"}}]},
     "subsamples[0].criterion.kind must be all, years, countries or size, got 'bogus'"),
])
def test_bad_documents_are_config_errors(doc, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(doc)


@pytest.mark.parametrize("kwargs, fragment", [
    ({"window": (2016, 2005)}, "data.window start 2016 is after its end 2005"),
    ({"columns": {"betta": "Beta"}}, "unknown keys in data.columns: ['betta']"),
    # Keys of two types used to end in sorted()'s TypeError.
    ({"columns": {"betta": "Beta", 7: "Seven"}}, "unknown keys in data.columns: [7, 'betta']"),
])
def test_data_config_built_in_python_is_checked(kwargs, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        DataConfig(**kwargs)


_THRESHOLD_PROXY = {"name": "Capt_x", "group": "C", "raw_field": "capital_ratio",
                    "direction": "decreasing", "mode": "threshold"}


@pytest.mark.parametrize("doc, prefix", [
    ({"seed": 10 ** 400}, "seed must fit in 64 bits, got "),
    ({"proxies": [dict(_THRESHOLD_PROXY, threshold=10 ** 400)]},
     "proxies[0].threshold must be a number, got "),
    ({"tree": list(range(1000))}, "tree must be an object, got "),
    ({"tree": {"prune_rule": "x" * 10_000}}, "prune_rule must be min_cv or one_se, got "),
], ids=["huge_integer", "huge_number", "long_list_for_object", "long_string"])
def test_refused_values_are_echoed_within_the_cap(doc, prefix):
    # The 401 digits of 10**400 and the whole list or string used to be echoed.
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    message = str(info.value)
    assert message.startswith(prefix) and len(message) <= len(prefix) + ECHO_LIMIT


_NAME = "n" * 10_000


@pytest.mark.parametrize("build, fragment", [
    (lambda: parse_config({"subsamples": [{"name": _NAME, "criterion": {"kind": "all"},
                                           "min_leaf": 0}]}), "min_leaf must be >= 1"),
    (lambda: parse_config({"subsamples": [{"name": _NAME + " a", "criterion": {"kind": "all"}},
                                          {"name": _NAME + "_a", "criterion": {"kind": "all"}}]}),
     "would both write files named"),
    (lambda: ProxySpec("p" * 5_000, "C", "capital_ratio", "decreasing", "threshold"),
     "threshold mode needs a threshold value"),
    (lambda: parse_config({"selection": {"mode": "fixed", "fixed": ["f" * 5_000]}}),
     "selection.fixed names unknown proxy"),
    (lambda: parse_config({"proxies": [dict(_THRESHOLD_PROXY, name="p" * 5_000, threshold=0.06)]
                           * 2}), "duplicate proxy names"),
    (lambda: SubsampleSpec(_NAME, "bogus"), "criterion must be FullSample"),
], ids=["min_leaf", "slug_collision", "proxy_spec", "fixed", "duplicate_proxy", "criterion"])
def test_long_names_are_echoed_within_the_cap(build, fragment):
    # Names used as labels used to be echoed whole: 5,038 to 15,060 characters.
    with pytest.raises(ConfigError) as info:
        build()
    message = str(info.value)
    assert fragment in message and len(message) <= 4 * ECHO_LIMIT


_VALUE = "x" * 10_000


@pytest.mark.parametrize("call, fragment", [
    (lambda: cv_prune(make_matrix([[1.0], [2.0]], [0.0, 1.0]), rule=_VALUE),
     "unknown pruning rule "),
    (lambda: quantile_rescale([1.0, 2.0], direction=_VALUE), "bad direction "),
    (lambda: canonical_specs({"C": _VALUE}), "unknown proxy "),
], ids=["cv_prune_rule", "quantile_direction", "canonical_specs_name"])
def test_library_arguments_are_echoed_within_the_cap(call, fragment):
    # A value passed in from Python used to be echoed whole: 10,000 characters and more.
    with pytest.raises(ConfigError) as info:
        call()
    message = str(info.value)
    assert fragment in message and len(message) <= 2 * ECHO_LIMIT


def test_a_subsample_criterion_of_another_kind_is_refused_when_built():
    # A RunConfig built in Python used to run it, and the subsample ended
    # no_tree with "unknown subsample criterion 'bogus'".
    with pytest.raises(ConfigError, match=re.escape(
            "subsample 'odd' criterion must be FullSample, YearRange, Countries or SizeHalf, "
            "got 'bogus'")):
        SubsampleSpec("odd", "bogus")


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


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 2 ** 65) | st.floats()
            | st.sampled_from(CONFIG_EDGES) | st.sampled_from(CONFIG_WORDS) | st.text(max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=3), inner,
                                     max_size=5)),
    max_leaves=12)
_PLACES = list(json_paths(_BASE))
_DOCUMENTS = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), _VALUES, max_size=6),
    # One value of a valid document replaced, by an edge case or by any value.
    st.builds(_replaced, st.sampled_from(_PLACES), st.sampled_from(CONFIG_EDGES)),
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
    for path, value in itertools.product(_PLACES, CONFIG_EDGES):
        _parses_or_raises_config_fault(_replaced(path, value))
