"""Per-group proxy selection tests, including the reference-importances fixture."""

from __future__ import annotations

import json

import numpy as np
import pytest

from charterseg.errors import ConfigError
from charterseg.forest import ImportanceReport
from charterseg.rescale import DEFAULT_PROXY_SPECS, GROUPS
from charterseg.select import canonical_specs, select_proxies, selection_to_spec_fragment
from charterseg.study import write_selection_table

# Reference importance values for a full bank panel (percent increase in
# MSE when the proxy is permuted). Proxies without a reference value get
# small filler values, low enough not to disturb any group's winner.
REPORTED_IMPORTANCES = {
    "Capt": 46.6, "Capt_x": 12.0,
    "Asts": 24.5, "Asts_x": 23.4, "Asts_px": 22.7, "Asts_p": 20.1,
    "Mang": 21.6, "Mang_p": 10.0, "Mang_pp": 9.0, "Mang_px": 8.0,
    "Ergs_x": 42.6, "Ergs": 15.0, "Ergs_p": 14.0, "Ergs_px": 13.0,
    "Liqt_x": 22.1, "Liqt": 12.0, "Liqt_p": 11.0,
    "Syst": 5.0,
}


def report_from(values: dict[str, float]) -> ImportanceReport:
    names = tuple(values)
    pct = np.array([values[n] for n in names], dtype=float)
    return ImportanceReport(names, pct, pct / 100.0, np.zeros(len(names)), 1.0)


def test_reported_importances_select_the_canonical_six():
    result = select_proxies(report_from(REPORTED_IMPORTANCES))
    assert result == {
        "C": "Capt", "A": "Asts", "M": "Mang",
        "E": "Ergs_x", "L": "Liqt_x", "S": "Syst",
    }
    assert tuple(result) == GROUPS


def test_all_equal_importances_fall_back_to_catalog_order():
    values = {name: 1.0 for name in REPORTED_IMPORTANCES}
    result = select_proxies(report_from(values))
    assert result == {
        "C": "Capt", "A": "Asts", "M": "Mang",
        "E": "Ergs", "L": "Liqt", "S": "Syst",
    }


def test_singleton_group_chosen_regardless_of_score():
    values = dict(REPORTED_IMPORTANCES)
    values["Syst"] = -50.0
    result = select_proxies(report_from(values))
    assert result["S"] == "Syst"


def test_selection_affine_invariance():
    base = select_proxies(report_from(REPORTED_IMPORTANCES))
    rescaled = {k: 0.3 * v + 12.0 for k, v in REPORTED_IMPORTANCES.items()}
    again = select_proxies(report_from(rescaled))
    assert base == again


def test_missing_proxy_is_a_config_error():
    values = dict(REPORTED_IMPORTANCES)
    del values["Mang_pp"]
    with pytest.raises(ConfigError, match="Mang_pp"):
        select_proxies(report_from(values))


def test_selection_keeps_group_order_and_spec_order_ties():
    # Specs listed out of group order: the mapping still runs C..S, and
    # within a group a tie goes to the spec listed first.
    by_name = {s.name: s for s in DEFAULT_PROXY_SPECS}
    specs = tuple(by_name[n] for n in ("Syst", "Liqt_p", "Liqt", "Ergs_x", "Ergs",
                                       "Capt_x", "Capt", "Asts"))
    values = {"Syst": 1.0, "Liqt_p": 3.0, "Liqt": 3.0, "Ergs_x": 2.0, "Ergs": 5.0,
              "Capt_x": 4.0, "Capt": 4.0, "Asts": 0.0}
    result = select_proxies(report_from(values), specs)
    assert list(result.items()) == [("C", "Capt_x"), ("A", "Asts"), ("E", "Ergs"),
                                    ("L", "Liqt_p"), ("S", "Syst")]


def test_canonical_specs_rename_and_order():
    chosen = {"C": "Capt", "A": "Asts", "M": "Mang", "E": "Ergs_x",
              "L": "Liqt_x", "S": "Syst"}
    specs = canonical_specs(chosen)
    assert tuple(s.name for s in specs) == GROUPS
    by_name = {s.name: s for s in specs}
    assert by_name["E"].raw_field == "roa"
    assert by_name["E"].mode == "threshold"
    assert by_name["E"].threshold == 0.01
    assert by_name["C"].direction == "decreasing"


def test_canonical_specs_validation():
    with pytest.raises(ConfigError):
        canonical_specs({"C": "NoSuchProxy"})
    with pytest.raises(ConfigError):
        canonical_specs({"C": "Syst"})  # wrong group
    with pytest.raises(ConfigError):
        canonical_specs({})


def test_selection_outputs(tmp_path):
    result = select_proxies(report_from(REPORTED_IMPORTANCES))
    path = tmp_path / "selection.csv"
    write_selection_table(path, result.items())
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "group,proxy"
    assert lines[1] == "C,Capt"
    assert len(lines) == 7

    fragment = json.loads(selection_to_spec_fragment(result))
    assert [f["name"] for f in fragment] == list(GROUPS)
    assert fragment[3] == {"name": "E", "group": "E", "raw_field": "roa",
                           "direction": "decreasing", "mode": "threshold",
                           "threshold": 0.01}
