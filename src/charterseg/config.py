"""Run configuration: one JSON file drives every CLI command.

Schema (all keys optional unless noted):

    {
      "data": {"path": "panel.csv",            # required for CLI runs
               "columns": {"mve": "MarketCap", ...},
               "window": [2005, 2016]},
      "proxies": [{"name": "Capt", "group": "C", "raw_field": "capital_ratio",
                   "direction": "decreasing", "mode": "quantile",
                   "threshold": null}, ...],   # default: built-in catalog
      "rescale_scope": "subsample" | "full",
      "subsamples": [{"name": "eurozone", "criterion": {"kind": "all"},
                      "min_leaf": 20}, ...],   # default: full set below
      "tree": {"min_leaf": 30, "max_depth": null, "cv_folds": 10,
               "prune_rule": "min_cv" | "one_se"},
      "forest": {"n_trees": 2000, "mtry": null, "min_leaf": 5},
      "selection": {"mode": "rf" | "fixed",
                    "fixed": ["Capt", "Asts", "Mang", "Ergs_x", "Liqt_x", "Syst"],
                    "forest_scope": "joint" | "per_group"},
      "seed": 0,
      "out": "study_out"
    }

Criterion kinds: {"kind": "all"}, {"kind": "years", "start": Y, "end": Y},
{"kind": "countries", "group": "pigs" | "non_pigs"} or {"kind": "countries",
"codes": ["DE", ...]}, {"kind": "size", "half": "small" | "large"}.

The CHARTERSEG_CONFIG environment variable supplies the default --config path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .panel import Countries, FullSample, SizeHalf, YearRange
from .rescale import DEFAULT_PROXY_SPECS, ProxySpec

CONFIG_ENV_VAR = "CHARTERSEG_CONFIG"

Criterion = object  # FullSample | YearRange | Countries | SizeHalf


@dataclass(frozen=True)
class SubsampleSpec:
    name: str
    criterion: Criterion
    min_leaf: Optional[int] = None  # overrides tree.min_leaf for this subsample

    def __post_init__(self):
        if self.min_leaf is not None and self.min_leaf < 1:
            raise ConfigError(f"subsample {self.name!r} min_leaf must be >= 1, got {self.min_leaf}")


@dataclass(frozen=True)
class DataConfig:
    path: Optional[str] = None
    columns: Optional[dict[str, str]] = None
    window: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class TreeConfig:
    min_leaf: int = 30
    max_depth: Optional[int] = None
    cv_folds: int = 10
    prune_rule: str = "min_cv"

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError(f"tree.min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"tree.max_depth must be >= 0, got {self.max_depth}")
        if self.prune_rule not in ("min_cv", "one_se"):
            raise ConfigError(f"prune_rule must be min_cv or one_se, got {self.prune_rule!r}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 2000
    mtry: Optional[int] = None
    min_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"forest.n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"forest.mtry must be >= 1, got {self.mtry}")
        if self.min_leaf < 1:
            raise ConfigError(f"forest.min_leaf must be >= 1, got {self.min_leaf}")


@dataclass(frozen=True)
class SelectionConfig:
    mode: str = "rf"  # "rf" | "fixed"
    fixed: tuple[str, ...] = ("Capt", "Asts", "Mang", "Ergs_x", "Liqt_x", "Syst")
    forest_scope: str = "joint"  # "joint" | "per_group"

    def __post_init__(self):
        if self.mode not in ("rf", "fixed"):
            raise ConfigError(f"selection mode must be rf or fixed, got {self.mode!r}")
        if self.forest_scope not in ("joint", "per_group"):
            raise ConfigError(f"forest_scope must be joint or per_group, got {self.forest_scope!r}")


def default_subsamples() -> tuple[SubsampleSpec, ...]:
    """Full sample, four periods, country groups, and size halves."""
    return (
        SubsampleSpec("eurozone", FullSample()),
        SubsampleSpec("2005-2007", YearRange(2005, 2007)),
        SubsampleSpec("2008-2009", YearRange(2008, 2009)),
        SubsampleSpec("2010-2013", YearRange(2010, 2013)),
        SubsampleSpec("2014-2016", YearRange(2014, 2016)),
        SubsampleSpec("non_pigs", Countries.non_pigs()),
        SubsampleSpec("pigs", Countries.pigs()),
        SubsampleSpec("small", SizeHalf("small")),
        SubsampleSpec("large", SizeHalf("large")),
    )


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    proxies: tuple[ProxySpec, ...] = DEFAULT_PROXY_SPECS
    rescale_scope: str = "subsample"  # "subsample" | "full"
    subsamples: tuple[SubsampleSpec, ...] = field(default_factory=default_subsamples)
    tree: TreeConfig = field(default_factory=TreeConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seed: int = 0
    out: str = "study_out"

    def __post_init__(self):
        if self.rescale_scope not in ("subsample", "full"):
            raise ConfigError(
                f"rescale_scope must be subsample or full, got {self.rescale_scope!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        names = [s.name for s in self.subsamples]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate subsample names: {names}")


def _expect_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(doc: dict, key: str) -> dict:
    if not isinstance(doc[key], dict):
        raise ConfigError(f"{key} must be an object, got {doc[key]!r}")
    return doc[key]


def _number(kind, value, key: str):
    """int(value) or float(value); a failed or lossy conversion names the key."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (isinstance(value, float) and out != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return out


def _optional_int(obj: dict, key: str, default: Optional[int], where: str) -> Optional[int]:
    """obj[key] as an int, None when it is null, default when it is absent."""
    if key not in obj:
        return default
    return None if obj[key] is None else _number(int, obj[key], f"{where}.{key}")


def _parse_criterion(obj) -> Criterion:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"criterion must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "all":
        _expect_keys(obj, {"kind"}, "criterion")
        return FullSample()
    if kind == "years":
        _expect_keys(obj, {"kind", "start", "end"}, "criterion")
        if "start" not in obj or "end" not in obj:
            raise ConfigError(f"years criterion needs integer start and end: {obj!r}")
        start = _number(int, obj["start"], "criterion.start")
        end = _number(int, obj["end"], "criterion.end")
        if start > end:
            raise ConfigError(f"years criterion start {start} is after its end {end}")
        return YearRange(start, end)
    if kind == "countries":
        _expect_keys(obj, {"kind", "group", "codes"}, "criterion")
        if "group" in obj:
            if obj["group"] == "pigs":
                return Countries.pigs()
            if obj["group"] == "non_pigs":
                return Countries.non_pigs()
            raise ConfigError(f"country group must be pigs or non_pigs, got {obj['group']!r}")
        codes = obj.get("codes")
        if not codes or not isinstance(codes, list):
            raise ConfigError("countries criterion needs 'group' or a 'codes' list")
        return Countries(tuple(str(c) for c in codes))
    if kind == "size":
        _expect_keys(obj, {"kind", "half"}, "criterion")
        half = obj.get("half")
        if half not in ("small", "large"):
            raise ConfigError(f"size criterion needs half small or large, got {half!r}")
        return SizeHalf(half)
    raise ConfigError(f"unknown criterion kind {kind!r}")


def _parse_proxy(obj) -> ProxySpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"proxy spec must be an object, got {obj!r}")
    _expect_keys(obj, {"name", "group", "raw_field", "direction", "mode", "threshold"},
                 "proxy spec")
    try:
        return ProxySpec(
            name=str(obj["name"]),
            group=str(obj["group"]),
            raw_field=str(obj["raw_field"]),
            direction=str(obj["direction"]),
            mode=str(obj["mode"]),
            threshold=(None if obj.get("threshold") is None
                       else _number(float, obj["threshold"], "proxy spec threshold")),
        )
    except KeyError as exc:
        raise ConfigError(f"proxy spec missing key {exc}") from None


def parse_config(doc: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _expect_keys(doc, {"data", "proxies", "rescale_scope", "subsamples", "tree",
                       "forest", "selection", "seed", "out"}, "config")
    cfg = base or RunConfig()

    if "data" in doc:
        d = _section(doc, "data")
        _expect_keys(d, {"path", "columns", "window"}, "data")
        window = d.get("window")
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2):
                raise ConfigError(f"window must be [start, end], got {window!r}")
            window = (_number(int, window[0], "data.window"),
                      _number(int, window[1], "data.window"))
            if window[0] > window[1]:
                raise ConfigError(f"data.window start {window[0]} is after its end {window[1]}")
        columns = d.get("columns")
        if columns is not None and not isinstance(columns, dict):
            raise ConfigError("data.columns must be an object")
        cfg = replace(cfg, data=DataConfig(d.get("path"), columns, window))

    if "proxies" in doc:
        if not isinstance(doc["proxies"], list) or not doc["proxies"]:
            raise ConfigError("proxies must be a non-empty list")
        cfg = replace(cfg, proxies=tuple(_parse_proxy(p) for p in doc["proxies"]))

    if "rescale_scope" in doc:
        cfg = replace(cfg, rescale_scope=str(doc["rescale_scope"]))

    if "subsamples" in doc:
        subs = []
        if not isinstance(doc["subsamples"], list) or not doc["subsamples"]:
            raise ConfigError("subsamples must be a non-empty list")
        for s in doc["subsamples"]:
            if not isinstance(s, dict) or "name" not in s or "criterion" not in s:
                raise ConfigError(f"subsample needs name and criterion: {s!r}")
            _expect_keys(s, {"name", "criterion", "min_leaf"}, "subsample")
            subs.append(SubsampleSpec(str(s["name"]), _parse_criterion(s["criterion"]),
                                      _optional_int(s, "min_leaf", None, "subsample")))
        cfg = replace(cfg, subsamples=tuple(subs))

    if "tree" in doc:
        t = _section(doc, "tree")
        _expect_keys(t, {"min_leaf", "max_depth", "cv_folds", "prune_rule"}, "tree")
        base_t = cfg.tree
        cfg = replace(cfg, tree=TreeConfig(
            min_leaf=_number(int, t.get("min_leaf", base_t.min_leaf), "tree.min_leaf"),
            max_depth=_optional_int(t, "max_depth", base_t.max_depth, "tree"),
            cv_folds=_number(int, t.get("cv_folds", base_t.cv_folds), "tree.cv_folds"),
            prune_rule=str(t.get("prune_rule", base_t.prune_rule)),
        ))

    if "forest" in doc:
        f = _section(doc, "forest")
        _expect_keys(f, {"n_trees", "mtry", "min_leaf"}, "forest")
        base_f = cfg.forest
        cfg = replace(cfg, forest=ForestConfig(
            n_trees=_number(int, f.get("n_trees", base_f.n_trees), "forest.n_trees"),
            mtry=_optional_int(f, "mtry", base_f.mtry, "forest"),
            min_leaf=_number(int, f.get("min_leaf", base_f.min_leaf), "forest.min_leaf"),
        ))

    if "selection" in doc:
        s = _section(doc, "selection")
        _expect_keys(s, {"mode", "fixed", "forest_scope"}, "selection")
        base_s = cfg.selection
        fixed = s.get("fixed")
        if fixed is not None and not (isinstance(fixed, list)
                                      and all(isinstance(x, str) for x in fixed)):
            raise ConfigError(f"selection.fixed must be a list of proxy names, got {fixed!r}")
        cfg = replace(cfg, selection=SelectionConfig(
            mode=str(s.get("mode", base_s.mode)),
            fixed=tuple(fixed) if fixed is not None else base_s.fixed,
            forest_scope=str(s.get("forest_scope", base_s.forest_scope)),
        ))

    if "seed" in doc:
        cfg = replace(cfg, seed=_number(int, doc["seed"], "seed"))
    if "out" in doc:
        cfg = replace(cfg, out=str(doc["out"]))
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(doc)
