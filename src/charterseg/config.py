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
"codes": ["DE", ...]}, {"kind": "size", "half": "small" | "large"}. A
countries criterion takes group or codes, never both.

Each section is read from its dataclass's fields: their names are its keys,
their types the JSON types of its values, and those without a default its
required keys. Values go through this module's typed JSON readers ("3" is
no number, 30.0 no integer, and the Infinity and NaN that json.load reads
and a key repeated in one object, whose last value json.load keeps, are
refused). A bad list entry's error names its index (selection.fixed[1]),
a repeated key its path (tree.min_leaf).
DataConfig checks its window order and column field names when built, in
Python as from JSON. RunConfig checks the finished config, so faults in
proxy selection (duplicate proxy names, a bad selection.fixed, an mtry
wider than a forest), an empty out, two subsample names that map to one
output file name and a name too long for a file name are found before the
panel is read.

The CHARTERSEG_CONFIG environment variable supplies the default --config path.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError, echo
from .forest import ForestParams
from .panel import ALL_FIELDS, Countries, FullSample, SizeHalf, YearRange
from .rescale import DEFAULT_PROXY_SPECS, ProxySpec
from .tree import TreeParams

CONFIG_ENV_VAR = "CHARTERSEG_CONFIG"

Criterion = FullSample | YearRange | Countries | SizeHalf


def _json_number(kind, value, key: str):
    """value as kind, int or float, if it is a JSON number of that type; a fault names the key."""
    if isinstance(value, float) and not math.isfinite(value):  # json.load reads Infinity, NaN
        raise ConfigError(f"{key} must be finite, got {echo(value)}")
    try:  # a bool is no integer, and an integer a float rounds is no exact number
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool) and kind(value) == value
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {echo(value)}")
    return kind(value)


def _json_object(value, key: str, allowed) -> None:
    """Refuse value unless it is a JSON object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {echo(value)}")
    unknown = set(value) - set(allowed)
    if unknown:  # keys set in Python may mix types, so they sort as text
        raise ConfigError(f"unknown keys in {key}: {echo(sorted(unknown, key=str))}")


class _RepeatedKey(dict):
    """A parsed JSON object that repeats a key, the first of which is .repeated."""

    def __init__(self, pairs, repeated: str):
        super().__init__(pairs)
        self.repeated = repeated


def _unique_keys(pairs) -> dict:
    """A json object_pairs_hook: the object as a dict, a _RepeatedKey if it repeats a key."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return _RepeatedKey(pairs, key)
        seen.add(key)
    return dict(pairs)


@dataclass(frozen=True)
class SubsampleSpec:
    name: str
    criterion: Criterion
    min_leaf: Optional[int] = None  # overrides tree.min_leaf for this subsample

    def __post_init__(self):
        if not isinstance(self.criterion, Criterion):
            raise ConfigError(f"subsample {echo(self.name)} criterion must be FullSample, "
                              f"YearRange, Countries or SizeHalf, got {echo(self.criterion)}")
        if self.min_leaf is not None and self.min_leaf < 1:
            raise ConfigError(f"subsample {echo(self.name)} min_leaf must be >= 1, "
                              f"got {echo(self.min_leaf)}")


@dataclass(frozen=True)
class DataConfig:
    path: Optional[str] = None
    columns: Optional[dict[str, str]] = None
    window: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.columns is not None:  # a misspelt field would read as blank on every row
            _json_object(self.columns, "data.columns", ALL_FIELDS)
        if self.window is not None and self.window[0] > self.window[1]:
            start, end = self.window
            raise ConfigError(f"data.window start {echo(start)} is after its end {echo(end)}")


@dataclass(frozen=True)
class TreeConfig(TreeParams):
    cv_folds: int = 10
    prune_rule: str = "min_cv"

    def __post_init__(self):
        super().__post_init__()
        if self.prune_rule not in ("min_cv", "one_se"):
            raise ConfigError(f"prune_rule must be min_cv or one_se, got {echo(self.prune_rule)}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {echo(self.cv_folds)}")


@dataclass(frozen=True)
class SelectionConfig:
    mode: str = "rf"  # "rf" | "fixed"
    fixed: tuple[str, ...] = ("Capt", "Asts", "Mang", "Ergs_x", "Liqt_x", "Syst")
    forest_scope: str = "joint"  # "joint" | "per_group"

    def __post_init__(self):
        if self.mode not in ("rf", "fixed"):
            raise ConfigError(f"selection mode must be rf or fixed, got {echo(self.mode)}")
        if self.forest_scope not in ("joint", "per_group"):
            raise ConfigError("forest_scope must be joint or per_group, "
                              f"got {echo(self.forest_scope)}")


# Full sample, four periods, country groups, and size halves.
DEFAULT_SUBSAMPLES = (
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


def _slug(name: str) -> str:
    """The part of a subsample's output file names that comes from its name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    proxies: tuple[ProxySpec, ...] = DEFAULT_PROXY_SPECS
    rescale_scope: str = "subsample"  # "subsample" | "full"
    subsamples: tuple[SubsampleSpec, ...] = DEFAULT_SUBSAMPLES
    tree: TreeConfig = field(default_factory=TreeConfig)
    forest: ForestParams = field(default_factory=ForestParams)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seed: int = 0
    out: str = "study_out"

    def __post_init__(self):
        if self.rescale_scope not in ("subsample", "full"):
            raise ConfigError(
                f"rescale_scope must be subsample or full, got {echo(self.rescale_scope)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {echo(self.seed)}")
        if not self.out:  # Path("") is the working directory
            raise ConfigError("out must name an output directory, got ''")
        if not self.proxies:
            raise ConfigError("proxies must be a non-empty list")
        if not self.subsamples:
            raise ConfigError("subsamples must be a non-empty list")
        names = [s.name for s in self.subsamples]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate subsample names: {echo(names)}")
        by_slug = {}
        for name in names:
            if not _slug(name):  # it would write trees/.json under a bare heading
                raise ConfigError(f"subsample name {echo(name)} is empty; it names the "
                                  "subsample's files and its report heading")
            if not name.isprintable():  # a line break would start a new report line
                raise ConfigError(f"subsample name {echo(name)} holds a line break, tab or "
                                  "other unprintable character")
            first = by_slug.setdefault(_slug(name), name)
            if first != name:
                raise ConfigError(f"subsample names {echo(first)} and {echo(name)} would both "
                                  f"write files named {echo(_slug(name))}")
        for slug, name in by_slug.items():  # a slug is ASCII: one byte per character
            if len(f"correlations_{slug}.csv") > 255:  # the longest file name it is in
                raise ConfigError(f"subsample name {echo(name)} is too long for its file "
                                  "names, which hold at most 255 bytes")
        proxy_names = [p.name for p in self.proxies]
        dupes = sorted({n for n in proxy_names if proxy_names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate proxy names: {echo(dupes)}")
        group = {p.name: p.group for p in self.proxies}
        if self.selection.mode == "fixed":
            if not self.selection.fixed:
                raise ConfigError("selection.fixed must name at least one proxy")
            seen = set()
            for name in self.selection.fixed:
                if name not in group:
                    raise ConfigError(f"selection.fixed names unknown proxy {echo(name)}")
                if group[name] in seen:
                    raise ConfigError(f"selection.fixed has two proxies for group {group[name]!r}")
                seen.add(group[name])
        elif self.forest.mtry is not None:
            # A joint forest sees every proxy; per group, the smallest group bounds mtry.
            joint = self.selection.forest_scope == "joint"
            self.forest.resolve_mtry(len(group) if joint else min(Counter(group.values()).values()))


@functools.cache
def _schema(cls) -> tuple[dict, list]:
    """A config dataclass's JSON keys with their declared types, and the keys it requires."""
    hints = get_type_hints(cls)
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return {f.name: hints[f.name] for f in fields(cls)}, required


def _value(tp, value, key: str):
    """A parsed JSON value as the type tp that a config field declares; a fault names the key."""
    prefix = "" if key == "config" else f"{key}."
    if isinstance(value, _RepeatedKey):  # first: every object of a config passes through here
        raise ConfigError(f"JSON object repeats the key {echo(prefix + value.repeated)}")
    origin, args = get_origin(tp), get_args(tp)
    if tp is int or tp is float:
        return _json_number(tp, value, key)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {echo(value)}")
        return value
    if tp is Criterion:
        return _criterion(value, key)
    if origin is Union:  # Optional[X]
        return None if value is None else _value(args[0], value, key)
    if origin is tuple and args[-1] is not Ellipsis:  # the (start, end) pair
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{key} must be [start, end], got {echo(value)}")
        return tuple(_value(t, v, key) for t, v in zip(args, value))
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {echo(value)}")
        return tuple(_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not (isinstance(value, dict) and all(isinstance(v, str) for v in value.values())):
            raise ConfigError(f"{key} must map field names to column names, got {echo(value)}")
        return value
    types, required = _schema(tp)
    _json_object(value, key, types)
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(f"{key} missing key {missing[0]!r}")
    return tp(**{k: _value(types[k], v, prefix + k) for k, v in value.items()})


def _criterion(obj, key: str) -> Criterion:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{key} must be an object with a 'kind', got {echo(obj)}")
    kind = obj["kind"]
    rest = {k: v for k, v in obj.items() if k != "kind"}
    for name, cls in (("all", FullSample), ("years", YearRange), ("size", SizeHalf)):
        if kind == name:  # not a dict lookup: a kind may be an unhashable list
            return _value(cls, rest, key)
    if kind != "countries":
        raise ConfigError(f"{key}.kind must be all, years, countries or size, got {echo(kind)}")
    # Countries.exclude is no JSON key: the pigs and non_pigs groups set it.
    _json_object(rest, key, ["group"] if "group" in rest else ["codes"])
    if "group" in rest:
        if rest["group"] == "pigs":
            return Countries.pigs()
        if rest["group"] == "non_pigs":
            return Countries.non_pigs()
        raise ConfigError(f"country group must be pigs or non_pigs, got {echo(rest['group'])}")
    if not isinstance(rest.get("codes"), list):
        raise ConfigError("countries criterion needs 'group' or a 'codes' list")
    return Countries(_value(tuple[str, ...], rest["codes"], f"{key}.codes"))


def parse_config(doc) -> RunConfig:
    """Build a RunConfig from a parsed JSON document.

    Unknown keys, values of the wrong JSON type and every check RunConfig
    makes end in a ConfigError that names the key.
    """
    return _value(RunConfig, doc, "config")


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge integers
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(doc)
