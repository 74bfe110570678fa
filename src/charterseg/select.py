"""Per-group proxy selection from forest importances.

Each CAMELS group contributes exactly one proxy to the final tree: the
group's candidate with the highest %IncMSE, ties resolved by catalog order.
Groups with a single candidate pass it through unconditionally.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .errors import ConfigError
from .forest import ImportanceReport
from .rescale import DEFAULT_PROXY_SPECS, GROUPS, ProxySpec


@dataclass(frozen=True)
class GroupCatalog:
    """Ordered mapping of group letter to its candidate proxy names."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        letters = [g for g, _ in self.groups]
        if len(set(letters)) != len(letters):
            raise ConfigError(f"duplicate groups in catalog: {letters}")
        for g, names in self.groups:
            if not names:
                raise ConfigError(f"group {g!r} has no candidates")

    def names(self) -> list[str]:
        return [name for _, members in self.groups for name in members]


def default_catalog(specs=DEFAULT_PROXY_SPECS) -> GroupCatalog:
    """Catalog derived from a proxy-spec table, preserving its order."""
    by_group: dict[str, list[str]] = {}
    for s in specs:
        by_group.setdefault(s.group, []).append(s.name)
    ordered = tuple((g, tuple(by_group[g])) for g in GROUPS if g in by_group)
    return GroupCatalog(ordered)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen proxy per group and the importance report it was read from."""

    chosen: tuple[tuple[str, str], ...]  # (group, proxy name) in catalog order
    importance: ImportanceReport

    def as_dict(self) -> dict[str, str]:
        return dict(self.chosen)


def select_proxies(importance: ImportanceReport, catalog: GroupCatalog) -> SelectionResult:
    """Pick each group's highest-importance candidate.

    Raises ConfigError when a catalog proxy is missing from the importance
    table.
    """
    scores = importance.by_name()
    chosen = []
    for group, members in catalog.groups:
        missing = [m for m in members if m not in scores]
        if missing:
            raise ConfigError(f"group {group!r}: no importance for {missing}")
        best = members[0]
        for name in members[1:]:
            if scores[name] > scores[best]:
                best = name
        chosen.append((group, best))
    return SelectionResult(tuple(chosen), importance)


def canonical_specs(chosen: dict[str, str], specs=DEFAULT_PROXY_SPECS) -> tuple[ProxySpec, ...]:
    """Specs for the chosen proxies, renamed to their group letters.

    Output is ordered C, A, M, E, L, S so downstream matrices and reports
    always present the groups the same way.
    """
    by_name = {s.name: s for s in specs}
    out = []
    for group in GROUPS:
        if group not in chosen:
            continue
        name = chosen[group]
        if name not in by_name:
            raise ConfigError(f"unknown proxy {name!r} for group {group!r}")
        spec = by_name[name]
        if spec.group != group:
            raise ConfigError(f"proxy {name!r} belongs to group {spec.group!r}, not {group!r}")
        out.append(replace(spec, name=group))
    if not out:
        raise ConfigError("no groups chosen")
    return tuple(out)


def selection_to_spec_fragment(chosen: dict[str, str], specs=DEFAULT_PROXY_SPECS) -> str:
    """JSON proxy-spec list for the chosen proxies, loadable as a config's proxies.

    chosen maps each group letter to its proxy name.
    """
    return json.dumps([asdict(s) for s in canonical_specs(chosen, specs)], indent=2) + "\n"
