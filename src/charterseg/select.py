"""Per-group proxy selection from forest importances.

Each CAMELS group contributes exactly one proxy to the final tree: the
group's candidate with the highest %IncMSE, ties resolved by spec order.
Groups with a single candidate pass it through unconditionally.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

from .errors import ConfigError, echo
from .forest import ImportanceReport
from .rescale import DEFAULT_PROXY_SPECS, GROUPS, ProxySpec


def select_proxies(importance: ImportanceReport,
                   specs=DEFAULT_PROXY_SPECS) -> dict[str, str]:
    """Pick each group's highest-importance candidate.

    Returns group letter -> proxy name in C, A, M, E, L, S order. Ties go
    to the spec listed first. Raises ConfigError when a spec is missing from
    the importance table.
    """
    scores = importance.by_name()
    missing = [s.name for s in specs if s.name not in scores]
    if missing:
        raise ConfigError(f"no importance for {echo(missing)}")
    best: dict[str, str] = {}
    for s in specs:
        if s.group not in best or scores[s.name] > scores[best[s.group]]:
            best[s.group] = s.name
    return {g: best[g] for g in GROUPS if g in best}


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
            raise ConfigError(f"unknown proxy {echo(name)} for group {group!r}")
        spec = by_name[name]
        if spec.group != group:
            raise ConfigError(f"proxy {echo(name)} belongs to group {spec.group!r}, not {group!r}")
        out.append(replace(spec, name=group))
    if not out:
        raise ConfigError("no groups chosen")
    return tuple(out)


def selection_to_spec_fragment(chosen: dict[str, str], specs=DEFAULT_PROXY_SPECS) -> str:
    """JSON proxy-spec list for the chosen proxies, loadable as a config's proxies.

    chosen maps each group letter to its proxy name.
    """
    return json.dumps([asdict(s) for s in canonical_specs(chosen, specs)], indent=2) + "\n"
