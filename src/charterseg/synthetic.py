"""Synthetic panels with planted tree structure, for validation.

A planted spec places a small decision tree over named raw proxy fields
whose values are drawn from score-range grids; each generated bank-year's
Tobin's Q is its planted leaf mean plus Gaussian noise. The balance-sheet
fields are reverse-engineered so the proxy ratios reproduce the planted
feature values, which lets the whole pipeline run end to end on data whose
true segmentation is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .errors import ConfigError, echo
from .panel import PANEL_DTYPE, PROXY_FIELDS, Panel, compute_raw_proxies
from .rescale import ScoredMatrix
from .seeding import make_rng

# Kept strictly inside [1, 5]: layered ratio reconstruction can be an ulp
# off, and scores must never leave the scale.
DEFAULT_GRID = tuple(np.linspace(1.25, 4.75, 15))

_COUNTRY_CYCLE = ("DE", "FR", "ES", "IT", "GR", "NL", "PT", "AT", "IE", "BE", "FI")
_YEARS = tuple(range(2005, 2017))

# Neutral raw values for fields not planted on.
_DEFAULTS = {
    "capital_ratio": 0.08,
    "allowances_to_loans": 0.02,
    "provisions_to_loans": 0.01,
    "growth_gap": 0.02,
    "cost_income": 0.6,
    "expense_to_assets": 0.02,
    "roa": 0.005,
    "roe": 0.08,
    "loans_to_deposits": 1.0,
    "liquid_to_assets": 0.25,
    "beta": 1.0,
}


@dataclass(frozen=True)
class PlantedLeaf:
    mean: float


@dataclass(frozen=True)
class PlantedSplit:
    feature: str
    threshold: float
    left: "PlantedNode"
    right: "PlantedNode"


PlantedNode = Union[PlantedLeaf, PlantedSplit]


@dataclass(frozen=True)
class PlantedTreeSpec:
    """A ground-truth tree over proxy fields plus each field's value grid."""

    root: PlantedNode
    grids: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def nodes(self) -> Iterator[PlantedNode]:
        """The planted nodes in preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, PlantedSplit):
                stack += node.right, node.left

    def feature_fields(self) -> tuple[str, ...]:
        """Planted fields in first-encounter preorder."""
        return tuple(dict.fromkeys(n.feature for n in self.nodes() if isinstance(n, PlantedSplit)))

    def grid_for(self, name: str) -> np.ndarray:
        return np.asarray(self.grids.get(name, DEFAULT_GRID), dtype=float)

    def validate(self) -> None:
        for name in self.feature_fields():
            if name not in PROXY_FIELDS:
                raise ConfigError(f"planted feature {echo(name)} is not a proxy field")
            g = self.grid_for(name)
            if g.size < 2 or (np.diff(g) <= 0).any():
                raise ConfigError(f"grid for {echo(name)} must be ascending with >= 2 points")
            if g.min() < 1.0 or g.max() > 5.0:
                raise ConfigError(f"grid for {echo(name)} must stay within [1, 5]")

    def route(self, values: dict[str, float]) -> float:
        node = self.root
        while isinstance(node, PlantedSplit):
            node = node.left if values[node.feature] < node.threshold else node.right
        return node.mean

    def leaf_means(self) -> tuple[float, ...]:
        """Leaf means, left to right."""
        return tuple(n.mean for n in self.nodes() if isinstance(n, PlantedLeaf))


def _realize_fields(feature_values: dict[str, np.ndarray],
                    total_assets: np.ndarray) -> dict[str, np.ndarray]:
    """Back out balance-sheet columns that reproduce the requested ratio columns."""
    v = dict(_DEFAULTS)
    v.update(feature_values)
    ta = total_assets
    deposits = ta / 2.0
    loans = v["loans_to_deposits"] * deposits
    expense = v["expense_to_assets"] * ta
    return {
        "equity": v["capital_ratio"] * ta,
        "total_assets": ta,
        "loans": loans,
        "deposits": deposits,
        "loan_loss_allowances": v["allowances_to_loans"] * loans,
        "loan_loss_provisions": v["provisions_to_loans"] * loans,
        "non_interest_expense": expense,
        "income": expense / v["cost_income"],
        "liquid_assets": v["liquid_to_assets"] * ta,
        "roa": v["roa"],
        "roe": v["roe"],
        "loan_growth": v["growth_gap"] + 0.02,
        "gdp_growth": 0.02,
        "beta": v["beta"],
    }


def generate_synthetic_panel(spec: PlantedTreeSpec, n: int, noise_sigma: float,
                             seed: int) -> Panel:
    """Draw a panel whose Tobin's Q follows the planted tree.

    Args:
        spec: planted tree and feature grids (values within the score range).
        n: number of bank-years, at least 60.
        noise_sigma: standard deviation of the Gaussian noise added to each
            row's leaf mean; 0 reproduces the means exactly.
        seed: generator seed; the same seed yields the identical panel.

    Returns:
        Panel of n rows. Q is carried by the market-value fields (nta = 1,
        bvl = 0, mve = response) so the response survives ratio computation
        bit for bit; the planted features are encoded in the balance-sheet
        ratios they name.
    """
    if n < 60:
        raise ConfigError(f"need n >= 60 synthetic rows, got {n}")
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be non-negative")
    spec.validate()
    rng = make_rng(seed)
    fields = spec.feature_fields()
    draws = {f: rng.choice(spec.grid_for(f), size=n) for f in fields}
    sizes = rng.choice(np.array([64.0, 128.0, 256.0, 512.0]), size=n)
    noise = rng.normal(0.0, noise_sigma, size=n) if noise_sigma > 0 else np.zeros(n)

    # Routing stays per row: the planted tree is a nested node structure.
    q = np.array([spec.route({f: draws[f][i] for f in fields}) for i in range(n)]) + noise
    rows = np.empty(n, PANEL_DTYPE)
    rows["bank_id"] = [f"B{i:05d}" for i in range(n)]
    rows["country"] = np.take(_COUNTRY_CYCLE, np.arange(n), mode="wrap")
    rows["year"] = np.take(_YEARS, np.arange(n), mode="wrap")
    rows["mve"], rows["bvl"], rows["nta"] = q, 0.0, 1.0
    for name, column in _realize_fields(draws, sizes).items():
        rows[name] = column
    return Panel(rows, provenance=f"synthetic:seed={seed}", window=(_YEARS[0], _YEARS[-1]))


def planted_matrix(panel: Panel, spec: PlantedTreeSpec) -> ScoredMatrix:
    """Matrix of the planted feature columns, bypassing rescaling.

    Planted values already live on the score scale, so the columns pass
    through unchanged (clipped by an ulp where ratio reconstruction drifts).
    """
    frame = compute_raw_proxies(panel)
    fields = spec.feature_fields()
    cols = [np.clip(frame.columns[f], 1.0, 5.0) for f in fields]
    return ScoredMatrix(
        feature_names=fields,
        scores=np.column_stack(cols),
        response=frame.q,
        exclusions=frame.exclusions,
    )
