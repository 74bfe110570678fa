"""Rescaling raw ratios onto a one-to-five supervisory risk scale.

Two modes. Quantile mode pins the in-sample minimum, quartiles, and maximum
to scores 1..5 and interpolates linearly inside each piece. Threshold mode
pins a regulatory benchmark u to score 2: the safe side of u spans [1, 2]
and the risky side stretches over (2, 5] so that breaching the benchmark is
visibly worse than any safe value. For ratios where risk falls as the raw
value rises (capital, ROA, ...) the orientation is reversed, so score 1 is
always the safest observation and 5 the riskiest.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import panel as panel_mod
from .errors import ConfigError, DegenerateInputError, EmptySubsampleError, SchemaError, echo
from .panel import Exclusion, ProxyFrame, row_ids

INCREASING = "increasing"  # raw value up -> risk up
DECREASING = "decreasing"  # raw value up -> risk down
QUANTILE = "quantile"
THRESHOLD = "threshold"

GROUPS = ("C", "A", "M", "E", "L", "S")

# Largest |threshold|. For u and raw values within it, u - lo, hi - u and
# 3 * (v - u) stay below 3/4 of the largest float, so no score overflows.
THRESHOLD_BOUND = sys.float_info.max / 8


def _check_threshold(u: float, where: str = "") -> None:
    if not abs(u) <= THRESHOLD_BOUND:  # NaN fails too
        raise ConfigError(f"{where}threshold must lie within +-{THRESHOLD_BOUND:.6g}, "
                          f"got {echo(u)}")


@dataclass(frozen=True)
class ProxySpec:
    """How one raw ratio becomes a scored risk factor."""

    name: str
    group: str
    raw_field: str
    direction: str
    mode: str
    threshold: Optional[float] = None

    def __post_init__(self):
        name = echo(self.name)
        if not self.name:  # it would head an unnamed score column and report line
            raise ConfigError(f"proxy name {name} is empty; it names a score column and "
                              "the report's lines")
        if not self.name.isprintable():  # a line break would start a new report line
            raise ConfigError(f"proxy name {name} holds a line break, tab or other "
                              "unprintable character")
        if self.group not in GROUPS:
            raise ConfigError(f"{name}: group must be one of {GROUPS}, got {echo(self.group)}")
        if self.direction not in (INCREASING, DECREASING):
            raise ConfigError(f"{name}: bad direction {echo(self.direction)}")
        if self.mode not in (QUANTILE, THRESHOLD):
            raise ConfigError(f"{name}: bad mode {echo(self.mode)}")
        if self.mode == THRESHOLD and self.threshold is None:
            raise ConfigError(f"{name}: threshold mode needs a threshold value")
        if self.mode == QUANTILE and self.threshold is not None:
            raise ConfigError(f"{name}: quantile mode takes no threshold")
        if self.threshold is not None:
            _check_threshold(self.threshold, f"{name}: ")
        if self.raw_field not in panel_mod.PROXY_FIELDS:
            raise SchemaError(f"{name}: unknown raw field {echo(self.raw_field)}")


# Default proxy catalog. Benchmarks: 6% capital, 1.5% allowances, 1%
# provisions, 0.7 cost/income, 1% ROA, 15% ROE, 0.8 loans/deposits.
DEFAULT_PROXY_SPECS: tuple[ProxySpec, ...] = (
    ProxySpec("Capt", "C", "capital_ratio", DECREASING, QUANTILE),
    ProxySpec("Capt_x", "C", "capital_ratio", DECREASING, THRESHOLD, 0.06),
    ProxySpec("Asts", "A", "allowances_to_loans", INCREASING, QUANTILE),
    ProxySpec("Asts_x", "A", "allowances_to_loans", INCREASING, THRESHOLD, 0.015),
    ProxySpec("Asts_p", "A", "provisions_to_loans", INCREASING, QUANTILE),
    ProxySpec("Asts_px", "A", "provisions_to_loans", INCREASING, THRESHOLD, 0.01),
    ProxySpec("Mang", "M", "growth_gap", DECREASING, QUANTILE),
    ProxySpec("Mang_p", "M", "cost_income", INCREASING, QUANTILE),
    ProxySpec("Mang_pp", "M", "expense_to_assets", INCREASING, QUANTILE),
    ProxySpec("Mang_px", "M", "cost_income", INCREASING, THRESHOLD, 0.7),
    ProxySpec("Ergs", "E", "roa", DECREASING, QUANTILE),
    ProxySpec("Ergs_p", "E", "roe", DECREASING, QUANTILE),
    ProxySpec("Ergs_x", "E", "roa", DECREASING, THRESHOLD, 0.01),
    ProxySpec("Ergs_px", "E", "roe", DECREASING, THRESHOLD, 0.15),
    ProxySpec("Liqt", "L", "loans_to_deposits", INCREASING, QUANTILE),
    ProxySpec("Liqt_x", "L", "loans_to_deposits", INCREASING, THRESHOLD, 0.8),
    ProxySpec("Liqt_p", "L", "liquid_to_assets", DECREASING, QUANTILE),
    ProxySpec("Syst", "S", "beta", INCREASING, QUANTILE),
)


def _samples(values, reference) -> tuple[np.ndarray, np.ndarray]:
    """The values to score, and the sample their knots come from."""
    v = np.asarray(values, dtype=float)
    ref = v if reference is None else np.asarray(reference, dtype=float)
    if v.size == 0 or ref.size == 0:
        raise DegenerateInputError("cannot rescale an empty column")
    if not np.isfinite(v).all() or not np.isfinite(ref).all():
        raise DegenerateInputError("cannot rescale non-finite values")
    if ref is not v and (v.min() < ref.min() or v.max() > ref.max()):
        raise DegenerateInputError("values fall outside the reference range")
    return v, ref


def _quantile_increasing(v: np.ndarray, knots: np.ndarray) -> np.ndarray:
    # Knots min, Q1, median, Q3, max of ref -> scores 1..5, linear inside each
    # piece. A value on a repeated knot takes the highest score touching it,
    # i.e. values inside a zero-width piece map to that piece's upper bound.
    if knots[0] == knots[4]:
        return np.full(v.shape, 3.0)
    idx = np.searchsorted(knots, v, side="right") - 1
    scores = np.full(v.shape, 5.0)
    inner = idx < 4
    i = idx[inner]
    width = knots[i + 1] - knots[i]
    base = (i + 1).astype(float)
    frac = np.where(width > 0, (v[inner] - knots[i]) / np.where(width > 0, width, 1.0), 1.0)
    scores[inner] = base + frac
    return scores


def _oriented(direction: str) -> float:
    """1.0 for an increasing column and -1.0 for a decreasing one, whose values
    are negated so that the highest score always marks the highest risk."""
    if direction == INCREASING:
        return 1.0
    if direction == DECREASING:
        return -1.0
    raise ConfigError(f"bad direction {echo(direction)}")


def quantile_rescale(values, direction: str, reference=None) -> np.ndarray:
    """Score a raw column through quartile knots onto [1, 5].

    Args:
        values: finite raw values to score.
        direction: "increasing" if risk grows with the raw value, else
            "decreasing" (orientation is reversed so high score = high risk).
        reference: finite raw values the knots come from, spanning every
            value; defaults to values itself.

    Returns:
        Array of scores in [1, 5]; a constant reference scores 3.0 everywhere.
    """
    v, ref = _samples(values, reference)
    sign = _oriented(direction)
    return _quantile_increasing(sign * v, np.quantile(sign * ref, [0.0, 0.25, 0.5, 0.75, 1.0]))


def _threshold_increasing(v: np.ndarray, u: float, ref: np.ndarray) -> np.ndarray:
    # Safe side [min(ref), u] -> [1, 2], risky side (u, max(ref)] -> (2, 5].
    lo, hi = float(ref.min()), float(ref.max())
    if lo == hi:
        return np.full(v.shape, 3.0)
    scores = np.empty(v.shape)
    safe = v <= u
    w_safe = u - lo
    scores[safe] = 1.0 + (v[safe] - lo) / w_safe if w_safe > 0 else 2.0
    risky = ~safe
    if risky.any():
        scores[risky] = 2.0 + 3.0 * (v[risky] - u) / (hi - u)
    return scores


def threshold_rescale(values, direction: str, u: float, reference=None) -> np.ndarray:
    """Score a raw column against a regulatory benchmark u.

    The safe side of u maps linearly onto [1, 2] with the benchmark itself
    at exactly 2.0; the risky side maps onto (2, 5] with the worst observed
    value at 5. A zero-width safe piece (sample edge equal to u) sends its
    values to 2.0; a constant column scores 3.0 everywhere. The extremes come
    from reference when given, which must span every value. |u| must not
    exceed THRESHOLD_BOUND.
    """
    _check_threshold(float(u))
    v, ref = _samples(values, reference)
    sign = _oriented(direction)
    return _threshold_increasing(sign * v, sign * float(u), sign * ref)


@dataclass(frozen=True, eq=False)
class ScoredMatrix:
    """Feature matrix of risk scores with the Tobin's Q response."""

    feature_names: tuple[str, ...]
    scores: np.ndarray  # (n, m)
    response: np.ndarray  # (n,)
    exclusions: tuple[Exclusion, ...] = field(default=(), kw_only=True)

    def __post_init__(self):
        n, m = self.scores.shape
        if m == 0:
            raise SchemaError("a scored matrix needs at least one feature column")
        if m != len(self.feature_names):
            raise SchemaError("feature_names and score columns disagree")
        if n != self.response.shape[0]:
            raise SchemaError("row count mismatch between scores and response")
        if not ((self.scores >= 1.0) & (self.scores <= 5.0)).all():  # NaN fails both
            raise DegenerateInputError("scores must lie within [1, 5]")
        if not np.isfinite(self.response).all():
            raise DegenerateInputError("response must be finite")

    @property
    def n_rows(self) -> int:
        return self.scores.shape[0]

    @property
    def n_features(self) -> int:
        return self.scores.shape[1]


def complete_rows(frame: ProxyFrame, specs, exclusions: list | None = None) -> np.ndarray:
    """Indices of the frame rows with a finite Q and every active raw field finite.

    When exclusions is given, each other row with a finite Q is logged there
    under the first active field it misses.
    """
    keep = np.isfinite(frame.q)
    for fname in dict.fromkeys(s.raw_field for s in specs):
        if fname not in frame.columns:
            raise SchemaError(f"raw field {echo(fname)} not in proxy frame")
        bad = ~np.isfinite(frame.columns[fname]) & keep
        if exclusions is not None:
            exclusions.extend(Exclusion(row_id, f"missing {fname}")
                              for row_id in row_ids(frame.rows[bad]))
        keep &= ~bad
    return np.flatnonzero(keep)


def build_scored_matrix(frame: ProxyFrame, specs,
                        reference: ProxyFrame | None = None) -> ScoredMatrix:
    """Assemble the scored feature matrix for a set of proxy specs.

    Rows of frame missing any active raw field (or Q) are excluded and logged
    on the returned matrix; inactive proxies never cost a row. Column j is
    quantile_rescale or threshold_rescale of spec j's raw field on the
    complete rows, with the complete rows of reference (default: frame) as
    the reference; their values must span those of frame's complete rows.
    """
    specs = tuple(specs)
    if not specs:
        raise ConfigError("need at least one proxy spec")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate proxy names in spec set: {echo(names)}")

    exclusions = list(frame.exclusions)
    idx = complete_rows(frame, specs, exclusions)
    if idx.size == 0:
        raise EmptySubsampleError("no rows left after per-proxy exclusions")
    ref_idx = None if reference is None else complete_rows(reference, specs)

    cols = []
    for s in specs:
        v = frame.columns[s.raw_field][idx]
        ref = None if ref_idx is None else reference.columns[s.raw_field][ref_idx]
        cols.append(quantile_rescale(v, s.direction, ref) if s.mode == QUANTILE
                    else threshold_rescale(v, s.direction, s.threshold, ref))

    return ScoredMatrix(
        feature_names=tuple(names),
        scores=np.column_stack(cols),
        response=frame.q[idx],
        exclusions=tuple(exclusions),
    )
