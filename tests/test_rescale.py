"""Tests for the one-to-five risk rescalers and scored matrix assembly."""

from __future__ import annotations

import numpy as np
import pytest

from charterseg.config import DEFAULT_SUBSAMPLES
from charterseg.errors import ConfigError, DegenerateInputError, EmptySubsampleError, SchemaError
from charterseg.panel import (
    PIGS_COUNTRIES,
    Panel,
    compute_raw_proxies,
    filter_subsample,
    row_ids,
)
from charterseg.rescale import (
    DEFAULT_PROXY_SPECS,
    GROUPS,
    THRESHOLD_BOUND,
    ProxySpec,
    ScoredMatrix,
    build_scored_matrix,
    complete_rows,
    quantile_rescale,
    threshold_rescale,
)
from charterseg.select import canonical_specs

from helpers import bank_year, make_matrix, make_panel, reference_threshold_rescale


# -------------------------------------------------------- quantile_rescale


def test_quantile_on_knot_values():
    got = quantile_rescale([0.0, 1.0, 2.0, 3.0, 4.0], "increasing")
    assert np.array_equal(got, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_quantile_decreasing_mirrors():
    got = quantile_rescale([0.0, 1.0, 2.0, 3.0, 4.0], "decreasing")
    assert np.array_equal(got, [5.0, 4.0, 3.0, 2.0, 1.0])


def test_quantile_constant_column():
    got = quantile_rescale([2.5] * 7, "increasing")
    assert np.array_equal(got, np.full(7, 3.0))


def test_quantile_interpolates_between_knots():
    # knots: min 0, Q1 0.75, median 1.5, Q3 2.25, max 3 (linear interpolation)
    got = quantile_rescale([0.0, 1.0, 2.0, 3.0], "increasing")
    want = [1.0, 2.0 + (1.0 - 0.75) / 0.75, 3.0 + (2.0 - 1.5) / 0.75, 5.0]
    assert got == pytest.approx(want, rel=1e-12)


def test_quantile_monotone_and_in_range():
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = rng.normal(size=int(rng.integers(5, 60)))
        for direction in ("increasing", "decreasing"):
            s = quantile_rescale(v, direction)
            assert s.min() >= 1.0 and s.max() <= 5.0
            order = np.argsort(v, kind="stable")
            diffs = np.diff(s[order])
            assert np.all(diffs >= -1e-12) if direction == "increasing" \
                else np.all(diffs <= 1e-12)


def test_quantile_endpoints_hit_scale_ends():
    rng = np.random.default_rng(42)
    v = rng.uniform(10.0, 20.0, size=37)
    inc = quantile_rescale(v, "increasing")
    dec = quantile_rescale(v, "decreasing")
    assert inc[np.argmin(v)] == 1.0 and inc[np.argmax(v)] == 5.0
    assert dec[np.argmin(v)] == 5.0 and dec[np.argmax(v)] == 1.0


def test_quantile_permutation_equivariance():
    rng = np.random.default_rng(43)
    v = rng.normal(size=30)
    perm = rng.permutation(30)
    assert np.array_equal(quantile_rescale(v, "increasing")[perm],
                          quantile_rescale(v[perm], "increasing"))


def test_quantile_degenerate_knots_upper_bound():
    # four identical low values collapse the first three pieces; the repeated
    # knot value takes the top of its zero-width stack
    got = quantile_rescale([0.0, 0.0, 0.0, 0.0, 1.0], "increasing")
    assert got == pytest.approx([4.0, 4.0, 4.0, 4.0, 5.0], rel=1e-12)


def test_quantile_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        quantile_rescale([], "increasing")
    with pytest.raises(DegenerateInputError):
        quantile_rescale([1.0, float("nan")], "increasing")
    with pytest.raises(ConfigError):
        quantile_rescale([1.0, 2.0], "sideways")


def test_quantile_knots_from_reference():
    got = quantile_rescale([1.0, 3.0], "increasing", reference=[0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(got, [2.0, 4.0])
    got = quantile_rescale([1.0, 3.0], "decreasing", reference=[0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(got, [4.0, 2.0])


def test_rescalers_check_the_reference():
    with pytest.raises(DegenerateInputError, match="reference range"):
        quantile_rescale([5.0], "increasing", reference=[0.0, 4.0])
    with pytest.raises(DegenerateInputError, match="reference range"):
        threshold_rescale([-1.0], "increasing", 2.0, reference=[0.0, 4.0])
    with pytest.raises(DegenerateInputError, match="non-finite"):
        quantile_rescale([1.0], "increasing", reference=[0.0, float("nan")])
    with pytest.raises(DegenerateInputError, match="empty"):
        threshold_rescale([1.0], "decreasing", 2.0, reference=[])


# ------------------------------------------------------- threshold_rescale


def test_threshold_capital_example():
    got = threshold_rescale([0.02, 0.06, 0.10], "decreasing", 0.06)
    assert got == pytest.approx([5.0, 2.0, 1.0], abs=1e-12)


def test_threshold_roa_example():
    got = threshold_rescale([0.30, 0.01, -0.05], "decreasing", 0.01)
    assert got == pytest.approx([1.0, 2.0, 5.0], abs=1e-12)


def test_threshold_increasing_example():
    got = threshold_rescale([0.5, 0.8, 1.1], "increasing", 0.8)
    assert got == pytest.approx([1.0, 2.0, 5.0], abs=1e-12)


def test_threshold_value_at_u_is_two():
    for direction in ("increasing", "decreasing"):
        got = threshold_rescale([1.0, 2.0, 3.0], direction, 2.0)
        assert got[1] == 2.0


def test_threshold_all_safe_spans_one_two():
    got = threshold_rescale([1.0, 2.0, 3.0], "increasing", 3.0)
    assert got == pytest.approx([1.0, 1.5, 2.0], abs=1e-12)
    got = threshold_rescale([1.0, 2.0, 3.0], "decreasing", 1.0)
    assert got == pytest.approx([2.0, 1.5, 1.0], abs=1e-12)


def test_threshold_zero_width_safe_piece():
    got = threshold_rescale([3.0, 4.0, 5.0], "increasing", 3.0)
    assert got == pytest.approx([2.0, 3.5, 5.0], abs=1e-12)
    got = threshold_rescale([3.0, 4.0, 5.0], "decreasing", 5.0)
    assert got == pytest.approx([5.0, 3.5, 2.0], abs=1e-12)


def test_threshold_constant_column():
    got = threshold_rescale([0.07] * 5, "decreasing", 0.06)
    assert np.array_equal(got, np.full(5, 3.0))


def test_threshold_monotone_and_in_range():
    rng = np.random.default_rng(44)
    for _ in range(10):
        v = rng.normal(size=int(rng.integers(5, 60)))
        u = float(rng.normal())
        for direction in ("increasing", "decreasing"):
            s = threshold_rescale(v, direction, u)
            assert s.min() >= 1.0 - 1e-12 and s.max() <= 5.0 + 1e-12
            order = np.argsort(v, kind="stable")
            diffs = np.diff(s[order])
            assert np.all(diffs >= -1e-12) if direction == "increasing" \
                else np.all(diffs <= 1e-12)


def test_threshold_risky_side_above_two():
    rng = np.random.default_rng(45)
    v = rng.uniform(0.0, 0.2, size=50)
    u = 0.1
    s = threshold_rescale(v, "increasing", u)
    assert np.all(s[v > u] > 2.0)
    assert np.all(s[v <= u] <= 2.0)


def test_threshold_extremes_from_reference():
    got = threshold_rescale([0.06, 0.08], "decreasing", 0.06, reference=[0.02, 0.06, 0.10])
    assert got == pytest.approx([2.0, 1.5], abs=1e-12)


def test_threshold_matches_per_direction_reference():
    # Decreasing scores are the increasing scores of the negated inputs; the
    # oracle keeps the old separate formula for each direction.
    rng = np.random.default_rng(46)
    for case in range(400):
        n = int(rng.integers(1, 40))
        if case % 4 == 0:
            v = rng.integers(-3, 4, size=n).astype(float)  # ties and values on u
            u = float(rng.integers(-3, 4))
        else:
            v = rng.normal(size=n)
            u = float(rng.normal()) if case % 4 != 1 else float(v[0])
        reference = None
        if case % 2:
            reference = np.concatenate([v, rng.normal(scale=3.0, size=int(rng.integers(0, 5)))])
        for direction in ("increasing", "decreasing"):
            got = threshold_rescale(v, direction, u, reference=reference)
            want = reference_threshold_rescale(v, direction, u, reference=reference)
            assert np.array_equal(got, want), (case, direction)


@pytest.mark.parametrize("u", [-1e308, 1e308, THRESHOLD_BOUND * 1.0000001, float("inf"),
                               float("nan")])
def test_threshold_beyond_the_bound_is_rejected(u):
    # -1e308 used to score every value inf, with an overflow warning.
    with pytest.raises(ConfigError, match="threshold must lie within"):
        threshold_rescale([0.1, 0.2, 0.3], "increasing", u)
    with pytest.raises(ConfigError, match="'Capt_x': threshold must lie within"):
        ProxySpec("Capt_x", "C", "capital_ratio", "decreasing", "threshold", u)


def test_threshold_at_the_bound_scores_finite_values():
    v = [-THRESHOLD_BOUND, 0.0, THRESHOLD_BOUND]
    for direction in ("increasing", "decreasing"):
        for u in (-THRESHOLD_BOUND, THRESHOLD_BOUND):
            got = threshold_rescale(v, direction, u)
            assert ((got >= 1.0) & (got <= 5.0)).all(), (direction, u, got)


# --------------------------------------------------------------- ProxySpec


def test_proxy_spec_validation():
    with pytest.raises(ConfigError):
        ProxySpec("X", "C", "capital_ratio", "decreasing", "threshold")  # no u
    with pytest.raises(ConfigError):
        ProxySpec("X", "C", "capital_ratio", "decreasing", "quantile", 0.5)
    with pytest.raises(ConfigError):
        ProxySpec("X", "Z", "capital_ratio", "decreasing", "quantile")
    with pytest.raises(ConfigError):
        ProxySpec("X", "C", "capital_ratio", "up", "quantile")
    with pytest.raises(SchemaError):
        ProxySpec("X", "C", "equity_ratio", "decreasing", "quantile")


def test_default_specs_cover_groups():
    assert len(DEFAULT_PROXY_SPECS) == 18
    by_group = {}
    for s in DEFAULT_PROXY_SPECS:
        by_group.setdefault(s.group, []).append(s.name)
    assert {g: len(v) for g, v in by_group.items()} == \
        {"C": 2, "A": 4, "M": 4, "E": 4, "L": 3, "S": 1}


# ------------------------------------------------------------ ScoredMatrix


def test_scored_matrix_validates_range():
    with pytest.raises(DegenerateInputError):
        make_matrix([[0.5], [2.0]], np.ones(2))
    with pytest.raises(DegenerateInputError):
        make_matrix([[5.5], [2.0]], np.ones(2))


def test_scored_matrix_rejects_nan_scores():
    # NaN compares false with both bounds, so a min/max range check lets it through.
    with pytest.raises(DegenerateInputError, match=r"within \[1, 5\]"):
        make_matrix([[2.0], [np.nan]], np.ones(2))
    assert make_matrix(np.empty((0, 2)), np.ones(0)).n_rows == 0


def test_scored_matrix_validates_shapes():
    with pytest.raises(SchemaError):
        ScoredMatrix(("a", "b"), np.ones((2, 1)), np.ones(2))
    with pytest.raises(SchemaError):
        ScoredMatrix(("a",), np.ones((2, 1)), np.ones(3))
    with pytest.raises(TypeError):  # exclusions are keyword-only, so stray ids cannot land there
        ScoredMatrix(("a",), np.ones((2, 1)), np.ones(2), ("r0:0", "r1:0"))


# ------------------------------------------------------ build_scored_matrix


def ratio_panel(n=8):
    rows = []
    for i in range(n):
        rows.append(bank_year(
            bank_id=f"b{i}",
            equity=50.0 + 5.0 * i,
            total_assets=1000.0,
            loans=400.0 + 10.0 * i,
            deposits=600.0,
            mve=50.0 + 2.0 * i,
            roa=0.005 + 0.001 * i,
            beta=0.5 + 0.1 * i,
        ))
    return make_panel(rows)


def test_build_single_spec_composition():
    panel = ratio_panel()
    spec = ProxySpec("Capt", "C", "capital_ratio", "decreasing", "quantile")
    m = build_scored_matrix(compute_raw_proxies(panel), [spec])
    assert m.feature_names == ("Capt",)
    assert m.n_rows == 8

    raw = compute_raw_proxies(panel).columns["capital_ratio"]
    assert np.array_equal(m.scores[:, 0], quantile_rescale(raw, "decreasing"))


def test_build_canonical_six_columns():
    panel = ratio_panel()
    chosen = {"C": "Capt", "A": "Asts", "M": "Mang", "E": "Ergs_x",
              "L": "Liqt_x", "S": "Syst"}
    specs = canonical_specs(chosen)
    assert tuple(s.name for s in specs) == GROUPS
    # A and M raw fields are absent from the fixture; restrict to the rest
    usable = [s for s in specs if s.name in ("C", "E", "L", "S")]
    m = build_scored_matrix(compute_raw_proxies(panel), usable)
    assert m.feature_names == ("C", "E", "L", "S")
    assert m.n_rows == 8


def test_build_excludes_rows_missing_active_fields():
    rows = [bank_year(bank_id=f"b{i}", beta=0.8 + 0.1 * i) for i in range(6)]
    rows[3] = bank_year(bank_id="b3")  # beta left NaN
    panel = make_panel(rows)
    spec = ProxySpec("Syst", "S", "beta", "increasing", "quantile")
    frame = compute_raw_proxies(panel)
    m = build_scored_matrix(frame, [spec])
    assert m.n_rows == 5
    assert "b3:2008" not in row_ids(frame.rows[complete_rows(frame, [spec])])
    assert any(e.row_id == "b3:2008" and "beta" in e.reason for e in m.exclusions)


def test_complete_rows_needs_every_raw_field_in_the_frame():
    frame = compute_raw_proxies(make_panel([bank_year()]))
    del frame.columns["beta"]
    with pytest.raises(SchemaError, match="raw field 'beta' not in proxy frame"):
        complete_rows(frame, [ProxySpec("Syst", "S", "beta", "increasing", "quantile")])


def test_build_inactive_nan_fields_cost_nothing():
    # all rows miss roa, but only capital is active
    panel = make_panel([bank_year(bank_id=f"b{i}", equity=40.0 + i) for i in range(5)])
    spec = ProxySpec("Capt", "C", "capital_ratio", "decreasing", "quantile")
    assert build_scored_matrix(compute_raw_proxies(panel), [spec]).n_rows == 5


def test_build_empty_inputs():
    with pytest.raises(EmptySubsampleError):
        build_scored_matrix(compute_raw_proxies(Panel([])), [DEFAULT_PROXY_SPECS[0]])
    panel = make_panel([bank_year()])
    spec = ProxySpec("Syst", "S", "beta", "increasing", "quantile")
    with pytest.raises(EmptySubsampleError):
        build_scored_matrix(compute_raw_proxies(panel), [spec])  # every row misses beta


def test_build_rejects_bad_spec_sets():
    frame = compute_raw_proxies(ratio_panel())
    with pytest.raises(ConfigError):
        build_scored_matrix(frame, [])
    dup = [ProxySpec("Capt", "C", "capital_ratio", "decreasing", "quantile"),
           ProxySpec("Capt", "C", "capital_ratio", "decreasing", "quantile")]
    with pytest.raises(ConfigError):
        build_scored_matrix(frame, dup)


def test_build_scores_always_in_range():
    frame = compute_raw_proxies(ratio_panel())
    m = build_scored_matrix(frame, DEFAULT_PROXY_SPECS[:2] + DEFAULT_PROXY_SPECS[14:16])
    assert m.scores.min() >= 1.0
    assert m.scores.max() <= 5.0


def gappy_panel(seed: int, n: int = 300) -> Panel:
    """Bank-years over 2005-2016 in PIGS and other countries, with gaps.

    About one optional cell in twenty is blank, and a few rows carry zero
    deposits, so both ratio checks and per-proxy exclusions drop rows.
    """
    rng = np.random.default_rng(seed)
    countries = PIGS_COUNTRIES + ("DE", "FR", "IT", "NL")
    rows = []
    for i in range(n):
        ta = float(rng.uniform(200.0, 5000.0))
        loans = float(rng.uniform(0.3, 0.7)) * ta
        optional = {
            "loan_loss_allowances": float(rng.uniform(0.005, 0.03)) * loans,
            "loan_loss_provisions": float(rng.uniform(0.001, 0.02)) * loans,
            "non_interest_expense": float(rng.uniform(0.01, 0.03)) * ta,
            "income": float(rng.uniform(0.02, 0.05)) * ta,
            "liquid_assets": float(rng.uniform(0.1, 0.3)) * ta,
            "roa": float(rng.normal(0.008, 0.006)),
            "roe": float(rng.normal(0.10, 0.06)),
            "loan_growth": float(rng.normal(0.04, 0.05)),
            "gdp_growth": float(rng.normal(0.01, 0.02)),
            "beta": float(rng.uniform(0.4, 1.6)),
        }
        optional = {k: (float("nan") if rng.random() < 0.05 else v)
                    for k, v in optional.items()}
        rows.append(bank_year(
            bank_id=f"b{i // 12:03d}", country=countries[(i // 12) % len(countries)],
            year=2005 + i % 12, mve=float(rng.uniform(0.0, 0.3)) * ta, bvl=0.9 * ta,
            nta=ta, equity=float(rng.uniform(0.03, 0.12)) * ta, total_assets=ta,
            loans=loans, deposits=0.0 if i % 97 == 5 else float(rng.uniform(0.5, 0.8)) * ta,
            **optional))
    return Panel(rows, provenance="test", window=(2005, 2016))


SIX_SPECS = canonical_specs({"C": "Capt", "A": "Asts_px", "M": "Mang_p", "E": "Ergs_x",
                             "L": "Liqt", "S": "Syst"})


@pytest.mark.parametrize("specs", [DEFAULT_PROXY_SPECS, SIX_SPECS], ids=["catalog", "six"])
def test_reference_knots_match_full_panel_matrix(specs):
    # Scoring a subsample against the full panel's knots gives the rows of
    # the full-panel matrix that fall inside the subsample, bit for bit.
    panel = gappy_panel(seed=5)
    full_frame = compute_raw_proxies(panel)
    full = build_scored_matrix(full_frame, specs)
    full_ids = row_ids(full_frame.rows[complete_rows(full_frame, specs)])
    knots_moved = False
    for sub in DEFAULT_SUBSAMPLES:
        sub_panel = filter_subsample(panel, sub.criterion)
        sub_frame = compute_raw_proxies(sub_panel)
        got = build_scored_matrix(sub_frame, specs, full_frame)
        wanted = set(row_ids(sub_frame.rows))
        inside = [i for i, rid in enumerate(full_ids) if rid in wanted]
        got_ids = row_ids(sub_frame.rows[complete_rows(sub_frame, specs)])
        assert got_ids == tuple(full_ids[i] for i in inside), sub.name
        assert np.array_equal(got.scores, full.scores[inside]), sub.name
        assert np.array_equal(got.response, full.response[inside]), sub.name
        own = build_scored_matrix(sub_frame, specs)
        assert got.exclusions == own.exclusions, sub.name
        assert {e.row_id for e in got.exclusions} <= set(row_ids(sub_panel.rows))
        knots_moved |= not np.array_equal(got.scores, own.scores)
    assert knots_moved
    assert len(full.exclusions) > 0
