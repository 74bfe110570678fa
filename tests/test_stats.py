"""KS and Pearson tests against brute-force and scipy oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from charterseg.errors import DegenerateInputError
from charterseg.stats import ks_two_sample, pearson
from helpers import brute_force_ks_d


def test_ks_identical_samples():
    d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_samples():
    d, _ = ks_two_sample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert d == 1.0


def test_ks_full_separation_is_significant():
    a = np.arange(20, dtype=float)
    b = np.arange(20, dtype=float) + 100.0
    d, p = ks_two_sample(a, b)
    assert d == 1.0
    assert p < 0.001


def test_ks_d_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(300):
        na = int(rng.integers(1, 40))
        nb = int(rng.integers(1, 40))
        a = rng.normal(size=na)
        b = rng.normal(size=nb) + rng.normal() * 0.5
        if rng.random() < 0.3:
            # Force ties across and within the samples.
            a = np.round(a, 1)
            b = np.round(b, 1)
        d, _ = ks_two_sample(a, b)
        assert d == pytest.approx(brute_force_ks_d(a, b), abs=1e-12)


def test_ks_p_matches_scipy_kolmogorov():
    # scipy.special.kolmogorov is the same asymptotic series; agreement
    # must be far tighter than the series truncation tolerance.
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(10, 60)))
        b = rng.normal(size=int(rng.integers(10, 60))) + 0.4
        d, p = ks_two_sample(a, b)
        ne = a.size * b.size / (a.size + b.size)
        lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
        assert p == pytest.approx(float(scipy.special.kolmogorov(lam)), abs=1e-6)


def test_ks_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=25)
    b = rng.normal(size=31)
    assert ks_two_sample(a, b) == ks_two_sample(b, a)


def test_ks_rejects_bad_samples():
    with pytest.raises(DegenerateInputError):
        ks_two_sample([], [1.0])
    with pytest.raises(DegenerateInputError):
        ks_two_sample([1.0], [])
    with pytest.raises(DegenerateInputError):
        ks_two_sample([1.0, np.nan], [1.0])


def test_pearson_hand_computed():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 1.0, 4.0, 3.0, 5.0]
    # r via the definition, worked by hand: cov = 8, sx2 = sy2 = 10.
    r, p = pearson(x, y)
    assert r == pytest.approx(0.8, abs=1e-12)
    t = 0.8 * math.sqrt(3 / (1 - 0.64))
    assert p == 2 * scipy.stats.t.sf(t, 3)


def test_pearson_p_equals_scipy_t_sf():
    # stdtr(df, -|t|) is the routine behind scipy.stats.t.sf, so the two
    # must agree bit for bit; bundles write p-values with repr.
    rng = np.random.default_rng(29)
    for df in [*range(1, 400), 1000, 5000, 100_000]:
        n = df + 2
        x = rng.normal(size=n)
        y = rng.normal(size=n) * 0.3 + x * rng.choice([0.0, 0.05, 1.0])
        r, p = pearson(x, y)
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        expected = min(1.0, 2.0 * float(scipy.stats.t.sf(abs(t), n - 2)))
        assert p == expected, (df, r, p, expected)


def test_pearson_perfect_line():
    x = np.arange(10.0)
    r, p = pearson(x, 2.0 * x + 1.0)
    assert r == 1.0
    assert p == 0.0
    r, p = pearson(x, -0.5 * x + 3.0)
    assert r == -1.0
    assert p == 0.0


def test_pearson_matches_scipy():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(5, 80))
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        r, p = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(23)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    r0, p0 = pearson(x, y)
    r1, p1 = pearson(3.0 * x + 7.0, 0.5 * y - 2.0)
    assert r1 == pytest.approx(r0, abs=1e-12)
    assert p1 == pytest.approx(p0, abs=1e-12)
    r2, _ = pearson(-x, y)
    assert r2 == pytest.approx(-r0, abs=1e-12)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]])
