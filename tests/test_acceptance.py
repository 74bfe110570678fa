"""Acceptance suite: ten release criteria, one test and one verdict line each.

Run with -s (or read the -v report) to see the per-criterion lines. Every
tolerance is pinned here; the statistical criteria run over fixed seed
ranges so the counts are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.special

from charterseg.analysis import alignment_verdicts, extreme_leaves
from charterseg.cli import main
from charterseg.forest import ForestParams, ImportanceReport, grow_forest, permutation_importance
from charterseg.rescale import ScoredMatrix, quantile_rescale, threshold_rescale
from charterseg.seeding import derive_seed
from charterseg.select import select_proxies
from charterseg.stats import _kolmogorov_sf, ks_two_sample
from charterseg.synthetic import generate_synthetic_panel, planted_matrix
from charterseg.tree import TreeParams, best_split, cv_prune, grow
import helpers
from helpers import Internal, Leaf, brute_force_best_split, brute_force_ks_d, random_matrix
from test_study_cli import bundle_digests, fast_config, synth_panel_csv


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL  {title}")
        raise
    print(f"criterion {number:02d}: PASS  {title}")


def plain_matrix(X, y, names=None) -> ScoredMatrix:
    names = names or tuple(f"f{j}" for j in range(X.shape[1]))
    return ScoredMatrix(tuple(names), np.asarray(X, float), np.asarray(y, float))


def test_criterion_01_split_oracle_equivalence():
    """best_split == brute force on 100 random matrices, gain to 1e-9 rel."""
    with criterion(1, "split oracle equivalence (100 matrices, < 60 s)"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for _ in range(100):
            matrix = random_matrix(rng, tie_heavy=bool(rng.random() < 0.4))
            X, y = matrix.scores, matrix.response
            min_leaf = int(rng.choice([1, 2, 5, 20]))
            ours = best_split(X, y, min_leaf)
            ref = brute_force_best_split(X, y, min_leaf)
            if ref is None:
                assert ours is None
                continue
            assert ours is not None
            rule, gain = ours
            f, thr, ref_gain = ref
            assert rule.feature == f
            assert rule.threshold == thr
            assert gain == pytest.approx(ref_gain, rel=1e-9)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_sse_decomposition(three_split_spec):
    """n/mean/SSE identity at every internal node of every grown tree."""
    with criterion(2, "SSE decomposition identity (1e-9 relative)"):
        def check(node):
            if isinstance(node, Leaf):
                return 0
            l, r = node.left, node.right
            assert node.n == l.n + r.n
            merged = (l.n * l.mean + r.n * r.mean) / node.n
            assert node.mean == pytest.approx(merged, rel=1e-9, abs=1e-12)
            gap = l.mean - r.mean
            expect = l.sse + r.sse + l.n * r.n / node.n * gap * gap
            assert node.sse == pytest.approx(expect, rel=1e-9, abs=1e-9)
            return 1 + check(l) + check(r)

        rng = np.random.default_rng(77)
        internal_nodes = 0
        for _ in range(30):
            tree = grow(random_matrix(rng), TreeParams(min_leaf=5))
            internal_nodes += check(helpers.root(tree))
        for seed in range(5):
            panel = generate_synthetic_panel(three_split_spec, n=400,
                                             noise_sigma=0.01, seed=seed)
            tree = grow(planted_matrix(panel, three_split_spec),
                        TreeParams(min_leaf=30))
            internal_nodes += check(helpers.root(tree))
        assert internal_nodes > 100


def _matches_planted(tree) -> bool:
    """Exact planted topology, thresholds within half the 0.25 grid step."""
    root = helpers.root(tree)
    names = tree.feature_names
    if not isinstance(root, Internal):
        return False
    want = {
        id(root): ("capital_ratio", 2.875),
        id(root.left): ("loans_to_deposits", 2.125),
        id(root.right): ("roa", 3.625),
    }
    for node in (root, root.left, root.right):
        if not isinstance(node, Internal):
            return False
        name, thr = want[id(node)]
        if names[node.split.feature] != name or abs(node.split.threshold - thr) > 0.125:
            return False
    return all(isinstance(c, Leaf) for c in (root.left.left, root.left.right,
                                             root.right.left, root.right.right))


def test_criterion_03_planted_recovery(three_split_spec):
    """grow + cv_prune finds the 3-split planted tree in >= 18/20 seeds."""
    # Leaf means 0.90/1.00 and 1.10/1.25: the smallest sibling gap is 0.10,
    # so the planted noise is sigma = 5% of that gap.
    with criterion(3, "planted-tree recovery (>= 18/20 seeds, < 2 min)"):
        start = time.monotonic()
        wins = 0
        for seed in range(20):
            panel = generate_synthetic_panel(three_split_spec, n=500,
                                             noise_sigma=0.005, seed=seed)
            matrix = planted_matrix(panel, three_split_spec)
            fitted, _ = cv_prune(matrix, TreeParams(min_leaf=30), k=10,
                                 rule="one_se", seed=derive_seed(seed, 1))
            wins += _matches_planted(fitted)
        elapsed = time.monotonic() - start
        assert wins >= 18, f"recovered {wins}/20"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_04_pruning_efficacy(three_split_spec):
    """Pure noise prunes to one leaf; pruning never hurts holdout MSE much."""
    with criterion(4, "pruning efficacy (noise and holdout, >= 16/20 each)"):
        singles = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.uniform(1.0, 5.0, size=(300, 3))
            y = rng.normal(0.0, 1.0, size=300)
            fitted, _ = cv_prune(plain_matrix(X, y), TreeParams(min_leaf=30),
                                 k=10, rule="one_se", seed=derive_seed(seed, 2))
            singles += fitted.n_leaves == 1
        assert singles >= 16, f"single leaf in {singles}/20 noise fits"

        not_worse = 0
        for seed in range(20):
            panel = generate_synthetic_panel(three_split_spec, n=500,
                                             noise_sigma=0.005, seed=100 + seed)
            matrix = planted_matrix(panel, three_split_spec)
            perm = np.random.default_rng(derive_seed(seed, 3)).permutation(500)
            train = matrix.take(perm[:350])
            hold_x = matrix.scores[perm[350:]]
            hold_y = matrix.response[perm[350:]]
            unpruned = grow(train, TreeParams(min_leaf=30))
            pruned, _ = cv_prune(train, TreeParams(min_leaf=30), k=10,
                                 rule="one_se", seed=derive_seed(seed, 4))
            mse_u = float(np.mean((unpruned.predict_batch(hold_x) - hold_y) ** 2))
            mse_p = float(np.mean((pruned.predict_batch(hold_x) - hold_y) ** 2))
            not_worse += mse_p <= mse_u
        assert not_worse >= 16, f"pruned <= unpruned in {not_worse}/20 fits"


def test_criterion_05_forest_importance_sanity():
    """Signal tops %IncMSE in >= 19/20 seeds; noise stays within +-2 pp."""
    # 500 trees on a planted step in the signal column plus three noise
    # columns. min_leaf 60 on n = 2000 with mtry 2 keeps the trees from
    # modelling pure noise, which would otherwise inflate the noise
    # importances past the band.
    with criterion(5, "forest importance sanity (500 trees, noise within 2 pp)"):
        n = 2000
        tops = 0
        worst_noise = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            signal = rng.uniform(1.0, 5.0, size=n)
            y = np.where(signal < 3.0, 0.9, 1.2) + rng.normal(0.0, 0.05, n)
            X = np.column_stack([signal] + [rng.uniform(1.0, 5.0, size=n)
                                            for _ in range(3)])
            matrix = plain_matrix(X, y, ("signal", "noise0", "noise1", "noise2"))
            forest = grow_forest(matrix, ForestParams(500, 2, 60), seed=derive_seed(seed, 5))
            report = permutation_importance(forest, matrix, seed=derive_seed(seed, 6))
            tops += int(np.argmax(report.pct_inc_mse)) == 0
            worst_noise = max(worst_noise, float(np.max(np.abs(report.pct_inc_mse[1:]))))
            assert np.all(np.abs(report.pct_inc_mse[1:]) <= 2.0), (
                f"seed {seed}: noise importances {report.pct_inc_mse[1:]}")
        assert tops >= 19, f"signal on top in {tops}/20 seeds"
        print(f"  [signal top {tops}/20, worst noise {worst_noise:.2f} pp]", end=" ")


def test_criterion_06_reference_importance_selection():
    """The reference importance values pick the canonical six proxies."""
    with criterion(6, "reference importances select the canonical six"):
        reference = {
            "Capt": 46.6, "Capt_x": 12.0,
            "Asts": 24.5, "Asts_x": 23.4, "Asts_px": 22.7, "Asts_p": 20.1,
            "Mang": 21.6, "Mang_p": 10.0, "Mang_pp": 9.0, "Mang_px": 8.0,
            "Ergs_x": 42.6, "Ergs": 15.0, "Ergs_p": 14.0, "Ergs_px": 13.0,
            "Liqt_x": 22.1, "Liqt": 12.0, "Liqt_p": 11.0,
            "Syst": 5.0,
        }
        names = tuple(reference)
        pct = np.array([reference[k] for k in names])
        report = ImportanceReport(names, pct, pct / 100.0, np.zeros(len(names)), 1.0)
        chosen = select_proxies(report)
        assert chosen == {"C": "Capt", "A": "Asts", "M": "Mang",
                          "E": "Ergs_x", "L": "Liqt_x", "S": "Syst"}


def test_criterion_07_reference_tree_fixture(reference_tree):
    """The six-leaf reference tree reproduces its expected verdict row."""
    with criterion(7, "reference tree: extreme leaves and verdict row"):
        qmin, qmax = extreme_leaves(reference_tree)
        assert qmin.mean == 0.887
        assert qmax.mean == 1.079
        assert [(s.name, s.threshold, s.side) for s in qmin.steps] == [
            ("C", 1.986, "lt"), ("S", 3.140, "lt"),
            ("L", 2.446, "ge"), ("C", 1.650, "lt"),
        ]
        assert [(s.name, s.threshold, s.side) for s in qmax.steps] == [
            ("C", 1.986, "ge"), ("E", 1.869, "lt"),
        ]
        verdicts = alignment_verdicts(reference_tree, (qmin, qmax))
        assert {k: v.label for k, v in verdicts.items()} == {
            "C": "No", "A": "-", "M": "-", "E": "Yes", "L": "Yes", "S": "No",
        }


def test_criterion_08_ks_correctness():
    """Exact D on 1000 random pairs; pinned p-values; series to 1e-6."""
    with criterion(8, "KS statistic and p-value correctness"):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = rng.normal(size=int(rng.integers(1, 40)))
            b = rng.normal(loc=rng.normal() * 0.5, size=int(rng.integers(1, 40)))
            if rng.random() < 0.3:
                a, b = np.round(a, 1), np.round(b, 1)
            d, _ = ks_two_sample(a, b)
            assert d == brute_force_ks_d(a, b)

        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)
        _, p = ks_two_sample(np.arange(20.0), np.arange(20.0) + 100.0)
        assert p < 0.001

        for lam in np.arange(0.05, 5.0, 0.01):
            ref = float(scipy.special.kolmogorov(lam))
            assert abs(_kolmogorov_sf(float(lam)) - ref) <= 1e-6


def test_criterion_09_rescaling_properties():
    """Monotone, in [1, 5], u -> 2.0, worked examples exact to 1e-12."""
    with criterion(9, "rescaling monotonicity, range, and worked examples"):
        rng = np.random.default_rng(9)
        for _ in range(50):
            values = np.sort(rng.normal(size=int(rng.integers(4, 60))))
            u = float(np.quantile(values, rng.uniform(0.2, 0.8)))
            for direction, sign in (("increasing", 1.0), ("decreasing", -1.0)):
                for scores in (quantile_rescale(values, direction),
                               threshold_rescale(values, direction, u)):
                    assert scores.min() >= 1.0 and scores.max() <= 5.0
                    assert np.all(sign * np.diff(scores) >= -1e-12)

        exactly_u = np.array([0.5, 1.0, 1.5])
        assert threshold_rescale(exactly_u, "increasing", 1.0)[1] == 2.0
        assert threshold_rescale(exactly_u, "decreasing", 1.0)[1] == 2.0

        got = quantile_rescale(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), "increasing")
        assert got == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0], abs=1e-12)
        got = threshold_rescale(np.array([0.02, 0.06, 0.10]), "decreasing", 0.06)
        assert got == pytest.approx([5.0, 2.0, 1.0], abs=1e-12)
        got = threshold_rescale(np.array([0.30, 0.01, -0.05]), "decreasing", 0.01)
        assert got == pytest.approx([1.0, 2.0, 5.0], abs=1e-12)


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Fixed-seed study bundles are byte-identical across runs and --jobs."""
    with criterion(10, "end-to-end determinism (reruns and --jobs 1 vs 8)"):
        csv_path = synth_panel_csv(tmp_path / "panel.csv")
        outs = [tmp_path / f"out_{tag}" for tag in ("a", "b", "j8")]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(fast_config(csv_path, outs[0])),
                            encoding="utf-8")
        for out, jobs in zip(outs, ("1", "1", "8")):
            rc = main(["study", "--config", str(cfg_path), "--out", str(out),
                       "--jobs", jobs])
            assert rc == 0
        digests = [bundle_digests(out) for out in outs]
        assert digests[0], "bundle came out empty"
        assert digests[0] == digests[1], "rerun differs"
        assert digests[0] == digests[2], "--jobs 8 differs from --jobs 1"


@pytest.mark.parametrize("extra, digest", [
    ({"rescale_scope": "full", "selection": {"mode": "rf", "forest_scope": "per_group"},
      "tree": {"min_leaf": 5, "cv_folds": 5, "prune_rule": "one_se"}},
     "cffdf662f5678a78c8dd0f60f52f3ae4266c6ec7783a990f64c3327ef394a2c0"),
    ({"selection": {"mode": "fixed"},
      "tree": {"min_leaf": 1, "max_depth": 8, "cv_folds": 5, "prune_rule": "min_cv"}},
     "a7a6855ccdf311eea51654529329dfb892d1fbdc34a33fa537adbe8088b29ba5"),
], ids=["rf_per_group_full_one_se", "fixed_deep"])
def test_bundle_bytes_are_pinned(tmp_path, extra, digest):
    """Small studies give the bundle bytes recorded when the digests were pinned.

    The digest is the sha256 of the JSON of bundle_digests (path -> file sha256).
    """
    csv_path = synth_panel_csv(tmp_path / "panel.csv")
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(fast_config(csv_path, out, **extra)), encoding="utf-8")
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256(json.dumps(bundle_digests(out)).encode()).hexdigest() == digest
