"""End-to-end segmentation study over configured subsamples.

For each subsample: score the proxy catalog, pick one proxy per group by
forest importance (or take a fixed list), grow and CV-prune a tree on the
six scored factors, read off the extreme-Q leaves, alignment verdicts, and
the supporting statistical tables. Results land in a deterministic bundle:
report.md, tables/*.csv, trees/*.dot and trees/*.json. Subsamples run in config
order, each seeded by its index: the same master seed gives byte-identical output.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import (
    VERDICT_LABELS,
    ComparisonRow,
    LeafPath,
    alignment_verdicts,
    extreme_leaves,
    group_comparison,
    path_rows,
)
from .config import RunConfig, SubsampleSpec, _slug
from .errors import (
    ChartersegError,
    ConfigError,
    DegenerateInputError,
    EmptyModelError,
    EmptySubsampleError,
)
from .forest import ImportanceReport, grow_forest, permutation_importance
from .panel import (
    Panel,
    ProxyFrame,
    compute_raw_proxies,
    filter_subsample,
    load_panel,
    summary_stats,
)
from .rescale import GROUPS, ScoredMatrix, build_scored_matrix, complete_rows
from .seeding import derive_seed
from .select import canonical_specs, select_proxies
from .stats import pearson
from .tree import PruneTrace, RegressionTree, TreeParams, cv_prune, export_dot, export_json


@dataclass(frozen=True, eq=False)
class SubsampleResult:
    name: str
    status: str  # "ok" | "no_tree" | "empty"
    reason: str = ""
    n_rows: int = 0
    chosen: tuple[tuple[str, str], ...] = ()
    importance: Optional[ImportanceReport] = None
    tree: Optional[RegressionTree] = None
    trace: Optional[PruneTrace] = None
    qmin: Optional[LeafPath] = None
    qmax: Optional[LeafPath] = None
    verdicts: tuple = ()  # (factor, verdict label) pairs in factor order
    summary: tuple = ()  # (variable, SummaryStats) pairs
    correlations: tuple = ()  # (factor, r, p) triples
    comparison: Optional[tuple[ComparisonRow, ...]] = None
    exclusions: tuple = ()


@dataclass(frozen=True, eq=False)
class StudyResult:
    config: RunConfig
    results: tuple[SubsampleResult, ...]

    @property
    def degraded(self) -> bool:
        return any(r.status != "ok" for r in self.results)

    @property
    def factor_order(self) -> list[str]:
        """Verdict factors in first-seen order across the subsamples."""
        return list(dict.fromkeys(name for r in self.results for name, _ in r.verdicts))


def _run_selection(config: RunConfig, frame: ProxyFrame, reference: Optional[ProxyFrame],
                   seed: int):
    """Returns (group -> proxy in C, A, M, E, L, S order, ImportanceReport or None).

    RunConfig has already checked the proxy names and the fixed list.
    """
    specs = config.proxies
    if config.selection.mode == "fixed":
        group = {s.name: s.group for s in specs}
        chosen = {group[name]: name for name in config.selection.fixed}
        return {g: chosen[g] for g in GROUPS if g in chosen}, None

    # One joint forest over every candidate, or one forest per group over
    # that group's candidates only, each keyed by its group index.
    joint = config.selection.forest_scope == "joint"
    if joint:
        blocks = [((), specs)]
    else:
        present = [g for g in GROUPS if any(s.group == g for s in specs)]
        blocks = [((gi,), [s for s in specs if s.group == g]) for gi, g in enumerate(present)]
    reports = []
    for key, block in blocks:
        matrix = build_scored_matrix(frame, block, reference)
        forest = grow_forest(matrix, config.forest, seed=derive_seed(seed, 1, *key))
        reports.append(permutation_importance(forest, matrix, seed=derive_seed(seed, 2, *key)))
    # Per group there is no single forest, so the report carries no OOB MSE
    # (NaN), and each group's %IncMSE stays scaled by its own forest's OOB
    # MSE: importance_<slug>.csv mixes scales across groups.
    importance = ImportanceReport(
        tuple(n for r in reports for n in r.feature_names),
        np.concatenate([r.pct_inc_mse for r in reports]),
        np.concatenate([r.raw_delta for r in reports]),
        np.concatenate([r.stderr for r in reports]),
        reports[0].oob_mse if joint else float("nan"))
    return select_proxies(importance, specs), importance


def load_configured_panel(config: RunConfig) -> Panel:
    """The panel at config.data.path, read with the config's columns and window.

    Raises:
        ConfigError: the config names no data path.
    """
    if not config.data.path:
        raise ConfigError("config.data.path is required to read the panel")
    return load_panel(config.data.path, schema=config.data.columns, window=config.data.window)


def select_full_panel(config: RunConfig, panel: Panel):
    """The study's proxy selection on the whole panel, as _run_selection returns it.

    Uses the seed of subsample index 0, so it picks what grow picks, and what
    a study whose first subsample is the full sample picks.
    """
    return _run_selection(config, compute_raw_proxies(panel), None, derive_seed(config.seed, 0))


def summary_table(frame: ProxyFrame) -> tuple:
    """(variable, SummaryStats) for Q and every raw proxy with a finite value."""
    rows = []
    for name, values in [("q", frame.q), *frame.columns.items()]:
        values = values[np.isfinite(values)]
        if values.size == 0:
            continue
        rows.append((name, summary_stats(values)))
    return tuple(rows)


def _correlation_table(matrix: ScoredMatrix) -> tuple:
    rows = []
    for j, name in enumerate(matrix.feature_names):
        try:
            r, p = pearson(matrix.scores[:, j], matrix.response)
        except DegenerateInputError:
            continue
        rows.append((name, r, p))
    return tuple(rows)


def _comparison_table(matrix: ScoredMatrix, frame: ProxyFrame, specs,
                      qmin: LeafPath, qmax: LeafPath) -> tuple[ComparisonRow, ...]:
    idx = complete_rows(frame, specs)  # the frame rows behind the matrix rows
    lo_idx, hi_idx = idx[path_rows(matrix, qmin)], idx[path_rows(matrix, qmax)]

    raw = [("Q", frame.q, None)] + [(spec.name, frame.columns[spec.raw_field], spec.direction)
                                    for spec in specs]
    return group_comparison([(name, col[lo_idx], col[hi_idx], direction)
                             for name, col, direction in raw])


def _study_subsample(config: RunConfig, panel: Panel, reference: Optional[ProxyFrame],
                     sub: SubsampleSpec, seed: int) -> SubsampleResult:
    min_leaf = sub.min_leaf if sub.min_leaf is not None else config.tree.min_leaf
    try:
        sub_panel = filter_subsample(panel, sub.criterion)
        sub_frame = compute_raw_proxies(sub_panel)
    except (EmptySubsampleError, EmptyModelError) as exc:
        return SubsampleResult(sub.name, "empty", reason=str(exc))

    summary = summary_table(sub_frame)
    try:
        chosen, importance = _run_selection(config, sub_frame, reference, seed)
        six = canonical_specs(chosen, config.proxies)
        matrix = build_scored_matrix(sub_frame, six, reference)
    except (EmptySubsampleError, EmptyModelError) as exc:
        return SubsampleResult(sub.name, "no_tree", reason=str(exc), summary=summary,
                               exclusions=sub_frame.exclusions)

    chosen_pairs = tuple(chosen.items())
    n = matrix.n_rows
    if n < 2 * min_leaf or n < config.tree.cv_folds:
        reason = (f"{n} rows cannot support a split with min_leaf={min_leaf} "
                  f"and {config.tree.cv_folds}-fold CV")
        return SubsampleResult(sub.name, "no_tree", reason=reason, n_rows=n,
                               chosen=chosen_pairs, importance=importance,
                               summary=summary, exclusions=matrix.exclusions)

    params = TreeParams(min_leaf=min_leaf, max_depth=config.tree.max_depth)
    fitted, trace = cv_prune(matrix, params, k=config.tree.cv_folds,
                             rule=config.tree.prune_rule, seed=derive_seed(seed, 3))
    qmin, qmax = extreme_leaves(fitted)
    verdicts = alignment_verdicts(fitted, (qmin, qmax))
    verdict_pairs = tuple((name, VERDICT_LABELS[v]) for name, v in verdicts.items())
    comparison = None
    if fitted.n_leaves > 1:
        comparison = _comparison_table(matrix, sub_frame, six, qmin, qmax)
    return SubsampleResult(
        sub.name, "ok", n_rows=n, chosen=chosen_pairs, importance=importance,
        tree=fitted, trace=trace, qmin=qmin, qmax=qmax, verdicts=verdict_pairs,
        summary=summary, correlations=_correlation_table(matrix),
        comparison=comparison, exclusions=matrix.exclusions,
    )


def run_study(config: RunConfig, panel: Optional[Panel] = None) -> StudyResult:
    """Run the segmentation study on every configured subsample, in config order.

    Args:
        config: run configuration; config.data.path is read when no panel is
            passed in directly.
        panel: optional pre-loaded panel (tests, notebooks).

    Returns:
        StudyResult in configuration order; degraded is True when any
        subsample ended without a tree.

    Raises:
        ConfigError: no panel and no config.data.path, or a config fault found inside
            a subsample; it ends the run. Selection faults (mtry, proxy names,
            selection.fixed) and bad criterion values are raised when the config is built.
        EmptySubsampleError: the panel has no rows.
    """
    if panel is None:
        panel = load_configured_panel(config)
    if not len(panel.rows):
        raise EmptySubsampleError("panel has no rows")
    reference = compute_raw_proxies(panel) if config.rescale_scope == "full" else None

    results = []
    for i, sub in enumerate(config.subsamples):
        try:
            result = _study_subsample(config, panel, reference, sub, derive_seed(config.seed, i))
        except ConfigError:
            raise
        except ChartersegError as exc:
            result = SubsampleResult(sub.name, "no_tree", reason=str(exc))
        results.append(result)
    return StudyResult(config, tuple(results))


# What write_study puts in its output directory.
STUDY_OUTPUTS = ("report.md", "tables", "trees")


def refuse_existing_outputs(outdir, names) -> None:
    """Raise ConfigError when outdir already holds one of names, so two runs never mix."""
    for name in names:
        path = Path(outdir) / name
        if os.path.lexists(path):
            raise ConfigError(f"output {path} already exists; "
                              "remove it or choose another directory")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_summary_table(path, summary) -> None:
    """Summary statistics from summary_table, one row per variable."""
    _write_csv(path, ["variable", "n", "mean", "std", "min", "max", "std_defined"],
               [[name, s.n, _fmt(s.mean), _fmt(s.std), _fmt(s.min), _fmt(s.max),
                 int(s.std_defined)] for name, s in summary])


def write_exclusions_table(path, exclusions) -> None:
    _write_csv(path, ["row_id", "reason"], [[e.row_id, e.reason] for e in exclusions])


def write_importance_table(path, report: ImportanceReport) -> None:
    _write_csv(path, ["feature", "pct_inc_mse", "raw_delta", "stderr"],
               [[name, _fmt(report.pct_inc_mse[i]), _fmt(report.raw_delta[i]),
                 _fmt(report.stderr[i])] for i, name in enumerate(report.feature_names)])


def write_selection_table(path, chosen) -> None:
    """(group, proxy) pairs, one row each."""
    _write_csv(path, ["group", "proxy"], chosen)


def write_study(result: StudyResult, outdir) -> None:
    """Write the study bundle: report.md, tables/*.csv, trees/*.dot|.json.

    Raises:
        ConfigError: outdir already holds report.md, tables or trees.
    """
    refuse_existing_outputs(outdir, STUDY_OUTPUTS)
    out = Path(outdir)
    tables = out / "tables"
    trees = out / "trees"
    tables.mkdir(parents=True, exist_ok=True)
    trees.mkdir(parents=True, exist_ok=True)

    factor_order = result.factor_order
    _write_csv(tables / "verdicts.csv", ["subsample", "status"] + factor_order,
               [[r.name, r.status] + [dict(r.verdicts).get(f, "") for f in factor_order]
                for r in result.results])

    lines = ["# Charter-value segmentation report", ""]
    lines.append(f"- master seed: {result.config.seed}")
    lines.append(f"- rescale scope: {result.config.rescale_scope}")
    lines.append(f"- selection mode: {result.config.selection.mode}")
    lines.append(f"- prune rule: {result.config.tree.prune_rule} "
                 f"({result.config.tree.cv_folds}-fold CV)")
    lines.append("")

    for r in result.results:
        slug = _slug(r.name)
        lines.append(f"## {r.name}")
        lines.append("")
        if r.status != "ok":
            lines.append(f"- status: {r.status} ({r.reason})")

        if r.summary:
            write_summary_table(tables / f"summary_{slug}.csv", r.summary)
        if r.exclusions:
            write_exclusions_table(tables / f"exclusions_{slug}.csv", r.exclusions)
        if r.importance is not None:
            write_importance_table(tables / f"importance_{slug}.csv", r.importance)
        if r.chosen:
            lines.append("- selected: " + " ".join(f"{g}={n}" for g, n in r.chosen))
            write_selection_table(tables / f"selection_{slug}.csv", r.chosen)

        if r.status == "ok":
            lines.append(f"- rows: {r.n_rows} (excluded: {len(r.exclusions)})")
            lines.append(f"- tree: {r.tree.n_leaves} leaves, "
                         f"chosen alpha {r.trace.chosen_alpha!r}")
            lines.append(f"- Q^Min leaf: mean {r.qmin.mean:.3f}, n {r.qmin.n}, "
                         f"share {100 * r.qmin.share:.2f}% via {r.qmin.describe()}")
            lines.append(f"- Q^Max leaf: mean {r.qmax.mean:.3f}, n {r.qmax.n}, "
                         f"share {100 * r.qmax.share:.2f}% via {r.qmax.describe()}")
            lines.append("- verdicts: " + " | ".join(f"{f}: {v}" for f, v in r.verdicts))
            (trees / f"{slug}.dot").write_text(export_dot(r.tree), encoding="utf-8")
            (trees / f"{slug}.json").write_text(export_json(r.tree), encoding="utf-8")

            if r.correlations:
                _write_csv(tables / f"correlations_{slug}.csv", ["factor", "r", "p"],
                           [[name, _fmt(rv), _fmt(pv)] for name, rv, pv in r.correlations])
                lines.append("")
                lines.append("| factor | r | p |")
                lines.append("| --- | --- | --- |")
                for name, rv, pv in r.correlations:
                    lines.append(f"| {name} | {rv:.4f} | {pv:.4g} |")
            if r.comparison is not None:
                _write_csv(tables / f"comparison_{slug}.csv",
                           ["variable", "mean_qmin", "mean_qmax", "ks_d", "p_value",
                            "stars", "lower_risk"],
                           [[c.variable, _fmt(c.mean_min), _fmt(c.mean_max), _fmt(c.ks_d),
                             _fmt(c.p_value), c.stars, c.lower_risk or ""]
                            for c in r.comparison])
                lines.append("")
                lines.append("| variable | mean Q^Min | mean Q^Max | KS D | p | lower risk |")
                lines.append("| --- | --- | --- | --- | --- | --- |")
                for c in r.comparison:
                    lines.append(f"| {c.variable} | {c.mean_min:.4f} | {c.mean_max:.4f} "
                                 f"| {c.ks_d:.4f} | {c.p_value:.4g}{c.stars} "
                                 f"| {c.lower_risk or '-'} |")
        lines.append("")

    (out / "report.md").write_text("\n".join(lines), encoding="utf-8")
