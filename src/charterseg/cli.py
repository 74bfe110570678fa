"""Command-line interface.

Subcommands: ingest (panel intake and summary statistics), select (the
study's proxy selection on the full panel, which grow goes on to use), grow
(one pruned tree on the full sample), study (the full multi-subsample
pipeline). Exit codes: 0 on success, 1 when a study or grow run ends degraded
(some subsample supports no tree), 2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import CONFIG_ENV_VAR, RunConfig, SubsampleSpec, load_config
from .errors import ChartersegError
from .panel import FullSample, compute_raw_proxies
from .select import selection_to_spec_fragment
from .study import (
    STUDY_OUTPUTS,
    load_configured_panel,
    refuse_existing_outputs,
    run_study,
    select_full_panel,
    summary_table,
    write_exclusions_table,
    write_importance_table,
    write_selection_table,
    write_study,
    write_summary_table,
)


# The files and directories each command writes into --out. A command refuses
# an --out that already holds one of them, so no output mixes two runs.
OUTPUTS = {
    "ingest": ("summary.csv", "exclusions.csv"),
    "select": ("selection.csv", "selected_proxies.json", "importance.csv"),
    "grow": STUDY_OUTPUTS,
    "study": STUDY_OUTPUTS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charterseg",
        description="Charter-value segmentation of bank panels with regression trees.",
    )
    # Flags a subcommand does not read are not defined for it, so argparse rejects them.
    parser.set_defaults(seed=None, min_leaf=None, trees=None, rescale_scope=None)
    flags = {
        "--seed": dict(type=int, help="override config seed"),
        "--jobs": dict(type=int, default=1, help="worker threads; results do not depend on this"),
        "--min-leaf": dict(type=int, help="override tree min_leaf"),
        "--trees": dict(type=int, help="override forest n_trees"),
        "--rescale-scope": dict(choices=("subsample", "full"),
                                help="override where score knots are computed"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, names in (
        ("ingest", "load the panel, report row counts, write summary statistics", ()),
        ("select", "pick one proxy per group on the full sample, as grow does",
         ("--seed", "--trees")),
        ("grow", "grow and prune a single tree on the full sample",
         ("--seed", "--min-leaf", "--trees", "--rescale-scope")),
        ("study", "run the full study over all configured subsamples", tuple(flags)),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR),
                       help=f"run config JSON (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--out", default=None,
                       help="override output directory; it must not hold this command's outputs")
        for flag in names:
            p.add_argument(flag, **flags[flag])
    return parser


def _load_run_config(args) -> RunConfig:
    if not args.config:
        raise ChartersegError(
            f"no config given: pass --config or set ${CONFIG_ENV_VAR}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.min_leaf is not None:
        cfg = replace(cfg, tree=replace(cfg.tree, min_leaf=args.min_leaf))
    if args.trees is not None:
        cfg = replace(cfg, forest=replace(cfg.forest, n_trees=args.trees))
    if args.rescale_scope is not None:
        cfg = replace(cfg, rescale_scope=args.rescale_scope)
    return cfg


def cmd_ingest(cfg: RunConfig) -> int:
    panel = load_configured_panel(cfg)
    frame = compute_raw_proxies(panel)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_table(out / "summary.csv", summary_table(frame))
    write_exclusions_table(out / "exclusions.csv", panel.exclusions + frame.exclusions)
    print(f"panel: {len(panel)} rows loaded, window {panel.window[0]}-{panel.window[1]}")
    print(f"usable after ratio checks: {len(frame)} "
          f"(excluded: {len(panel.exclusions) + len(frame.exclusions)})")
    print(f"summary statistics: {out / 'summary.csv'}")
    return 0


def cmd_select(cfg: RunConfig) -> int:
    chosen, importance = select_full_panel(cfg, load_configured_panel(cfg))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_selection_table(out / "selection.csv", chosen.items())
    (out / "selected_proxies.json").write_text(
        selection_to_spec_fragment(chosen, cfg.proxies), encoding="utf-8")
    scores = {}
    if importance is None:
        print("selection: fixed")
    else:
        write_importance_table(out / "importance.csv", importance)
        scores = importance.by_name()
        oob = "" if math.isnan(importance.oob_mse) else f", OOB MSE {importance.oob_mse:.6f}"
        print(f"forest: {cfg.forest.n_trees} trees ({cfg.selection.forest_scope}){oob}")
    for group, name in chosen.items():
        print(f"  {group}: {name}" + (f" ({scores[name]:.1f}% IncMSE)" if scores else ""))
    print(f"selection written to {out}")
    return 0


def _print_study_summary(result) -> None:
    factor_order = result.factor_order
    name_width = max(len(r.name) for r in result.results)
    header = "subsample".ljust(name_width) + "  status   " + "  ".join(
        f"{f:>5}" for f in factor_order)
    print(header)
    for r in result.results:
        verdicts = dict(r.verdicts)
        cells = "  ".join(f"{verdicts.get(f, ''):>5}" for f in factor_order)
        print(f"{r.name.ljust(name_width)}  {r.status:<8} {cells}")


def cmd_grow(cfg: RunConfig) -> int:
    cfg = replace(cfg, subsamples=(SubsampleSpec("full", FullSample()),))
    result = run_study(cfg)
    write_study(result, cfg.out)
    r = result.results[0]
    if r.status != "ok":
        print(f"no tree: {r.reason}", file=sys.stderr)
        return 1
    print(f"tree on {r.n_rows} rows: {r.tree.n_leaves} leaves "
          f"(alpha {r.trace.chosen_alpha:.6g})")
    print(f"Q^Min {r.qmin.mean:.3f} via {r.qmin.describe()}")
    print(f"Q^Max {r.qmax.mean:.3f} via {r.qmax.describe()}")
    print(f"wrote {Path(cfg.out) / 'trees'} and {Path(cfg.out) / 'report.md'}")
    return 0


def cmd_study(cfg: RunConfig, jobs: int) -> int:
    result = run_study(cfg, jobs=jobs)
    write_study(result, cfg.out)
    _print_study_summary(result)
    print(f"bundle written to {cfg.out}")
    return 1 if result.degraded else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_run_config(args)
        refuse_existing_outputs(cfg.out, OUTPUTS[args.command])
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "select":
            return cmd_select(cfg)
        if args.command == "grow":
            return cmd_grow(cfg)
        if args.command == "study":
            return cmd_study(cfg, args.jobs)
        raise ChartersegError(f"unknown command {args.command!r}")
    except (ChartersegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
