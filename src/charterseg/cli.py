"""Command-line interface.

Subcommands: ingest (panel intake and summary statistics), select (the
study's proxy selection on the full panel, which grow goes on to use), grow
(one pruned tree on the full sample), study (the full multi-subsample
pipeline). Exit codes: 0 on success, 1 when a study or grow run ends degraded
(some subsample supports no tree), 2 on configuration or input errors.

A CLI process leaves its live objects to the OS: `main` registers
`gc.freeze` to run at interpreter exit, so the final collections do not free
numpy's and scipy's object graphs one by one. Every file the CLI writes is
closed before `main` returns. Library callers see no change until their own
interpreter exits.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import CONFIG_ENV_VAR, RunConfig, SubsampleSpec, load_config
from .errors import ChartersegError, ConfigError
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charterseg",
        description="Charter-value segmentation of bank panels with regression trees.",
    )
    # Flags a subcommand does not read are not defined for it, so argparse rejects them.
    parser.set_defaults(seed=None, min_leaf=None, trees=None, rescale_scope=None)
    flags = {
        "--seed": dict(type=int, help="override config seed"),
        "--jobs": dict(type=int, default=1, help="no effect: subsamples run in turn"),
        "--min-leaf": dict(type=int, help="override tree min_leaf"),
        "--trees": dict(type=int, help="override forest n_trees"),
        "--rescale-scope": dict(choices=("subsample", "full"),
                                help="override where score knots are computed"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    # One row per command: its name, runner, help, flags, and the files and
    # directories it writes into --out. A command refuses an --out that already
    # holds one of its outputs, so no output mixes two runs.
    for name, run, help_text, names, outputs in (
        ("ingest", cmd_ingest, "load the panel, report row counts, write summary statistics",
         (), ("summary.csv", "exclusions.csv")),
        ("select", cmd_select, "pick one proxy per group on the full sample, as grow does",
         ("--seed", "--trees"), ("selection.csv", "selected_proxies.json", "importance.csv")),
        ("grow", cmd_grow, "grow and prune a single tree on the full sample",
         ("--seed", "--min-leaf", "--trees", "--rescale-scope"), STUDY_OUTPUTS),
        ("study", cmd_study, "run the full study over all configured subsamples",
         tuple(flags), STUDY_OUTPUTS),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, outputs=outputs)
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


def cmd_ingest(cfg: RunConfig, args) -> int:
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


def cmd_select(cfg: RunConfig, args) -> int:
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


def cmd_grow(cfg: RunConfig, args) -> int:
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


def cmd_study(cfg: RunConfig, args) -> int:
    if args.jobs < 1:  # --jobs has no effect, but it still refuses what no worker count can be
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    result = run_study(cfg)
    write_study(result, cfg.out)
    _print_study_summary(result)
    print(f"bundle written to {cfg.out}")
    return 1 if result.degraded else 0


def main(argv=None) -> int:
    # At exit, freeze every object still alive so that CPython's final
    # collections skip it and the OS takes the memory back: the data model does
    # not promise to finalise objects alive at exit. Registered before parsing,
    # so usage errors end the same way; unregistered first, so a process that
    # calls main again still holds one registration.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_run_config(args)
        refuse_existing_outputs(cfg.out, args.outputs)
        return args.run(cfg, args)
    except (ChartersegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
