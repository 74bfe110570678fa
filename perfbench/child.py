"""One `charterseg study` in a fresh interpreter, timed and optionally traced.

    python3 perfbench/child.py RESULT_JSON MODE RUN_ID CLI_ARG...

MODE is `run` (plain CLI run) or `trace` (same, with spans recorded around
every layer's public functions).
The CLI arguments go to `charterseg.cli.main` unchanged. RESULT_JSON gets
the exit code, the CLOCK_MONOTONIC time at which the config was loaded and,
in trace mode, the spans and counts. The package itself is not modified:
spans come from wrappers set on module attributes at the names the callers
look up, and the original functions are put back before the file is written.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


def _forest_counts(args, forest):
    leaves = sum(t.n_leaves for t in forest.trees)
    return [("forest.trees", len(forest.trees)),
            ("forest.nodes", 2 * leaves - len(forest.trees))]


def _cv_prune_counts(args, result):
    pruned, trace = result
    return [("tree.final_leaves", pruned.n_leaves),
            ("tree.full_leaves", trace.subtree_sizes[0])]


def _traced_names():
    """(module, attribute, span name, counter) for every wrapped call site.

    Callers import names directly, so each wrapper goes on the module whose
    code makes the call: study for the pipeline steps, cli for the two entry
    points, tree for the calls inside cv_prune, forest for oob_predict inside
    permutation_importance, analysis for ks_two_sample.
    """
    from charterseg import analysis, cli, forest, study, tree

    return [
        (cli, "run_study", "study.run_study", None),
        (cli, "write_study", "study.write_study", None),
        (study, "load_panel", "panel.load_panel",
         lambda a, p: [("panel.rows_read", len(p.rows) + len(p.exclusions))]),
        (study, "compute_raw_proxies", "panel.compute_raw_proxies",
         lambda a, f: [("panel.rows_in", len(a[0].rows)), ("panel.rows_kept", len(f))]),
        (study, "filter_subsample", "panel.filter_subsample", None),
        (study, "build_scored_matrix", "rescale.build_scored_matrix",
         lambda a, m: [("rescale.rows_scored", m.n_rows)]),
        (study, "grow_forest", "forest.grow_forest", _forest_counts),
        (study, "permutation_importance", "forest.permutation_importance", None),
        (forest, "oob_predict", "forest.oob_predict", None),
        (study, "select_proxies", "select.select_proxies", None),
        (study, "cv_prune", "tree.cv_prune", _cv_prune_counts),
        (tree, "grow", "tree.grow", lambda a, t: [("tree.leaves_grown", t.n_leaves)]),
        (tree, "cost_complexity_sequence", "tree.cost_complexity_sequence", None),
        (tree, "prune_at", "tree.prune_at", None),
        (study, "extreme_leaves", "analysis.extreme_leaves", None),
        (study, "alignment_verdicts", "analysis.alignment_verdicts", None),
        (study, "path_rows", "analysis.path_rows", None),
        (study, "group_comparison", "analysis.group_comparison", None),
        (analysis, "ks_two_sample", "stats.ks_two_sample", None),
        (study, "pearson", "stats.pearson", None),
    ]


class SpanRecorder:
    """In-memory spans (id, name, start_ns, end_ns, parent id) and counts.

    Each thread keeps its own stack of open spans, so the spans of `--jobs`
    worker threads do not nest inside each other. A span opened with an
    empty stack in a worker thread takes the main thread's innermost open
    span (run_study, blocked on the pool) as its parent. Counts taken from a
    call's arguments and return value are timed as a `trace.bookkeeping`
    span under the caller, so they do not inflate any layer's self time.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, orig, name, counter):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if counter is not None:
                self.counts.extend(counter(args, result))
                self.spans.append((next(self._ids), "trace.bookkeeping", end,
                                   time.perf_counter_ns(), parent))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in _traced_names():
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, counter))

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)


def main(argv: list[str]) -> int:
    result_path, mode, run_id, cli_args = argv[0], argv[1], argv[2], argv[3:]
    import charterseg.cli as cli

    out = {"run_id": run_id, "mode": mode}
    load_run_config = cli._load_run_config

    def stamped(args):
        cfg = load_run_config(args)
        out["setup_done_ns"] = time.monotonic_ns()
        return cfg

    cli._load_run_config = stamped
    recorder = SpanRecorder() if mode == "trace" else None
    if recorder is not None:
        recorder.install()
    try:
        code = cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.restore()
        cli._load_run_config = load_run_config
    out["exit_code"] = code
    if recorder is not None:
        out["spans"] = recorder.spans
        out["counts"] = recorder.counts
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
