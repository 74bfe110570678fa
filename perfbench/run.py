"""Benchmark of `charterseg study`, one fresh interpreter per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Generates a seeded panel (untimed), then runs the real CLI path,
`charterseg.cli.main(["study", ...])`, in child interpreters with
PYTHONPATH=src and BLAS pinned to one thread. Every child's bundle is
checked: exit code 0, all nine subsamples `ok`, and a sha256 over the
bundle that repeats across runs, equals the digest recorded in
perfbench/baseline.json for the default seed and, for the forest workloads,
equals the digest of one untimed study with the other `--jobs` value.
Failures are counted, not fatal.

With --trace 0 it prints the end-to-end metrics wall_s, setup_s and
peak_rss_mb, medians over the run's studies. The two times are scaled to a
fixed host speed, measured by a reference job run on the study's core just
before and after each study (see reference_job).
With --trace 1 it alternates untraced and traced studies for --seconds, and
prints per-layer self times and counts and the tracing overhead.
Each metric is printed as `name value unit`; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from gen import write_panel  # noqa: E402

DEFAULT_SEED = 0
STUDY_SEED = 1  # master seed of the study itself; the workload seed makes the panel
TIME_LIMIT_S = 170.0  # whole invocation, children included
N_SUBSAMPLES = 9
# reference_job's time on a quiet core of the 2-core VM the baseline was
# recorded on; the scale to which wall_s and setup_s are brought.
REFERENCE_S = 0.15

FOREST_SELECT = {
    "tree": {"min_leaf": 30, "cv_folds": 10},
    "forest": {"n_trees": 12},
    "selection": {"mode": "rf", "forest_scope": "joint"},
}


@dataclass(frozen=True)
class Workload:
    n_banks: int  # panel rows = n_banks * 12 years
    jobs: int
    config: dict = field(default_factory=dict)
    # --jobs value of one untimed study run first; every other study's bundle
    # must equal its bundle, since results must not depend on the worker count.
    cross_jobs: int | None = None


# Why each workload exists is recorded in BENCHMARK.json and README.md, which
# also says why wide_panel and forest_select_jobs2 are not in BENCHMARK.json.
WORKLOADS = {
    "forest_select": Workload(75, 1, FOREST_SELECT, cross_jobs=2),
    "deep_prune": Workload(75, 1, {
        "tree": {"min_leaf": 10, "cv_folds": 10},
        "selection": {"mode": "fixed"},
    }),
    "wide_panel": Workload(8334, 1, {
        "tree": {"min_leaf": 2000, "cv_folds": 5},
        "selection": {"mode": "fixed"},
        "rescale_scope": "full",
    }),
    "forest_select_jobs2": Workload(75, 2, FOREST_SELECT, cross_jobs=1),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit. Times are self times (span minus child spans),
# summed over calls; counts repeat exactly for a given input.
PER_LAYER = {
    "panel.load_panel_s": "s",
    "panel.compute_raw_proxies_s": "s",
    "panel.compute_raw_proxies_calls": "count",
    "panel.filter_subsample_s": "s",
    "panel.rows_read": "count",
    "panel.rows_kept_ratio": "ratio",
    "rescale.build_scored_matrix_s": "s",
    "rescale.build_scored_matrix_calls": "count",
    "rescale.rows_scored": "count",
    "forest.grow_forest_s": "s",
    "forest.permutation_importance_s": "s",
    "forest.oob_predict_s": "s",
    "forest.trees": "count",
    "forest.nodes": "count",
    "select.select_proxies_s": "s",
    "tree.grow_s": "s",
    "tree.grow_calls": "count",
    "tree.leaves_grown": "count",
    "tree.cost_complexity_sequence_s": "s",
    "tree.prune_at_s": "s",
    "tree.prune_at_calls": "count",
    "tree.cv_prune_self_s": "s",
    "tree.kept_leaf_ratio": "ratio",
    "analysis.self_s": "s",
    "stats.ks_two_sample_s": "s",
    "stats.pearson_s": "s",
    "study.run_study_self_s": "s",
    "study.write_study_s": "s",
    "study.bundle_bytes": "bytes",
    "study.bundle_files": "count",
    "study.pipeline_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def reference_job() -> float:
    """Seconds a fixed numpy job takes: row sorts over a 6.4 MB array.

    Neighbours on a shared host slow the study mostly through the cache and
    memory they share with it, so the job is memory-bound like the study;
    it does not use the package, so no change to the package moves it.
    """
    x = np.random.default_rng(0).random((400, 2000))
    start = time.perf_counter()
    for _ in range(6):
        np.take_along_axis(x, np.argsort(x, axis=1), axis=1).cumsum(axis=1)
    return time.perf_counter() - start


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    reference_s: float
    setup_s: float | None = None
    digest: str | None = None
    bundle_bytes: int = 0
    bundle_files: int = 0
    trace: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def scaled(self, seconds: float) -> float:
        """A time of this study, brought to the host speed of REFERENCE_S."""
        return seconds * REFERENCE_S / self.reference_s


def bundle_digest(out: Path) -> tuple[str, int, int]:
    """sha256 over sorted relative paths and file bytes; also bytes and files."""
    h = hashlib.sha256()
    total = files = 0
    for rel in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        data = (out / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
        total += len(data)
        files += 1
    return h.hexdigest(), total, files


def subsample_statuses(out: Path) -> tuple:
    path = out / "tables" / "verdicts.csv"
    if not path.is_file():
        return ()
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return tuple(line.split(",")[1] for line in lines)


def recorded_digest(workload: str) -> str | None:
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("digests", {}).get(workload)


class Bench:
    def __init__(self, name: str, seed: int, work: Path, deadline: float, cpus: set):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.deadline = deadline
        self.panel = work / "panel.csv"
        self.config = work / "config.json"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        # Bundle digest every study must reproduce; taken from the first study
        # when no digest is recorded for this seed.
        self.expected = recorded_digest(name) if seed == DEFAULT_SEED else None
        self.cpus = cpus  # a --jobs 2 child gets them all back
        self.runs: list[ChildRun] = []
        self._n = 0
        self._reference_before = reference_job()

    def prepare(self, seed: int) -> int:
        rows = write_panel(self.panel, self.workload.n_banks, seed)
        doc = dict(self.workload.config, data={"path": str(self.panel)},
                   seed=STUDY_SEED)
        self.config.write_text(json.dumps(doc), encoding="utf-8")
        return rows

    def child(self, mode: str, jobs: int) -> ChildRun:
        """Spawn one child interpreter, wait for it, and check its bundle."""
        self._n += 1
        out = self.work / f"out{self._n}"
        result = self.work / f"result{self._n}.json"
        log = self.work / "child.log"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, str(self._n),
               "study", "--config", str(self.config), "--jobs", str(jobs),
               "--out", str(out)]
        with open(log, "wb") as fh:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=fh,
                                    stderr=subprocess.STDOUT)
            if jobs > 1:
                os.sched_setaffinity(proc.pid, self.cpus)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)

        reference_after = reference_job()
        run = ChildRun((end - start) / 1e9, usage.ru_maxrss / 1024,
                       (self._reference_before + reference_after) / 2)
        self._reference_before = reference_after
        info = json.loads(result.read_text()) if result.is_file() else {}
        if "setup_done_ns" in info:
            run.setup_s = (info["setup_done_ns"] - start) / 1e9
        if mode == "trace":
            run.trace = info
        if proc.returncode != 0:
            run.problems.append(f"exit code {proc.returncode}")
        run.digest, run.bundle_bytes, run.bundle_files = bundle_digest(out)
        statuses = subsample_statuses(out)
        if statuses != ("ok",) * N_SUBSAMPLES:
            run.problems.append(f"subsample statuses {statuses}")
        if self.expected is None:
            self.expected = run.digest
        elif run.digest != self.expected:
            run.problems.append(f"bundle digest {run.digest} != {self.expected}")
        shutil.rmtree(out, ignore_errors=True)
        if run.failed:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"run {self._n} ({mode}) failed: {'; '.join(run.problems)}\n{tail}",
                  file=sys.stderr)
        self.runs.append(run)
        return run

    def studies(self, modes: tuple, start: float, seconds: float) -> list[ChildRun]:
        """Run one study per mode in `modes`, over and over, while the next
        round should end within `seconds` of `start`; returns the studies in
        order."""
        done: list[ChildRun] = []
        rounds: list[float] = []
        while True:
            began = time.monotonic()
            done.extend(self.child(mode, self.workload.jobs) for mode in modes)
            now = time.monotonic()
            rounds.append(now - began)
            typical = statistics.median(rounds)
            if now - start + typical > seconds or now + typical > self.deadline:
                return done


def _covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    spans = trace.get("spans", [])
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    wall: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        self_s[name] += (end - start - _covered_ns(children[sid], start, end)) / 1e9
        wall[name] += (end - start) / 1e9
        calls[name] += 1
    counts: Counter = Counter()
    for key, value in trace.get("counts", []):
        counts[key] += value

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "panel.load_panel_s": self_s["panel.load_panel"],
        "panel.compute_raw_proxies_s": self_s["panel.compute_raw_proxies"],
        "panel.compute_raw_proxies_calls": calls["panel.compute_raw_proxies"],
        "panel.filter_subsample_s": self_s["panel.filter_subsample"],
        "panel.rows_read": counts["panel.rows_read"],
        "panel.rows_kept_ratio": ratio("panel.rows_kept", "panel.rows_in"),
        "rescale.build_scored_matrix_s": self_s["rescale.build_scored_matrix"],
        "rescale.build_scored_matrix_calls": calls["rescale.build_scored_matrix"],
        "rescale.rows_scored": counts["rescale.rows_scored"],
        "forest.grow_forest_s": self_s["forest.grow_forest"],
        "forest.permutation_importance_s": self_s["forest.permutation_importance"],
        "forest.oob_predict_s": self_s["forest.oob_predict"],
        "forest.trees": counts["forest.trees"],
        "forest.nodes": counts["forest.nodes"],
        "select.select_proxies_s": self_s["select.select_proxies"],
        "tree.grow_s": self_s["tree.grow"],
        "tree.grow_calls": calls["tree.grow"],
        "tree.leaves_grown": counts["tree.leaves_grown"],
        "tree.cost_complexity_sequence_s": self_s["tree.cost_complexity_sequence"],
        "tree.prune_at_s": self_s["tree.prune_at"],
        "tree.prune_at_calls": calls["tree.prune_at"],
        "tree.cv_prune_self_s": self_s["tree.cv_prune"],
        "tree.kept_leaf_ratio": ratio("tree.final_leaves", "tree.full_leaves"),
        "analysis.self_s": sum(v for k, v in self_s.items() if k.startswith("analysis.")),
        "stats.ks_two_sample_s": self_s["stats.ks_two_sample"],
        "stats.pearson_s": self_s["stats.pearson"],
        "study.run_study_self_s": self_s["study.run_study"],
        "study.write_study_s": self_s["study.write_study"],
        "study.pipeline_s": wall["study.run_study"] + wall["study.write_study"],
    }


def measure(bench: Bench, seed: int, seconds: float, trace: bool) -> dict[str, float]:
    rows = bench.prepare(seed)
    print(f"workload {bench.name}: seed {seed}, {rows} panel rows, "
          f"--jobs {bench.workload.jobs}")
    # The untimed cross-jobs study counts against --seconds, so that every
    # workload's run takes the same time.
    start = time.monotonic()
    if bench.workload.cross_jobs:
        cross = bench.child("run", bench.workload.cross_jobs)
        print(f"cross_wall_s {cross.wall_s!r} s (--jobs {bench.workload.cross_jobs}, "
              f"untimed), digest {cross.digest}")
    if not trace:
        studies = bench.studies(("run",), start, seconds)
        print(f"{len(studies)} timed studies, wall_s "
              f"{' '.join(f'{r.wall_s:.3f}' for r in studies)}; setup_s "
              f"{' '.join(f'{r.setup_s or 0:.3f}' for r in studies)}; reference_s "
              f"{' '.join(f'{r.reference_s:.4f}' for r in studies)}")
        print(f"bundle_digest {studies[0].digest}")
        print(f"raw_wall_s {statistics.median(r.wall_s for r in studies)!r} s "
              f"(median, not scaled)")
        # On a shared host, neighbours change the speed of the study's core
        # by up to 1.9x over minutes, longer than a run; scaling each study
        # by the reference job's time around it takes most of that out.
        setups = [r.scaled(r.setup_s) for r in studies if r.setup_s is not None]
        return {
            "wall_s": statistics.median(r.scaled(r.wall_s) for r in studies),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in studies),
        }
    # Untraced and traced studies alternate, so both see the same host load.
    runs = bench.studies(("run", "trace"), start, seconds)
    plain, traced = runs[0::2], runs[1::2]
    per_run = [layer_metrics(r.trace or {}) for r in traced]
    metrics = {k: statistics.median_low(m[k] for m in per_run) for k in per_run[0]}
    metrics["study.bundle_bytes"] = traced[0].bundle_bytes
    metrics["study.bundle_files"] = traced[0].bundle_files
    metrics["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(r.wall_s for r in plain))
    print(f"{len(plain)} untraced and {len(traced)} traced studies")
    print(f"bundle_digest {traced[0].digest}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds through the finally blocks, which kill the
    # running child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One core for this process and every --jobs 1 child, so that the
    # reference job runs where the study runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if not (ROOT / "src" / "charterseg" / "cli.py").is_file():
        print(f"no charterseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(args.workload, args.seed, work, started + TIME_LIMIT_S, cpus)
        metrics = measure(bench, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(r.failed for r in bench.runs)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"fail_frac {failed / len(bench.runs)!r} ratio ({failed} of {len(bench.runs)} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
