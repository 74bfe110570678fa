"""Run every workload over ten seeds, twice, and summarise, optionally as the baseline.

    python3 perfbench/record.py [--workload NAME ...] [--write]

For each workload: two sets of `run.py --trace 0`, each once per seed 0..9
(end-to-end metrics; per set the median, quartiles and the quartile spread
as a share of the median, and how far the second set's median is from the
first's, and the same for the unscaled median study time `raw_wall_s`),
then `run.py --trace 1` at seed 0 (per-layer table). Prints every metric by
name with its unit. With --write, stores the result, the
environment, and the checks the workloads were chosen for (layer shares,
the --jobs 2 slowdown, the scipy import) in perfbench/baseline.json. It
refuses to write if any run failed. Bundle digests already in baseline.json
are kept; the seed-0 digest is stored only for a workload that has none, so
replacing a digest means deleting it from baseline.json by hand first.
The run length and the bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2
BASELINE = HERE / "baseline.json"


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    """One run.py invocation; returns (result object, its `key value` lines, wall time)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    info = dict(line.split(maxsplit=2)[:2] for line in lines[:-1] if " " in line)
    return json.loads(lines[-1]), info, elapsed


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def environment() -> dict:
    code = ("import json, numpy, scipy, sys; b = numpy.show_config(mode='dicts')"
            "['Build Dependencies']['blas']; print(json.dumps({'python': sys.version"
            ".split()[0], 'numpy': numpy.__version__, 'scipy': scipy.__version__, "
            "'blas': b['name'] + ' ' + b['version']}))")
    env = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True).stdout)
    cpu = ""
    if Path("/proc/cpuinfo").is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "")
    return dict(env, nproc=os.cpu_count(), cpu=cpu, platform=platform.platform(),
                blas_threads=1)


def import_split(repeats: int = 5) -> tuple[float, float]:
    """Median (scipy.stats import, whole charterseg.cli import) in seconds.

    Both come from one fresh interpreter per repeat: numpy first, then
    `from scipy import stats` (used only for `t.sf` in `stats.pearson`),
    then the rest of the CLI.
    """
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "from scipy import stats; t2 = time.perf_counter(); import charterseg.cli; "
            "print(t2 - t1, time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    samples = [tuple(map(float, subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True).stdout.split())) for _ in range(repeats)]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def checks(report: dict) -> dict:
    """The shares and ratios the workloads were chosen to show."""
    w = report["workloads"]
    forest = ("forest.grow_forest_s", "forest.permutation_importance_s")
    shares = {
        "forest_select": ("forest grow + importance", forest),
        "deep_prune": ("prune_at", ("tree.prune_at_s",)),
        "wide_panel": ("panel + tree.grow", ("panel.load_panel_s",
                                             "panel.compute_raw_proxies_s",
                                             "panel.filter_subsample_s", "tree.grow_s")),
    }
    out = {}
    for name, entry in w.items():
        layers = entry["per_layer"]
        if name in shares:
            label, keys = shares[name]
            out[f"{name}: {label} share of pipeline"] = (
                sum(layers[k] for k in keys) / layers["study.pipeline_s"])
        out[f"{name}: forest time (s)"] = sum(layers[k] for k in forest)
        if "cross_jobs_wall_s_over_wall_s" in entry:
            out[f"observation: {name} untimed other --jobs study / raw_wall_s, median"] = (
                entry["cross_jobs_wall_s_over_wall_s"]["median"])
    scipy_s, cli_s = import_split()
    out["observation: scipy.stats import (s)"] = scipy_s
    out["observation: charterseg.cli import with numpy and scipy (s)"] = cli_s
    out["observation: scipy.stats share of the charterseg.cli import"] = scipy_s / cli_s
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    old = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}

    report: dict = {"workloads": {}, "digests": dict(old.get("digests", {}))}
    failed = 0
    for name in args.workload or [w["name"] for w in SPEC["workloads"]]:
        sets: list[dict[str, list[float]]] = []
        w_failed = attempted = 0
        seconds, cross_ratio, raw_walls = [], [], []
        for number in range(1, SETS + 1):
            per_metric: dict[str, list[float]] = {}
            raw_walls.append([])
            for seed in range(SEEDS):
                result, info, elapsed = bench(name, seed, 0)
                seconds.append(elapsed)
                raw_walls[-1].append(float(info["raw_wall_s"]))
                if "cross_wall_s" in info:
                    cross_ratio.append(float(info["cross_wall_s"])
                                       / raw_walls[-1][-1])
                w_failed += result["failed"]
                attempted += result["attempted"]
                for key, m in result["metrics"].items():
                    per_metric.setdefault(key, []).append(m["value"])
                if seed == 0 and result["failed"] == 0:
                    report["digests"].setdefault(name, info["bundle_digest"])
            sets.append(per_metric)
            for key, values in dict(per_metric, raw_wall_s=raw_walls[-1]).items():
                s = summarise(values)
                print(f"{name} set {number} {key} median {s['median']:.4f} {units.get(key, 's')} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                      f"n {s['n']} values {' '.join(f'{v:.3f}' for v in values)}")
        entry = {"end_to_end": [{k: summarise(v) for k, v in per.items()} for per in sets],
                 "raw_wall_s": [summarise(v) for v in raw_walls],
                 "invocation_s": statistics.median(seconds)}
        # How far the second set's median is from the first's, as a share
        # of the first; the benchmark's bound applies to this.
        first, second = entry["end_to_end"][0], entry["end_to_end"][-1]
        entry["set_drift"] = {k: second[k]["median"] / first[k]["median"] - 1 for k in first}
        for key, drift in entry["set_drift"].items():
            print(f"{name} {key} second set median vs first {drift:+.4f} "
                  f"(bound {bounds[key]}): {'within' if abs(drift) <= bounds[key] else 'OUTSIDE'}")
        if cross_ratio:
            entry["cross_jobs_wall_s_over_wall_s"] = summarise(cross_ratio)
        result, _, elapsed = bench(name, 0, 1)
        w_failed += result["failed"]
        attempted += result["attempted"]
        entry["fail_frac"] = w_failed / attempted
        failed += w_failed
        print(f"{name} fail_frac {entry['fail_frac']} ({w_failed} of {attempted} runs)")
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_invocation_s"] = elapsed
        for key, value in entry["per_layer"].items():
            print(f"{name} {key} {value:.6g} {units[key]}")
        report["workloads"][name] = entry

    report["checks"] = checks(report)
    for key, value in report["checks"].items():
        print(f"{key}: {value}")
    if args.write:
        if failed:
            print(f"not writing {BASELINE}: {failed} runs failed", file=sys.stderr)
            return 1
        report["environment"] = environment()
        report["run_seconds"] = SPEC["run_seconds"]
        report["seeds"] = list(range(SEEDS))
        BASELINE.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
