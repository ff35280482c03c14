"""Record one trajectory point: every workload over several seeds.

Usage (from the repository root)::

    python3 e2ebench/record.py --label my-change --seeds 1-10

Runs ``run.py`` once per workload and seed with ``--trace 0`` and
summarizes each end-to-end metric (median, quartiles, sample count).
Then it makes two traced runs per workload on the default seed and keeps
their per-layer metrics, after checking that every exact count repeated.
The point is appended to ``trajectory.json`` beside this file.  The run
length and the workloads are those of ``BENCHMARK.json``, so every point
is comparable with the benchmark's own runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import summarize

HERE = Path(__file__).resolve().parent

TRAJECTORY = HERE / "trajectory.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
DEFAULT_SEED = 1


def parse_seeds(text: str):
    """``"1-10"`` or ``"1,4,9"`` → a list of ints."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` run; its result line plus ``run_wall_s``, its duration."""
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=str(HERE.parent), check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {completed.returncode})")
    result = json.loads(lines[-1])
    result["run_wall_s"] = time.monotonic() - started
    return result


def counts_of(result: dict) -> dict:
    """The exact (count-unit) per-layer metrics of a traced result."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def record_workload(name: str, seeds) -> dict:
    runs = []
    for seed in seeds:
        runs.append(run_once(name, seed, trace=0))
        print(f"{name} seed {seed}: correct={runs[-1]['correct']}", flush=True)
    metrics = {}
    for metric, first in runs[0]["metrics"].items():
        values = [run["metrics"][metric]["value"] for run in runs]
        summary = summarize(values)
        metrics[metric] = {"unit": first["unit"], **summary, "values": values}
        print(f"  {metric:16s} median {summary['median']:.6g} "
              f"IQR/median {summary['iqr_share']:.3f} (n={summary['n']})")
    traced = [run_once(name, DEFAULT_SEED, trace=1) for _ in range(2)]
    durations = {
        "untraced": summarize([run["run_wall_s"] for run in runs]),
        "traced": summarize([run["run_wall_s"] for run in traced]),
    }
    attempted = sum(run["attempted"] for run in runs + traced)
    failed = sum(run["failed"] for run in runs + traced)
    return {
        "end_to_end": metrics,
        "all_correct": all(run["correct"] for run in runs + traced),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "run_wall_s": durations,
        "traced_seed": DEFAULT_SEED,
        "counts_repeat": counts_of(traced[0]) == counts_of(traced[1]),
        "per_layer": {
            metric: value["value"] for metric, value in traced[0]["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    point = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "arch": platform.machine(),
        },
        "default_seed": DEFAULT_SEED,
        "seeds": parse_seeds(args.seeds),
        "seconds": SECONDS,
        "workloads": {
            workload["name"]: record_workload(workload["name"], parse_seeds(args.seeds))
            for workload in SPEC["workloads"]
        },
    }
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    ok = all(
        entry["all_correct"] and entry["counts_repeat"]
        for entry in point["workloads"].values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
