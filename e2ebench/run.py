"""End-to-end churn benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cevent-wrate-4k --seed 1 --seconds 10 --trace 0

The harness generates the topology from the seed (timed, reported as the
per-layer ``topology.generate_s``) and writes it as JSON.  A fresh child
process then loads, builds and drives it (``--trace 0``: the end-to-end
metrics).  ``--trace 1`` runs a second, traced child for the per-layer
metrics and checks that both children produced the same exact counts.
The route/path intern tables and ``ru_maxrss`` are process-wide, which
is why every measured pass gets a process of its own.  End-to-end times
are reference seconds (see ``hostspeed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output is wrong, 2 when the harness cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: A run, its children included, must end well within this many seconds.
RUN_DEADLINE_S = 170.0

#: End-to-end metrics with their units (``--trace 0``).  ``wall_s`` and
#: ``sim_s`` are printed too, but a seed's origins decide how much churn
#: a run does, so across seeds they spread wider than any useful bound;
#: the rates divide that work out.  A ``--trace 1`` run reports them as
#: ``run.wall_s`` and ``run.sim_s``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_slowdown")):
        return "ratio"
    if name == "rib.bytes_per_route":
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one measured pass in this process (a child).
    parser.add_argument("--child", choices=("measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--topology", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args) -> int:
    """One measured pass; prints its outcome as one JSON line."""
    from workloads import WORKLOADS, measure

    outcome = measure(
        WORKLOADS[args.workload],
        args.topology,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.child == "trace",
    )
    print(json.dumps(outcome))
    return 0


def run_child(kind: str, args, topology: Path, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its outcome."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", kind,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--topology", str(topology),
    ]
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    completed = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if completed.returncode != 0 or not completed.stdout.strip():
        raise RuntimeError(f"{kind} pass exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def generate_input(workload, seed: int, path: Path) -> float:
    """Generate the seed's topology, save it, return the generation time."""
    from repro.topology.generator import generate_topology
    from repro.topology.params import baseline_params
    from repro.topology.serialization import save_json

    started = time.perf_counter()
    graph = generate_topology(baseline_params(workload.n), seed=seed)
    generate_s = time.perf_counter() - started
    save_json(graph, path)
    return generate_s


def end_to_end(outcome) -> dict:
    setup_s = statistics.median(outcome["setup_s"])
    sim_s = outcome["sim_s"]
    return {
        "wall_s": setup_s + sim_s,
        "setup_s": setup_s,
        "sim_s": sim_s,
        "updates_per_s": outcome["updates"] / sim_s,
        "events_per_s": outcome["events"] / sim_s,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict, generate_s: float) -> dict:
    """Per-layer metrics of a ``--trace 1`` run, from both passes."""
    e2e = end_to_end(plain)
    layers = dict(traced["layers"])
    layers["topology.generate_s"] = generate_s
    layers["rib.routes_end"] = plain["counts"]["rib.routes_end"]
    layers["rib.bytes_per_route"] = plain["bytes_per_route"]
    layers["run.wall_s"] = e2e["wall_s"]
    layers["run.sim_s"] = e2e["sim_s"]
    layers["trace.overhead_ratio"] = traced["wall_scaled_s"] / e2e["wall_s"]
    layers["trace.host_slowdown"] = traced["host_slowdown"]
    return layers


def count_differences(first: dict, second: dict) -> list:
    return sorted(
        name
        for name in set(first) | set(second)
        if first.get(name) != second.get(name)
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"cannot benchmark: no simulator sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    if args.child:
        return child_main(args)

    from stats import summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))
    try:
        topology = workdir / "topology.json"
        generate_s = generate_input(workload, args.seed, topology)
        plain = run_child("measure", args, topology, deadline)
        traced = run_child("trace", args, topology, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(plain)
    attempted = plain["ops"]
    failed = plain["failed"]
    correct = failed == 0
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g}")
    op_summary = summarize(plain["op_s"]) if plain["op_s"] else None
    if op_summary:
        tail = op_summary["tail"]
        print(f"op latency: median {op_summary['median']:.4f} s over "
              f"{op_summary['n']} ops; tail "
              + (f"p{tail['percentile']:g} {tail['value']:.4f} s" if tail
                 else "n/a (fewer than 10 samples beyond the median)"))
    for name, value in sorted(plain["counts"].items()):
        print(f"count {name} {value}")
    print(f"run wall_s {e2e['wall_s']:.6f} s, sim_s {e2e['sim_s']:.6f} s "
          f"(reference seconds; host slowdown {plain['host_slowdown']:.3f})")
    print(f"unscaled updates_per_s {plain['updates'] / plain['sim_wall_s']:.1f} by wall time, "
          f"{plain['updates'] / plain['sim_cpu_s']:.1f} by process CPU time")

    if traced is None:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        attempted += traced["ops"]
        failed += traced["failed"]
        differences = count_differences(plain["counts"], traced["counts"])
        if differences:
            print("determinism check failed: traced and untraced runs differ in "
                  + ", ".join(differences), file=sys.stderr)
        correct = failed == 0 and not differences
        layers = per_layer(plain, traced, generate_s)
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:>18.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
