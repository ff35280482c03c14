"""The benchmark workloads and the in-process runner that measures one.

A run is: load the topology JSON the harness generated (``load_json``,
as ``repro-bgp simulate`` does), build the :class:`SimNetwork`, call the
driver (``run_c_event_batch`` or ``run_prefix_churn``), then — outside
every timed region — check the converged routing state against the
Gao–Rexford oracle and collect exact counts for the determinism check.
End-to-end times are in reference seconds (:mod:`hostspeed`); the traced
pass's span times are plain wall seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import random
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List, Tuple

import repro.core.prefix_churn as prefix_churn
from repro.bgp.config import BGPConfig
from repro.core.cevent import new_batch_cursor, run_c_event_batch
from repro.core.prefix_churn import build_allocation, loc_rib_digest, run_prefix_churn
from repro.core.reference import steady_state_routes
from repro.obs.telemetry import telemetry_session
from repro.prefix.prefix import host_prefix
from repro.prefix.workload import PrefixChurnSpec
from repro.sim.network import SimNetwork
from repro.topology.serialization import load_json
from repro.topology.types import NodeType

from layers import LayerProbe, layer_metrics
from hostspeed import HostSpeed
from tracing import Tracer, patched

clock = time.perf_counter


#: MRAI base interval of every workload (the paper's 30 s).
MRAI_S = 30.0
#: Churn of the prefix-table workload: flap arrivals per simulated
#: second, and the share of arrivals that deaggregate instead.
PREFIX_EVENT_RATE = 0.05
PREFIX_DEAGGREGATION = 0.2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fixed-seed input family and how much work a run does."""

    name: str
    #: topology size (BASELINE growth model)
    n: int
    wrate: bool
    #: set-ups per untraced run; the median is reported
    repeats: int
    #: C-event workloads run origins one after another until this many
    #: updates per second of ``--seconds`` were delivered
    updates_per_second: int = 0
    #: prefix-table workloads: table size, origins, and simulated churn
    #: window per second of ``--seconds``; 0 prefixes means C-events
    prefixes: int = 0
    prefix_origins: int = 0
    window_per_second: float = 0.0

    @property
    def is_prefix_table(self) -> bool:
        return self.prefixes > 0

    def config(self) -> BGPConfig:
        return BGPConfig(mrai=MRAI_S, wrate=self.wrate)

    def update_quota(self, seconds: float) -> int:
        return max(1, round(seconds * self.updates_per_second))

    def churn_spec(self, seconds: float) -> PrefixChurnSpec:
        return PrefixChurnSpec(
            duration=seconds * self.window_per_second,
            event_rate=PREFIX_EVENT_RATE,
            deaggregation_probability=PREFIX_DEAGGREGATION,
        )


# Why each workload exists is in BENCHMARK.json and README.md.  Work per
# second of --seconds was calibrated so that the driver call takes about
# that many reference seconds (see hostspeed.py).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cevent-wrate-4k",
            n=4000,
            wrate=True,
            repeats=3,
            updates_per_second=20_000,
        ),
        Workload(
            name="cevent-nowrate-4k",
            n=4000,
            wrate=False,
            repeats=3,
            updates_per_second=30_000,
        ),
        Workload(
            name="prefix-table-1k",
            n=1000,
            wrate=False,
            repeats=15,
            prefixes=250,
            prefix_origins=100,
            window_per_second=120.0,
        ),
    )
}


def origin_order(graph, seed: int) -> List[int]:
    """Every C-type stub (CP when there are none) in a seed-shuffled order."""
    pool = sorted(graph.nodes_of_type(NodeType.C) or graph.nodes_of_type(NodeType.CP))
    random.Random(seed * 7919 + 1).shuffle(pool)
    return pool


def current_rss_bytes() -> int:
    """Resident set size of this process now (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def mismatched_prefixes(network: SimNetwork, graph, announced: Dict) -> set:
    """Announced prefixes whose converged routes differ from the oracle.

    Every node must hold a route exactly when the oracle gives it one,
    with the oracle's path length and next-hop category.  A route held
    anywhere for a prefix nobody announces is a mismatch too.
    """
    oracles: Dict[int, Dict] = {}
    bad = set()
    for prefix, origin in announced.items():
        if origin not in oracles:
            oracles[origin] = steady_state_routes(graph, origin)
        oracle = oracles[origin]
        for node_id, node in network.nodes.items():
            best = node.best_route(prefix)
            expected = oracle.get(node_id)
            if best is None or expected is None:
                matches = best is None and expected is None
            else:
                matches = len(best.path) == expected.length and (
                    expected.category is None
                    or node.neighbors[best.next_hop] is expected.category
                )
            if not matches:
                bad.add(prefix)
                break
    for node in network.nodes.values():
        bad.update(p for p in node.loc_rib.prefixes() if p not in announced)
    return bad


class WithdrawalCheck:
    """Prefixes some node still holds once their withdrawal has converged.

    On the C-event workloads the final state only shows each prefix
    after its re-announcement, which would hide a withdrawal that failed
    to propagate.  So the traced pass wraps ``SimNetwork.withdraw`` and
    the ``run_to_convergence`` that follows it: once that DOWN phase has
    drained, no node may hold the prefix in its Loc-RIB or Adj-RIB-In.
    ``wrap`` gives the scan a span of its own, so that its time is not
    counted as driver time.
    """

    def __init__(self, wrap: Callable = lambda _name, fn: fn) -> None:
        self.stale: set = set()
        self._withdrawn = None
        self._scan = wrap("check.withdrawal", self._scan_nodes)

    def replacements(self) -> List[Tuple[object, str, Callable]]:
        return [
            (SimNetwork, "withdraw", self._on_withdraw),
            (SimNetwork, "run_to_convergence", self._on_converge),
        ]

    def _on_withdraw(self, withdraw: Callable) -> Callable:
        def checked(network, origin, prefix):
            withdraw(network, origin, prefix)
            self._withdrawn = prefix

        return checked

    def _on_converge(self, run_to_convergence: Callable) -> Callable:
        def checked(network, *args, **kwargs):
            now = run_to_convergence(network, *args, **kwargs)
            prefix, self._withdrawn = self._withdrawn, None
            if prefix is not None:
                self._scan(network, prefix)
            return now

        return checked

    def _scan_nodes(self, network: SimNetwork, prefix) -> None:
        if any(
            node.best_route(prefix) is not None or node.adj_rib_in.candidates(prefix)
            for node in network.nodes.values()
        ):
            self.stale.add(prefix)


def exact_counts(network: SimNetwork, digest: str) -> Dict[str, object]:
    """Behaviour counts that two runs of one seed must reproduce exactly."""
    nodes = network.nodes.values()
    return {
        "engine.events": network.engine.executed_events,
        "engine.cancelled": network.engine.cancelled_events,
        "network.deliveries": network.delivered_messages,
        "node.decisions_run": sum(node.decisions_run for node in nodes),
        "node.updates": sum(node.processed_count for node in nodes),
        "node.queue_peak": max(node.max_queue_length for node in nodes),
        "rib.routes_end": sum(len(node.loc_rib) for node in nodes),
        "rib.digest": digest,
    }


def _supply(network: SimNetwork):
    """Stand-in for ``SimNetwork`` in the prefix driver: the set-up network."""

    def build(graph, config=None, *, seed=0):
        if graph is not network.graph or config != network.config or seed != network.seed:
            raise RuntimeError("driver asked for a network other than the one set up")
        return network

    return lambda _cls: build


def _drive_cevents(workload, graph, config, cursor, candidates, *, seed, seconds, wrap):
    """C-events, one origin at a time, until the update quota is delivered.

    Returns ``(origins run, per-origin (start, end) clock readings,
    raised)``.  The stopping point depends only on exact counts, so a
    seed always does the same work.
    """
    network = cursor.network
    quota = network.delivered_messages + workload.update_quota(seconds)
    run = wrap("driver", run_c_event_batch)
    origins: List[int] = []
    op_intervals: List[Tuple[float, float]] = []
    while network.delivered_messages < quota and len(origins) < len(candidates):
        origins.append(candidates[len(origins)])
        started = clock()
        try:
            run(graph, config, origins=origins, seed=seed, cursor=cursor)
        except Exception:  # noqa: BLE001 - a raising op counts as failed
            traceback.print_exc(file=sys.stderr)
            return origins, op_intervals, True
        op_intervals.append((started, clock()))
    return origins, op_intervals, False


def _drive_prefix_table(workload, graph, config, network, allocation, *, seed, seconds, wrap):
    """The prefix-table churn driver on the set-up network.

    Returns ``(result or None when it raised, ops attempted)``; an op is
    one announced table prefix or one executed churn event.
    """
    ops = allocation.num_prefixes
    with patched([(prefix_churn, "SimNetwork", _supply(network))]):
        try:
            result = wrap("driver", run_prefix_churn)(
                graph, allocation, workload.churn_spec(seconds), config, seed=seed
            )
        except Exception:  # noqa: BLE001 - a raising op counts as failed
            traceback.print_exc(file=sys.stderr)
            return None, ops
    return result, ops + result.events_executed


def measure(
    workload: Workload,
    topology_path: str,
    *,
    seed: int,
    seconds: float,
    traced: bool = False,
) -> Dict[str, object]:
    """Set up and drive one workload; returns timings, counts and checks."""
    config = workload.config()
    tracer = Tracer() if traced else None
    probe = LayerProbe(tracer) if traced else None
    wrap = tracer.timed if traced else (lambda _name, fn: fn)
    withdrawals = WithdrawalCheck(wrap)
    load = wrap("topology.load", load_json)
    setup_intervals: List[Tuple[float, float, float, float]] = []
    with contextlib.ExitStack() as stack:
        host = stack.enter_context(HostSpeed())
        if traced:
            hub = stack.enter_context(telemetry_session())
            stack.enter_context(patched(probe.replacements() + withdrawals.replacements()))
        begin = clock()
        for _ in range(1 if traced else workload.repeats):
            # Free the previous set-up and collect its garbage outside the
            # timed region, so every set-up starts from the same heap.
            network = cursor = graph = allocation = None
            gc.collect()
            started = clock()
            graph = load(topology_path)
            loaded = clock()
            if workload.is_prefix_table:
                allocation = build_allocation(
                    graph, workload.prefixes, num_origins=workload.prefix_origins, seed=seed
                )
                building = clock()
                network = wrap("network.build", SimNetwork)(graph, config, seed=seed)
            else:
                candidates = origin_order(graph, seed)
                building = clock()
                cursor = wrap("network.build", new_batch_cursor)(
                    graph, config, origins=candidates, seed=seed
                )
                network = cursor.network
            setup_intervals.append((started, loaded, building, clock()))

        rss_before = current_rss_bytes()
        events_before = network.engine.executed_events
        deliveries_before = network.delivered_messages
        driver_started = clock()
        driver_cpu_started = time.process_time()
        if workload.is_prefix_table:
            result, ops = _drive_prefix_table(
                workload, graph, config, network, allocation,
                seed=seed, seconds=seconds, wrap=wrap,
            )
            op_intervals: List[Tuple[float, float]] = []
            raised = result is None
        else:
            origins, op_intervals, raised = _drive_cevents(
                workload, graph, config, cursor, candidates,
                seed=seed, seconds=seconds, wrap=wrap,
            )
            ops = len(origins)
        end = clock()
        driver_cpu_s = time.process_time() - driver_cpu_started
        if traced:
            probe.switch_counting(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_growth = current_rss_bytes() - rss_before

    # Correctness, outside every timed region: the converged state of
    # every announced prefix against the oracle.
    if raised:
        failed, digest = ops, ""
    elif workload.is_prefix_table:
        announced = {
            prefix: origin
            for origin in allocation.origins
            for prefix, route in network.node(origin).loc_rib.entries()
            if route.is_local
        }
        failed = min(ops, len(mismatched_prefixes(network, graph, announced)))
        digest = result.loc_rib_digest
    else:
        announced = {host_prefix(i): origin for i, origin in enumerate(origins)}
        failed = len(mismatched_prefixes(network, graph, announced) | withdrawals.stale)
        digest = loc_rib_digest(network)

    scaled = host.reference_seconds
    setup_times = [
        scaled(started, loaded) + scaled(building, built)
        for started, loaded, building, built in setup_intervals
    ]
    counts = exact_counts(network, digest)
    outcome: Dict[str, object] = {
        "setup_s": setup_times,
        "sim_s": scaled(driver_started, end),
        "sim_wall_s": end - driver_started,
        "sim_cpu_s": driver_cpu_s,
        "host_slowdown": host.slowdown(),
        "events": network.engine.executed_events - events_before,
        "updates": network.delivered_messages - deliveries_before,
        "peak_rss_mb": peak_rss_mb,
        "bytes_per_route": rss_growth / max(1, counts["rib.routes_end"]),
        "op_s": [scaled(a, b) for a, b in op_intervals],
        "ops": ops,
        "failed": failed,
        "counts": counts,
    }
    if traced:
        outcome["layers"] = layer_metrics(probe, hub, network, end - begin)
        outcome["wall_scaled_s"] = scaled(begin, end)
    return outcome
