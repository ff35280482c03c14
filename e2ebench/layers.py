"""The traced pass: which simulator callables are wrapped, and the metrics.

Each wrapper sits at the name its caller binds: ``select_best`` and
``exportable`` are patched on :mod:`repro.bgp.node`, which imported
them by name; methods are patched on their classes.  The hottest
per-call functions (``Route.preference_key``, ``Prefix.__hash__`` and
the cold-key ``stable_hash``) are counted, not timed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import repro.bgp.node as bgp_node
import repro.bgp.route as bgp_route
from repro.bgp.events import Delivery, MRAIWakeup, ServiceCompletion
from repro.bgp.mrai import OutputChannel
from repro.bgp.route import Route
from repro.prefix.prefix import Prefix
from repro.sim.counters import UpdateCounter
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.graph import ASGraph

from tracing import Tracer

#: (owner, attribute, span name) of every timed callable.
TIMED = (
    (ASGraph, "is_in_customer_tree", "topology.customer_tree"),
    (Engine, "run", "engine.run"),
    (Delivery, "__call__", "network.deliver"),
    (ServiceCompletion, "__call__", "node.service"),
    (MRAIWakeup, "__call__", "node.wakeup"),
    (bgp_node, "select_best", "decision.scan"),
    (OutputChannel, "set_target", "mrai.set_target"),
    (OutputChannel, "wakeup", "mrai.wakeup"),
    (UpdateCounter, "record", "counters.record"),
)

#: (owner, attribute, counter name) of every counted callable.
COUNTED = (
    (Route, "preference_key", "route.preference_key"),
    # Only ``Route.preference_key`` calls the route module's own binding,
    # and only on a cache miss: this counts cold preference keys.
    (bgp_route, "stable_hash", "route.stable_hash"),
    (Prefix, "__hash__", "prefix.hash"),
)


class LayerProbe:
    """Wrappers for one traced run, plus the state they accumulate."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pending_peak = 0
        self.export_checks = 0
        self.export_allowed = 0
        #: wall seconds inside drivers with the update counter off / on
        self.counting_seconds = {False: 0.0, True: 0.0}
        self._counting = None
        self._since = 0.0

    def replacements(self) -> List[Tuple[object, str, Callable]]:
        """``(owner, attribute, make_wrapper)`` triples for :func:`patched`."""
        tracer = self.tracer
        patches: List[Tuple[object, str, Callable]] = []
        for owner, attribute, name in TIMED:
            patches.append((owner, attribute, _bind(tracer.timed, name)))
        for owner, attribute, name in COUNTED:
            patches.append((owner, attribute, _bind(tracer.counted, name)))
        patches += [
            (Engine, "schedule_at", self._track_pending),
            (bgp_node, "exportable", self._track_export),
            (SimNetwork, "start_counting", self._toggle(True)),
            (SimNetwork, "stop_counting", self._toggle(False)),
        ]
        return patches

    def _track_pending(self, schedule_at: Callable) -> Callable:
        def tracked(engine, at, callback):
            handle = schedule_at(engine, at, callback)
            pending = engine.pending_events
            if pending > self.pending_peak:
                self.pending_peak = pending
            return handle

        return tracked

    def _track_export(self, exportable: Callable) -> Callable:
        def tracked(route, neighbor_id, to_relationship):
            allowed = exportable(route, neighbor_id, to_relationship)
            self.export_checks += 1
            if allowed:
                self.export_allowed += 1
            return allowed

        return tracked

    def _toggle(self, counting: bool) -> Callable:
        def make(method: Callable) -> Callable:
            def toggled(network):
                self.switch_counting(counting)
                return method(network)

            return toggled

        return make

    def switch_counting(self, counting) -> None:
        """Close the open warm-up/measured interval; None ends the last one."""
        now = time.perf_counter()
        if self._counting is not None:
            self.counting_seconds[self._counting] += now - self._since
        self._counting = counting
        self._since = now


def _bind(wrap: Callable, name: str) -> Callable:
    return lambda fn: wrap(name, fn)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    probe: LayerProbe, hub, network: SimNetwork, wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    tracer = probe.tracer
    own = tracer.self_seconds
    calls = tracer.calls
    counts = tracer.counts
    hub_counts = hub.counters
    runs = hub_counts.get("node.decision_runs", 0)
    full_scans = calls["decision.scan"]
    key_calls = counts["route.preference_key"]
    set_targets = calls["mrai.set_target"]
    sends = hub_counts.get("mrai.sends", 0)
    nodes = network.nodes.values()
    return {
        "topology.load_s": own["topology.load"],
        "topology.customer_tree_checks": calls["topology.customer_tree"],
        "topology.customer_tree_s": own["topology.customer_tree"],
        "network.build_s": own["network.build"],
        "network.deliveries": hub_counts.get("network.deliveries", 0),
        "network.deliver_self_s": own["network.deliver"],
        "engine.events": network.engine.executed_events,
        "engine.cancelled": network.engine.cancelled_events,
        "engine.pending_peak": probe.pending_peak,
        "engine.dispatch_self_s": own["engine.run"],
        "node.updates": hub_counts.get("node.updates", 0),
        "node.service_self_s": own["node.service"],
        "node.wakeup_self_s": own["node.wakeup"],
        "node.queue_peak": max(node.max_queue_length for node in nodes),
        "decision.runs": runs,
        "decision.full_scans": full_scans,
        "decision.incremental_share": _share(runs - full_scans, runs),
        "decision.scan_s": own["decision.scan"],
        "route.pref_key_calls": key_calls,
        "route.pref_key_cold": counts["route.stable_hash"],
        "route.pref_key_warm_share": _share(
            key_calls - counts["route.stable_hash"], key_calls
        ),
        "export.checks": probe.export_checks,
        "export.allowed_share": _share(probe.export_allowed, probe.export_checks),
        "mrai.set_target_calls": set_targets,
        "mrai.sends": sends,
        "mrai.send_share": _share(sends, set_targets),
        "mrai.invalidations": hub_counts.get("mrai.invalidations", 0),
        "mrai.wakeups": hub_counts.get("mrai.wakeups", 0),
        "mrai.self_s": own["mrai.set_target"] + own["mrai.wakeup"],
        "counters.record_s": own["counters.record"],
        "prefix.hash_calls": counts["prefix.hash"],
        "cevent.warmup_s": probe.counting_seconds[False],
        "cevent.measured_s": probe.counting_seconds[True],
        "driver.self_s": own["driver"],
        "trace.wall_s": wall_s,
        "trace.residual_s": wall_s - sum(own.values()),
    }
