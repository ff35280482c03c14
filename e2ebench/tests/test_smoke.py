"""Tiny-n smoke runs of every workload runner, the oracle check included."""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import benchpaths
import run
from repro.bgp.config import BGPConfig
from repro.bgp.node import BGPNode
from repro.bgp.route import import_route
from repro.prefix.prefix import host_prefix
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.serialization import save_json
from repro.topology.types import NodeType, Relationship
from tracing import patched
from workloads import WORKLOADS, WithdrawalCheck, measure, mismatched_prefixes

TINY_N = 100
SEED = 3

#: Runs one traced tiny workload and prints its per-layer counts.
TRACED_COUNTS = """
import dataclasses, json, sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS, measure
workload = dataclasses.replace(WORKLOADS[sys.argv[3]], n={n}, repeats=1)
layers = measure(workload, sys.argv[4], seed={seed}, seconds=0.1, traced=True)["layers"]
print(json.dumps({{k: v for k, v in layers.items() if not k.endswith("_s")}}))
"""


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], n=TINY_N, repeats=2)


class WorkloadSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.graph = generate_topology(baseline_params(TINY_N), seed=SEED)
        cls.topology = cls.tmp / "topology.json"
        save_json(cls.graph, cls.topology)
        spec = json.loads((benchpaths.ROOT / "BENCHMARK.json").read_text())
        cls.units = {
            kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")
        }

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def run_workload(self, name, traced):
        return measure(tiny(name), str(self.topology), seed=SEED, seconds=0.1, traced=traced)

    def test_end_to_end_units_match_the_benchmark_description(self):
        self.assertEqual(run.END_TO_END_UNITS, self.units["end_to_end"])

    def test_every_workload_matches_the_oracle_traced_or_not(self):
        original_run = Engine.__dict__["run"]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plain = self.run_workload(name, traced=False)
                self.assertGreater(plain["ops"], 0)
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(len(plain["setup_s"]), 2)
                self.assertGreater(plain["updates"], 0)
                traced = self.run_workload(name, traced=True)
                self.assertEqual(traced["failed"], 0)
                self.assertEqual(traced["counts"], plain["counts"])
                layers = traced["layers"]
                self.assertEqual(layers["engine.events"], plain["counts"]["engine.events"])
                self.assertGreater(layers["decision.runs"], 0)
                self.assertGreater(layers["mrai.set_target_calls"], 0)
                self.assertGreater(layers["trace.residual_s"], -1e-6)
                self.assertIs(Engine.__dict__["run"], original_run)
                layers = run.per_layer(plain, traced, generate_s=0.5)
                self.assertEqual(
                    {name: run.layer_unit(name) for name in layers}, self.units["per_layer"]
                )
                self.assertLessEqual(set(self.units["end_to_end"]), set(run.end_to_end(plain)))

    def test_traced_counts_repeat_in_fresh_processes(self):
        script = TRACED_COUNTS.format(n=TINY_N, seed=SEED)
        paths = [str(benchpaths.BENCH), str(benchpaths.ROOT / "src")]
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script, *paths, "cevent-wrate-4k", str(self.topology)],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for _ in range(2)
        ]
        first, second = (json.loads(out.splitlines()[-1]) for out in outputs)
        self.assertGreater(first["route.pref_key_cold"], 0)
        self.assertEqual(first, second)


class OracleCheckTest(unittest.TestCase):
    def test_tampered_routes_are_mismatches(self):
        graph = generate_topology(baseline_params(TINY_N), seed=SEED)
        network = SimNetwork(graph, BGPConfig(mrai=1.0), seed=SEED)
        origin = graph.nodes_of_type(NodeType.C)[0]
        prefix = host_prefix(0)
        network.originate(origin, prefix)
        network.run_to_convergence()
        announced = {prefix: origin}
        self.assertEqual(mismatched_prefixes(network, graph, announced), set())

        holder = next(n for n in network.nodes if n != origin)
        network.node(holder).loc_rib.install(prefix, None)
        self.assertEqual(mismatched_prefixes(network, graph, announced), {prefix})

        network.node(origin).loc_rib.install(
            host_prefix(1), import_route(host_prefix(1), (holder,), Relationship.PEER)
        )
        self.assertEqual(
            mismatched_prefixes(network, graph, announced), {prefix, host_prefix(1)}
        )

    def test_withdrawal_that_does_not_propagate_is_caught(self):
        graph = generate_topology(baseline_params(TINY_N), seed=SEED)
        network = SimNetwork(graph, BGPConfig(mrai=1.0), seed=SEED)
        origin = graph.nodes_of_type(NodeType.C)[0]
        prefix = host_prefix(0)
        network.originate(origin, prefix)
        network.run_to_convergence()
        check = WithdrawalCheck()
        lost = (BGPNode, "withdraw_origin", lambda _original: lambda node, prefix: None)
        with patched(check.replacements()):
            network.withdraw(origin, prefix)
            network.run_to_convergence()
            self.assertEqual(check.stale, set())

            network.originate(origin, prefix)
            network.run_to_convergence()
            with patched([lost]):
                network.withdraw(origin, prefix)
            network.run_to_convergence()
        self.assertEqual(check.stale, {prefix})


class NoSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "e2ebench"
            bench.mkdir()
            for source in benchpaths.BENCH.glob("*.py"):
                shutil.copy(source, bench)
            completed = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload",
                 "cevent-wrate-4k", "--seed", "1", "--seconds", "10", "--trace", "0"],
                capture_output=True, text=True, timeout=60, cwd=tmp,
            )
        self.assertEqual(completed.returncode, 2)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
