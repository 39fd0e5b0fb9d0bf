"""End-to-end integration: every paper workload, all execution modes.

For each script the assured (replicated + verified) output must equal
both the plain engine output and the reference interpreter's output —
under no faults and under a commission-faulty node.
"""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import Record
from repro.core.controller import ClusterBFTController
from repro.dataflow.interpreter import interpret
from repro.dataflow.piglatin import parse_script
from repro.faults.injection import single_commission
from repro.workloads import (
    AVERAGE_TEMPERATURE,
    FOLLOWER_ANALYSIS,
    TOP_AIRPORTS,
    TWO_HOP_ANALYSIS,
    daily_temperatures,
    flight_records,
    follower_edges,
)

WORKLOADS = {
    "follower": (FOLLOWER_ANALYSIS, "twitter/followers", lambda: follower_edges(3000)),
    "two_hop": (
        TWO_HOP_ANALYSIS,
        "twitter/followers",
        lambda: follower_edges(1200, num_users=200),
    ),
    "airline": (TOP_AIRPORTS, "airline/flights", lambda: flight_records(4000)),
    "weather": (
        AVERAGE_TEMPERATURE,
        "weather/daily",
        lambda: daily_temperatures(120, 40),
    ),
}

CONFIG = SystemConfig(
    cluster=ClusterConfig(num_nodes=16, slots_per_node=3, heartbeat_period=0.25),
    bft=ClusterBFTConfig(
        f=1, replication=4, verification_points=2, verifier_timeout=300.0
    ),
)


def build_controller(path, records, fault_plan=None):
    controller = ClusterBFTController(CONFIG, fault_plan=fault_plan, block_bytes=64 * 1024)
    controller.load_input(path, records)
    return controller


def as_multisets(outputs):
    # Key by repr: tuples may mix None with ints, which don't compare.
    return {
        path: sorted((r.fields for r in records), key=repr)
        for path, records in outputs.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestWorkloads:
    def test_plain_matches_interpreter(self, name):
        script, path, generate = WORKLOADS[name]
        records = generate()
        controller = build_controller(path, records)
        plain = controller.run_plain(script)
        reference = interpret(parse_script(script), inputs={path: records})
        assert as_multisets(plain.outputs) == as_multisets(reference)

    def test_assured_matches_plain_without_faults(self, name):
        script, path, generate = WORKLOADS[name]
        records = generate()
        plain = build_controller(path, records).run_plain(script)
        assured = build_controller(path, records).run_assured(script)
        assert assured.assured
        assert assured.attempts == 1
        assert assured.outputs == plain.outputs  # byte-identical commit

    def test_assured_masks_commission_fault(self, name):
        script, path, generate = WORKLOADS[name]
        records = generate()
        plain = build_controller(path, records).run_plain(script)
        assured = build_controller(
            path, records, fault_plan=single_commission("node_0000")
        ).run_assured(script)
        assert assured.assured
        assert assured.outputs == plain.outputs

    def test_latency_overhead_under_25_percent(self, name):
        """The paper reports <10% on minute-long jobs; our simulated jobs
        are seconds long, so heartbeat quantization weighs more — the
        bound here is deliberately looser than EXPERIMENTS.md's tuned
        benchmark runs."""
        script, path, generate = WORKLOADS[name]
        records = generate()
        plain = build_controller(path, records).run_plain(script)
        assured = build_controller(path, records).run_assured(script)
        overhead = assured.latency / plain.latency - 1.0
        assert overhead < 0.25, f"{name}: {overhead:.1%}"


def test_division_by_zero_commits_null_like_interpreter():
    """Pig semantics: x / 0 and x % 0 yield null, so a zero divisor
    commits a null field instead of failing the run."""
    script = """
    A = LOAD 'in' AS (k:int, v:int);
    B = FOREACH A GENERATE k, k / v AS q, k % v AS m;
    STORE B INTO 'out';
    """
    records = [Record((6, 3)), Record((5, 0)), Record((4, None)), Record((9, 2))]
    assured = build_controller("in", records).run_assured(script)
    reference = interpret(parse_script(script), inputs={"in": records})
    assert assured.assured
    assert as_multisets(assured.outputs) == as_multisets(reference)
    assert (5, None, None) in as_multisets(assured.outputs)["out"]
