"""Pinned WAL bytes: sha256 digests of journals, a service ledger and
audit logs, recorded once and compared on every run.

The determinism tests elsewhere compare two runs of the *same* code, so
a change that alters the bytes the same way on every run passes them.
These pins catch that.  A control-tier refactor that claims unchanged
WAL bytes must leave every digest here untouched; a change that alters
the bytes on purpose re-records them (running this file as a script
prints the current digests) and says why.
"""

import hashlib
import json

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.faults.behaviors import (
    CommissionBehavior,
    EquivocateBehavior,
    SlowBehavior,
)
from repro.faults.injection import FaultPlan
from repro.service.bench import synth_trace
from repro.service.ledger import MultiplexedLedger
from repro.service.loop import ClusterBFTService
from repro.service.tenants import parse_trace

#: The two-job script and inputs of ``test_checkpoint.py``: one internal
#: job boundary, so checkpoints and reruns both have something to do.
SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
H = GROUP C BY n;
D = FOREACH H GENERATE group AS n, COUNT(C) AS m;
STORE D INTO 'out';
"""

ROWS = [(i % 5, (i * 13) % 50 or None) for i in range(160)]


def make_config(**bft) -> SystemConfig:
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(
            f=1, replication=4, verification_points=2, **bft
        ),
        seed=20131209,
    )


def slow_node():
    plan = FaultPlan()
    plan.assign("node_0003", SlowBehavior(factor=8.0))
    return plan


def commission_and_equivocation():
    plan = FaultPlan()
    plan.assign("node_0002", CommissionBehavior(probability=1.0))
    plan.assign("node_0005", EquivocateBehavior(probability=1.0))
    return plan


#: name -> (config kwargs, fault plan factory).  The first three are
#: ``test_checkpoint.py``'s configs; the fault runs write ``fault``,
#: ``late_fault``, ``analyzer`` and ``eviction`` or ``quarantine``.
RUNS = {
    "checkpointed_clean": (
        {"checkpoints": True, "verifier_timeout": 60.0}, None,
    ),
    "checkpointed_slow_rerun": (
        {"checkpoints": True, "verifier_timeout": 6.0}, slow_node,
    ),
    "slow_rerun": ({"checkpoints": False, "verifier_timeout": 6.0}, slow_node),
    "faults_evict": (
        {"suspicion_threshold": 0.3, "suspicion_min_jobs": 1,
         "quarantine_threshold": 0.2},
        commission_and_equivocation,
    ),
    "faults_quarantine_checkpointed": (
        {"checkpoints": True, "suspicion_threshold": 0.99,
         "suspicion_min_jobs": 1, "quarantine_threshold": 0.2},
        commission_and_equivocation,
    ),
}

JOURNAL_PINS = {
    "checkpointed_clean": (
        "94ccee24f38c35a12219c7bb7f77e34c31dafe4381da9d83f62a5444b07f7b08"
    ),
    "checkpointed_slow_rerun": (
        "6a2dca603a0ce30ac010633a2815ac313a35829daacbfa676e3f160f57a8b313"
    ),
    "faults_evict": (
        "2ac0001b10d90a7d6c042ff7e5e7d6463d341402e2b735166bc0f92f56b3bb27"
    ),
    "faults_quarantine_checkpointed": (
        "d1fb7ebe56e4fcdc9f4deef539d25840aa0d189640b718469c51be613798605d"
    ),
    "ledger_synth_seed3": (
        "76101702e7f756e2485e0cd2cb3b84c9790d2f1f97dfe8ae48337a478dbf667c"
    ),
    "resumed_checkpointed_slow_rerun": (
        "a8add89ee87331ce562f901bed7ad3ac5544f71397a9f28ac8339d379ead249a"
    ),
    "slow_rerun": (
        "ffc31ff64267af6e2ed6930f2494e128bba11d5de4f66ea9102d34ca5db756dc"
    ),
}

AUDIT_PINS = {
    "checkpointed_clean": (
        "e74d1e27ff35c7b3560c63ef5841a9578ffbdc54a5b58de7a6238574df8ffcad"
    ),
    "checkpointed_slow_rerun": (
        "82d7b9979149872d7668b10694b14f761cceb42f5637d063b43d0497fd04bfab"
    ),
    "faults_evict": (
        "1bf6d1e55e68acfe0c9d11cb61997f453e09ff2a2b4423c8a87c47d0e3e33c8d"
    ),
    "faults_quarantine_checkpointed": (
        "193ceee75b13bf8d1537350ed755a386895449db33aa174c912248b0c7a68110"
    ),
    "ledger_synth_seed3": (
        "c5458c91d3e5596cfdddd9c94cefe63dcaf013eabb391b699943577b831baa4b"
    ),
    "resumed_checkpointed_slow_rerun": (
        "5c76e6be44267048e039bbd1bd164d324a602edd627d416d99bde7b7245b23d4"
    ),
    "slow_rerun": (
        "53069b3fdb423ee085bea0730e589fd58a68f26008c64f42ed0f42eaee6264e4"
    ),
}


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def audit_digest(audit) -> str:
    events = [
        [event.time, event.kind, event.subject, event.details]
        for event in audit.events()
    ]
    text = json.dumps(events, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def journaled_run(name, path, crash_hook=None):
    bft, fault_plan = RUNS[name]
    config = make_config(**bft)
    inputs = {"in": records_from_rows(ROWS)}
    journal = wal.Journal.create(
        path, config, SCRIPT, inputs, block_bytes=2048, crash_hook=crash_hook
    )
    controller = ClusterBFTController(
        config,
        fault_plan=fault_plan() if fault_plan else None,
        block_bytes=2048,
        journal=journal,
    )
    controller.load_input("in", inputs["in"])
    controller.run_assured(SCRIPT)
    return controller


def digests(name, tmp_path) -> tuple[str, str]:
    path = str(tmp_path / f"{name}.wal")
    if name == "ledger_synth_seed3":
        trace = parse_trace(synth_trace(seed=3))
        service = ClusterBFTService(
            trace, ledger=MultiplexedLedger.create(path, trace.text)
        )
        service.run()
        return file_digest(path), audit_digest(service.audit)
    if name == "resumed_checkpointed_slow_rerun":
        # Crash right after the first checkpoint record, then resume:
        # pins the restore path as well as the uninterrupted one.
        reference = str(tmp_path / "reference.wal")
        journaled_run("checkpointed_slow_rerun", reference)
        records, _ = wal.read_journal(reference)
        first = next(r["seq"] for r in records if r["kind"] == wal.CHECKPOINT)
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(
                "checkpointed_slow_rerun", path, crash_hook=wal.crash_at(first)
            )
        recovered = resume_run(path, fault_plan=slow_node())
        return file_digest(path), audit_digest(recovered.controller.audit)
    controller = journaled_run(name, path)
    return file_digest(path), audit_digest(controller.audit)


@pytest.mark.parametrize("name", sorted(JOURNAL_PINS))
def test_wal_and_audit_bytes_are_pinned(name, tmp_path):
    journal, audit = digests(name, tmp_path)
    assert journal == JOURNAL_PINS[name], f"{name}: journal bytes changed"
    assert audit == AUDIT_PINS[name], f"{name}: audit events changed"


if __name__ == "__main__":
    import pathlib
    import tempfile

    for name in sorted(JOURNAL_PINS):
        with tempfile.TemporaryDirectory() as scratch:
            journal, audit = digests(name, pathlib.Path(scratch))
        print(f"{name:32} journal={journal} audit={audit}")
