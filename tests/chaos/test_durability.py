"""Chaos-harness durability tests: the crash sweep behind DUR1 and
CKPT1."""

import dataclasses

import pytest

from repro.chaos.invariants import (
    CKPT1,
    DurabilityCell,
    DurabilityProbe,
    RunContext,
    check_ckpt1,
    check_dur1,
)
from repro.chaos.runner import run_durability_probe, run_one
from repro.chaos.scenarios import DURABILITY_CAMPAIGN, SCENARIOS
from repro.core import journal as wal


class TestCtlCrashSweep:
    def test_every_decision_point_resumes_clean(self):
        """The acceptance sweep: the ctl-crash scenario crashes the
        control tier after every journal record across two seeds, and
        every resume must satisfy DUR1 (same verdict, identical
        outputs)."""
        scenario = SCENARIOS["ctl-crash"]
        for seed in (1, 2):
            ctx, violations = run_one(scenario, seed)
            dur1 = [v for v in violations if v.invariant == "DUR1"]
            assert dur1 == [], f"seed {seed}: {dur1}"
            assert not violations, f"seed {seed}: {violations}"
            probe = ctx.durability
            assert probe is not None
            assert probe.reference_assured
            assert len(probe.cells) >= 5
            # Crashes landed on genuinely different decision points.
            kinds = {cell.kind for cell in probe.cells}
            assert {wal.RUN_START, wal.ATTEMPT_START, wal.VERDICT} <= kinds

    def test_final_attempt_boundary_is_swept(self):
        """ctl-crash-final has a zero rerun budget: the crash after the
        last allowed attempt's ``attempt_end`` resumes with start_attempt
        past max_reruns, and the settled snapshot must still read as
        assured — the verdict-flip regression the sweep previously
        missed because every scenario assured on an earlier attempt."""
        scenario = SCENARIOS["ctl-crash-final"]
        for seed in (1, 2):
            ctx, violations = run_one(scenario, seed)
            assert violations == [], f"seed {seed}: {violations}"
            probe = ctx.durability
            assert probe.reference_assured
            past_budget = [
                c
                for c in probe.cells
                if c.kind == wal.ATTEMPT_END
                and c.start_attempt > scenario.max_reruns
            ]
            assert past_budget, "no crash landed on the final boundary"
            assert all(c.assured and not c.exhausted for c in past_budget)

    def test_mid_escalation_boundaries_are_swept(self):
        """ctl-crash-omission is tuned so the journal spans several
        attempts: crashes must land on attempt_end boundaries with
        commits to replay, exercising the snapshot-restore path."""
        probe = run_durability_probe(SCENARIOS["ctl-crash-omission"], 1)
        kinds = {cell.kind for cell in probe.cells}
        assert wal.ATTEMPT_END in kinds
        resumed_later = [c for c in probe.cells if c.start_attempt > 0]
        assert resumed_later, "no crash resumed past the first attempt"
        # Checkpoint-free scenarios run no twin and replay no checkpoint.
        assert probe.twin_outputs is None and probe.checkpoint_records == 0
        assert all(cell.checkpoints_replayed == 0 for cell in probe.cells)


class TestCkptSweep:
    def test_every_checkpoint_boundary_is_swept(self):
        """The merged sweep crashes after every journal record, so each
        ``checkpoint`` record and the record after it are crash points,
        and every crash on a checkpoint restores from it."""
        ctx, violations = run_one(SCENARIOS["ckpt-baseline"], 1)
        assert violations == []
        probe = ctx.durability
        assert probe.checkpoint_records >= 1
        assert probe.twin_outputs == probe.reference_outputs
        swept = {cell.seq for cell in probe.cells}
        assert swept == set(range(1, max(swept) + 1))
        on_checkpoint = [c for c in probe.cells if c.kind == wal.CHECKPOINT]
        assert len(on_checkpoint) == probe.checkpoint_records
        assert {c.seq + 1 for c in on_checkpoint} <= swept
        assert all(c.checkpoints_replayed >= 1 for c in on_checkpoint)


OUTPUTS = {"out": (b"a", b"b")}


def fake_cell(assured=True, outputs=OUTPUTS, kind=wal.VERDICT, replayed=0):
    return DurabilityCell(
        seq=3,
        kind=kind,
        start_attempt=0,
        commits_replayed=0,
        checkpoints_replayed=replayed,
        assured=assured,
        exhausted=False,
        outputs=outputs,
    )


def fake_ctx(probe):
    return RunContext(
        scenario=SCENARIOS["ctl-crash"],
        controller=None,
        results=[],
        truth={},
        durability=probe,
    )


class TestDur1Checker:
    def probe(self, cells):
        return DurabilityProbe(
            reference_assured=True,
            reference_outputs=OUTPUTS,
            cells=tuple(cells),
        )

    def test_matching_cells_pass(self):
        probe = self.probe([fake_cell()])
        assert check_dur1(fake_ctx(probe)) == []

    def test_verdict_flip_is_a_violation(self):
        probe = self.probe([fake_cell(assured=False)])
        violations = check_dur1(fake_ctx(probe))
        assert len(violations) == 1
        assert "assured" in violations[0].detail

    def test_output_divergence_is_a_violation(self):
        probe = self.probe([fake_cell(outputs={"out": (b"a", b"X")})])
        violations = check_dur1(fake_ctx(probe))
        assert len(violations) == 1
        assert "diverges" in violations[0].detail

    def test_no_probe_means_no_violations(self):
        assert check_dur1(fake_ctx(None)) == []


#: A checkpointed probe that satisfies CKPT1: one checkpoint record, a
#: twin equal to the reference, and a crash on the checkpoint that
#: restored from it.
CKPT_PROBE = DurabilityProbe(
    reference_assured=True,
    reference_outputs=OUTPUTS,
    cells=(fake_cell(kind=wal.CHECKPOINT, replayed=1), fake_cell()),
    checkpoint_records=1,
    twin_assured=True,
    twin_outputs=OUTPUTS,
)


class TestCkpt1Checker:
    @pytest.mark.parametrize(
        "change, detail",
        [
            ({}, None),
            ({"checkpoint_records": 0, "twin_outputs": None}, None),
            ({"checkpoint_records": 0}, "no checkpoint WAL records"),
            ({"twin_assured": False}, "checkpoint-free twin reported"),
            ({"twin_outputs": {"out": (b"a", b"X")}}, "diverges"),
            ({"twin_outputs": {"out": (b"b", b"a")}}, "diverges"),
            (
                {"cells": (fake_cell(kind=wal.CHECKPOINT, replayed=0),)},
                "replayed none",
            ),
        ],
        ids=[
            "holds",
            "no-twin",
            "no-checkpoints",
            "twin-verdict",
            "twin-content",
            "twin-order",
            "no-restore",
        ],
    )
    def test_checkpoint_only_violations(self, change, detail):
        probe = dataclasses.replace(CKPT_PROBE, **change)
        violations = check_ckpt1(fake_ctx(probe))
        if detail is None:
            assert violations == []
        else:
            assert [v.invariant for v in violations] == [CKPT1]
            assert detail in violations[0].detail
        # Per-crash-point verdicts and outputs are DUR1's alone.
        assert check_dur1(fake_ctx(probe)) == []


class TestCampaignWiring:
    def test_durability_campaign_members(self):
        assert set(DURABILITY_CAMPAIGN) == {
            "ctl-crash",
            "ctl-crash-omission",
            "ctl-crash-final",
            "exhaustion",
        }
        for name in DURABILITY_CAMPAIGN:
            assert name in SCENARIOS

    def test_exhaustion_scenario_is_a_live_outcome(self):
        """Rerun-budget exhaustion must be an explicit verdict the
        LIVE1 checker accepts — not a violation, not a crash."""
        ctx, violations = run_one(SCENARIOS["exhaustion"], 1)
        assert violations == []
        assert all(r.exhausted for r in ctx.results)
        assert not any(r.assured for r in ctx.results)
