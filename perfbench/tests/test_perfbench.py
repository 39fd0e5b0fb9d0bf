"""Tests of the benchmark itself, at small input sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("follower", "airline_rerun", "tenants")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's inputs; the shape guards must still hold."""
    monkeypatch.setattr(workloads, "FOLLOWER_EDGES", 4000)
    monkeypatch.setattr(workloads, "AIRLINE_FLIGHTS", 4000)
    monkeypatch.setattr(
        workloads,
        "TENANT_TRACE",
        {**workloads.TENANT_TRACE, "tenants": 3, "jobs_per_tenant": 4, "rows": 20, "queue_limit": 2},
    )


def _run(capsys, workload: str, trace: int, seed: int = 7) -> tuple[int, dict | None]:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_at_one_seed_give_identical_sim_metrics(small, capsys, workload):
    first_code, first = _run(capsys, workload, trace=0)
    second_code, second = _run(capsys, workload, trace=0)
    assert first_code == second_code == 0
    assert first["correct"] and first["failed"] == 0
    sim = {name: value for name, value in _values(first).items() if name.startswith("sim_")}
    assert len(sim) == 4
    assert sim == {name: _values(second)[name] for name in sim}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_host_time(small, capsys, workload):
    code, result = _run(capsys, workload, trace=1)
    # correct also asserts the traced replay was neutral: the same
    # simulated metrics and output digests, and every wrapper removed.
    assert code == 0 and result["correct"]
    values = _values(result)
    self_times = [values[f"{layer}.self_s"] for layer in layers.LAYERS]
    unattributed = values["unattributed.self_s"]
    assert min(self_times) >= 0.0 and unattributed >= 0.0
    assert math.isclose(sum(self_times) + unattributed, values["trace.host_s"], rel_tol=1e-9)


def test_wrappers_are_restored_after_an_error():
    before = layers.bound_entry_points()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Tracer()):
            assert layers.bound_entry_points() != before
            raise RuntimeError("boom")
    assert layers.bound_entry_points() == before


@pytest.mark.parametrize(
    "workload, breaks_shape",
    [
        # Without the commission node nothing is evicted or quarantined.
        ("tenants", lambda mp: mp.setitem(workloads.TENANT_TRACE, "faults", [])),
        # r=4 masks the struck node: one attempt, nothing to reuse.
        (
            "airline_rerun",
            lambda mp: mp.setattr(
                workloads,
                "AIRLINE_CONFIG",
                dataclasses.replace(
                    workloads.AIRLINE_CONFIG,
                    bft=dataclasses.replace(workloads.AIRLINE_CONFIG.bft, replication=4),
                ),
            ),
        ),
    ],
)
def test_shape_guard_violation_exits_nonzero(small, monkeypatch, capsys, workload, breaks_shape):
    breaks_shape(monkeypatch)
    code, result = _run(capsys, workload, trace=0)
    assert code == 3 and result is None


def test_output_mismatch_with_the_oracle_fails_the_run(small, monkeypatch, capsys):
    interpret = workloads.interpret

    def oracle_missing_a_record(plan, **kwargs):
        return {path: records[1:] for path, records in interpret(plan, **kwargs).items()}

    monkeypatch.setattr(workloads, "interpret", oracle_missing_a_record)
    code, result = _run(capsys, "follower", trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 3


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "follower", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
