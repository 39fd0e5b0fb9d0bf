"""Chaos campaign harness.

Sweeps a matrix of Byzantine fault scenarios across seeds on the full
assured-execution stack and checks declarative safety, liveness,
degradation, durability, regional, tenancy, alerting and checkpoint
invariants against each cell (catalogue: :mod:`repro.chaos.invariants`).

Entry points: :func:`repro.chaos.runner.run_campaign` and the
``repro chaos run`` CLI (:mod:`repro.chaos.cli`).
"""

from repro.chaos.invariants import (
    DEGR1,
    INVARIANTS,
    LIVE1,
    LIVE2,
    SAFE1,
    SAFE2,
    RunContext,
    Violation,
    check_all,
)
from repro.chaos.runner import CampaignError, run_campaign
from repro.chaos.scenarios import (
    CAMPAIGNS,
    DEFAULT_CAMPAIGN,
    SCENARIOS,
    SMOKE_CAMPAIGN,
    FaultSpec,
    Scenario,
    build_fault_plan,
    resolve_scenarios,
)

__all__ = [
    "CAMPAIGNS",
    "CampaignError",
    "DEFAULT_CAMPAIGN",
    "DEGR1",
    "FaultSpec",
    "INVARIANTS",
    "LIVE1",
    "LIVE2",
    "RunContext",
    "SAFE1",
    "SAFE2",
    "SCENARIOS",
    "SMOKE_CAMPAIGN",
    "Scenario",
    "Violation",
    "build_fault_plan",
    "check_all",
    "resolve_scenarios",
    "run_campaign",
]
