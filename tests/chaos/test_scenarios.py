"""Tests for chaos scenario definitions and resolution."""

import pytest

from repro.chaos.scenarios import (
    CAMPAIGNS,
    DEFAULT_CAMPAIGN,
    GEO_CAMPAIGN,
    REGION_LOSS,
    SCENARIOS,
    SERVICE_CAMPAIGN,
    SMOKE_CAMPAIGN,
    FaultSpec,
    Scenario,
    ServiceScenario,
    build_fault_plan,
    resolve_scenarios,
)
from repro.common.errors import ReproError
from repro.faults.behaviors import CommissionBehavior, CrashBehavior


class TestResolution:
    def test_campaign_names_resolve(self):
        assert [s.name for s in resolve_scenarios("default")] == list(
            DEFAULT_CAMPAIGN
        )
        assert [s.name for s in resolve_scenarios("smoke")] == list(SMOKE_CAMPAIGN)

    def test_default_campaign_is_every_unweakened_scenario(self):
        """The default campaign is derived, so every invariant family
        (DUR1, CKPT1, REG1, TEN1, OBS1 included) rides it."""
        assert set(DEFAULT_CAMPAIGN) == set(SCENARIOS) - {"weakened-safe1"}

    def test_comma_list_resolves_in_order(self):
        chosen = resolve_scenarios("crash, baseline")
        assert [s.name for s in chosen] == ["crash", "baseline"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            resolve_scenarios("no-such-thing")

    def test_empty_selector_rejected(self):
        with pytest.raises(ReproError, match="no scenarios"):
            resolve_scenarios(",")

    def test_campaign_members_exist(self):
        for members in CAMPAIGNS.values():
            for name in members:
                assert name in SCENARIOS

    def test_weakened_scenario_not_in_campaigns(self):
        """The deliberately broken scenario must never ride a campaign."""
        for members in CAMPAIGNS.values():
            assert "weakened-safe1" not in members


class TestScenarioConfigs:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_config_validates(self, name):
        scenario = SCENARIOS[name]
        if isinstance(scenario, ServiceScenario):
            # Service scenarios validate through the fail-closed trace
            # parser instead of a SystemConfig.
            from repro.service.tenants import parse_trace

            parse_trace(scenario.trace_text(seed=1), name=name)
        else:
            scenario.system_config(seed=1)

    def test_seed_perturbs_config_seed(self):
        scenario = SCENARIOS["baseline"]
        assert (
            scenario.system_config(1).seed != scenario.system_config(2).seed
        )

    def test_network_fault_detection(self):
        assert SCENARIOS["net-drop"].uses_network_faults
        assert not SCENARIOS["commission"].uses_network_faults


class TestServiceScenarios:
    def test_service_campaign_members_are_service_scenarios(self):
        assert CAMPAIGNS["service"] == SERVICE_CAMPAIGN
        for name in SERVICE_CAMPAIGN:
            assert isinstance(SCENARIOS[name], ServiceScenario)

    def test_trace_text_perturbs_seed_and_names_scenario(self):
        import json

        scenario = SCENARIOS["tenant-flood"]
        one = json.loads(scenario.trace_text(1))
        two = json.loads(scenario.trace_text(2))
        assert one["seed"] != two["seed"]
        assert one["name"] == "tenant-flood"

    def test_flood_scenario_expects_rejections(self):
        scenario = SCENARIOS["tenant-flood"]
        assert scenario.expect_rejections
        assert scenario.honest_p99_bound is not None

    def test_quarantine_scenario_expects_cross_tenant_handoff(self):
        assert SCENARIOS["cross-tenant-quarantine"].expect_cross_tenant_quarantine


class TestFaultPlans:
    def test_build_fault_plan_resolves_indices(self):
        scenario = Scenario(
            name="t",
            description="",
            faults=(
                FaultSpec("commission", 1, (("probability", 0.5),)),
                FaultSpec("crash", 2, (("after_tasks", 4),)),
            ),
        )
        plan = build_fault_plan(scenario, ["n0", "n1", "n2"])
        assert isinstance(plan.behavior_for("n1"), CommissionBehavior)
        assert plan.behavior_for("n1").probability == 0.5
        assert isinstance(plan.behavior_for("n2"), CrashBehavior)
        assert plan.behavior_for("n2").after_tasks == 4

    def test_network_faults_excluded_from_node_plan(self):
        scenario = SCENARIOS["net-drop"]
        plan = build_fault_plan(scenario, [f"n{i}" for i in range(12)])
        assert plan.faulty_nodes() == set()

    def test_unknown_kind_rejected(self):
        scenario = Scenario(name="t", description="", faults=(FaultSpec("warp", 0),))
        with pytest.raises(ReproError, match="unknown fault kind"):
            build_fault_plan(scenario, ["n0"])

    def test_out_of_range_index_rejected(self):
        scenario = Scenario(
            name="t", description="", faults=(FaultSpec("commission", 9),)
        )
        with pytest.raises(ReproError, match="out of range"):
            build_fault_plan(scenario, ["n0"])


class TestGeoScenarios:
    _REGIONS = (("east", 2, 1.0), ("west", 2, 1.0))

    def test_geo_campaign_registered(self):
        assert CAMPAIGNS["geo"] == GEO_CAMPAIGN
        assert [s.name for s in resolve_scenarios("geo")] == list(GEO_CAMPAIGN)

    def test_region_loss_expands_to_crash_on_every_member(self):
        scenario = Scenario(
            name="t",
            description="",
            num_nodes=4,
            regions=self._REGIONS,
            faults=(FaultSpec(REGION_LOSS, 1),),
        )
        plan = build_fault_plan(scenario, [f"n{i}" for i in range(4)])
        assert plan.faulty_nodes() == {"n2", "n3"}
        for node in ("n2", "n3"):
            behavior = plan.behavior_for(node)
            assert isinstance(behavior, CrashBehavior)
            assert behavior.after_tasks == 0  # dead from the first heartbeat

    def test_region_loss_index_out_of_range_rejected(self):
        scenario = Scenario(
            name="t",
            description="",
            num_nodes=4,
            regions=self._REGIONS,
            faults=(FaultSpec(REGION_LOSS, 5),),
        )
        with pytest.raises(ReproError, match="out of range"):
            build_fault_plan(scenario, [f"n{i}" for i in range(4)])

    def test_geo_configs_carry_topology(self):
        config = SCENARIOS["region-loss"].system_config(seed=1)
        assert config.cluster.regions
        assert config.cluster.wan_latency_seconds > 0.0
        slow = SCENARIOS["slow-region-equivocate"].system_config(seed=1)
        assert slow.bft.region_suspicion_threshold is not None

    def test_region_loss_never_targets_majority(self):
        """Chaos scenarios must lose a *minority* region — assurance
        under majority loss is not a claim the campaign makes."""
        for name in GEO_CAMPAIGN:
            scenario = SCENARIOS[name]
            for spec in scenario.faults:
                if spec.kind != REGION_LOSS:
                    continue
                count = scenario.regions[spec.node][1]
                assert count * 2 < scenario.num_nodes


class TestObsCampaign:
    def test_obs_campaign_registered(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN

        assert CAMPAIGNS["obs"] == OBS_CAMPAIGN
        assert set(OBS_CAMPAIGN) <= set(SCENARIOS)

    def test_obs_scenarios_declare_known_alerts(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN
        from repro.telemetry.slo import DEFAULT_RULES

        known = {rule.name for rule in DEFAULT_RULES}
        for name in OBS_CAMPAIGN:
            expected = SCENARIOS[name].expected_alerts
            assert expected, f"{name} declares no expected alerts"
            assert set(expected) <= known

    def test_non_obs_scenarios_declare_none(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN

        for name, scenario in SCENARIOS.items():
            if name not in OBS_CAMPAIGN:
                assert getattr(scenario, "expected_alerts", ()) == ()
