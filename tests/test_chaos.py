"""Chaos-campaign tests: every scenario must be survivable and safe.

These are the repo's adversarial tests: scripted crash storms, rolling
partitions, flapping links and crashes aimed at in-flight migrations,
all under heartbeat failure detection (so false suspicion is possible),
with the invariant monitor armed the whole time.  A campaign that
returns at all proves no run hung, no object was lost and every safety
invariant held; the assertions on the injection counters prove the
scenario actually did something.
"""

import pytest

from repro.availability import (
    SCENARIOS,
    ChaosCampaign,
    ChaosCampaignParameters,
    ChaosOrchestrator,
    ChaosScenario,
    CrashDuringMigration,
    CrashStorm,
    FaultToleranceParameters,
    FaultToleranceWorkload,
    run_chaos_campaign,
)
from repro.errors import ConfigurationError, InvariantViolationError

#: Short horizon that still fires every built-in scenario's actions.
SIM_TIME = 900.0


def params(scenario, seed=0, **kw):
    return ChaosCampaignParameters(
        scenario=scenario, seed=seed, sim_time=SIM_TIME, **kw
    )


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ChaosCampaignParameters(scenario="kaiju").validate()

    def test_scenario_needs_actions(self):
        with pytest.raises(ConfigurationError, match="no actions"):
            ChaosScenario("empty", ()).validate()

    def test_bad_victim_mode_rejected(self):
        scenario = ChaosScenario(
            "bad", (CrashDuringMigration(victim="bystander"),)
        )
        with pytest.raises(ConfigurationError, match="victim"):
            scenario.validate()

    def test_orchestrator_needs_injector(self):
        workload = FaultToleranceWorkload(
            FaultToleranceParameters(policy="sedentary")
        )
        with pytest.raises(ConfigurationError, match="fault injector"):
            ChaosOrchestrator(workload, SCENARIOS["crash-storm"])


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_survives_with_invariants_held(self, name):
        result = run_chaos_campaign(params(name))
        assert result.survived
        assert result.invariant_checks > 0
        assert result.ft.raw["calls"] > 0  # progress despite the chaos

    def test_crash_storm_injects_crashes(self):
        result = run_chaos_campaign(params("crash-storm"))
        assert result.injections["crashes_injected"] > 0
        assert result.ft.node_failures > 0

    def test_rolling_partition_causes_false_suspicion(self):
        result = run_chaos_campaign(params("rolling-partition"))
        assert result.injections["partitions_injected"] > 0
        # Partitioned nodes are healthy but silenced: suspicion is
        # false, and it must have recovered (the run survived).
        assert result.ft.false_suspicions > 0

    def test_flapping_links_flap(self):
        result = run_chaos_campaign(params("flapping-links"))
        assert result.injections["link_flaps"] > 0

    def test_crash_during_migration_hits_a_transfer(self):
        result = run_chaos_campaign(params("crash-during-migration"))
        assert result.injections["migration_crashes"] > 0
        # The ambush aborts the transfer; rollback reinstalls at the
        # origin and the no-object-lost invariant verified it.
        assert result.survived

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mayhem_seed_matrix(self, seed):
        result = run_chaos_campaign(params("mayhem", seed=seed))
        assert result.survived
        injections = result.injections
        assert injections["crashes_injected"] > 0
        assert injections["partitions_injected"] > 0
        assert injections["link_flaps"] > 0


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        a = run_chaos_campaign(params("mayhem", seed=5))
        b = run_chaos_campaign(params("mayhem", seed=5))
        assert a.injections == b.injections
        assert a.ft.mean_call_duration == b.ft.mean_call_duration
        assert a.ft.suspicions == b.ft.suspicions
        assert a.ft.raw["calls"] == b.ft.raw["calls"]

    def test_different_seed_different_campaign(self):
        a = run_chaos_campaign(params("mayhem", seed=5))
        b = run_chaos_campaign(params("mayhem", seed=6))
        assert a.ft.mean_call_duration != b.ft.mean_call_duration


class TestInvariantTeeth:
    def test_monitor_catches_seeded_corruption(self):
        # Sabotage the registry behind the runtime's back: the
        # unique-home invariant must notice, and the violation must
        # carry the recent trace for diagnosis.
        campaign = ChaosCampaign(params("crash-storm"))
        campaign.workload.start()
        campaign.workload.system.run(until=50)
        victim = campaign.workload.servers[0]
        campaign.workload.system.registry.depart(victim)
        with pytest.raises(InvariantViolationError) as excinfo:
            campaign.monitor.check_now()
        assert "unique-home" in str(excinfo.value)
        assert campaign.monitor.violations

    def test_executions_on_crashed_guard(self):
        campaign = ChaosCampaign(params("crash-storm"))
        campaign.workload.system.invocations.executions_on_crashed = 1
        with pytest.raises(InvariantViolationError, match="crashed node"):
            campaign.monitor.check_now()


class TestSweepIntegration:
    def test_chaos_sweep_rows(self):
        from repro.experiments.outlook import chaos_sweep, format_outlook_table

        header, rows = chaos_sweep(
            scenarios=["crash-storm"], sim_time=SIM_TIME
        )
        assert header[0] == "scenario"
        assert len(rows) == 1
        assert rows[0][0] == "crash-storm"
        table = format_outlook_table("chaos", header, rows)
        assert "crash-storm" in table
