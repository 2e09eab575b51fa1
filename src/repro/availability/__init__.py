"""Availability vs. collocation — §2.2's third migration goal, quantified.

"availability calls for distributing objects, while performance calls
for collocating them."  This subpackage injects node failures and
measures the trade-off between collocated and spread placements of a
group of related objects.  See
``repro-experiment availability --check``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chaos": (
            "SCENARIOS",
            "ChaosCampaign",
            "ChaosCampaignParameters",
            "ChaosCampaignResult",
            "ChaosOrchestrator",
            "ChaosScenario",
            "CrashDuringMigration",
            "CrashStorm",
            "FlappingLink",
            "RollingPartition",
            "run_chaos_campaign",
        ),
        ".faults": ("FaultInjector",),
        ".livechaos": (
            "LiveChaosSchedule",
            "LiveCrash",
            "LiveFaultWindow",
            "LivePartition",
            "demo_schedule",
        ),
        ".faulttolerance": (
            "FT_DETECTION_MODES",
            "FT_POLICIES",
            "FaultToleranceParameters",
            "FaultToleranceWorkload",
        ),
        ".workload": (
            "AvailabilityParameters",
            "AvailabilityWorkload",
        ),
    },
)

__all__ = [
    "AvailabilityParameters",
    "AvailabilityWorkload",
    "ChaosCampaign",
    "ChaosCampaignParameters",
    "ChaosCampaignResult",
    "ChaosOrchestrator",
    "ChaosScenario",
    "CrashDuringMigration",
    "CrashStorm",
    "FT_DETECTION_MODES",
    "FT_POLICIES",
    "FaultInjector",
    "FaultToleranceParameters",
    "FaultToleranceWorkload",
    "FlappingLink",
    "LiveChaosSchedule",
    "LiveCrash",
    "LiveFaultWindow",
    "LivePartition",
    "RollingPartition",
    "SCENARIOS",
    "demo_schedule",
    "run_chaos_campaign",
]
