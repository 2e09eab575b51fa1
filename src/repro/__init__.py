"""repro — Object Migration in Non-Monolithic Distributed Applications.

A complete, from-scratch Python reproduction of Ciupke, Kottmann &
Walter (Universität Karlsruhe, ICDCS 1996): a discrete-event simulation
of distributed object systems in which *independently developed*
components apply migration policies concurrently, plus the paper's two
remedies — transient placement and alliance-scoped (A-transitive)
attachment.

Layering (bottom-up):

``repro.sim``
    Generator-based discrete-event kernel, RNG streams, statistics and
    the §4.1 stopping rule.
``repro.network``
    Topologies and the normalized Exp(1) latency model.
``repro.runtime``
    Nodes, mobile objects, invocation forwarding, migration mechanics.
``repro.core``
    The contribution: primitives, move-blocks, the five policies,
    attachments, alliances, the §3.2 cost model.
``repro.workload`` / ``repro.experiments`` / ``repro.analysis``
    The paper's scenarios, figure harness, and metrics.

Quickstart::

    from repro import SimulationParameters, run_cell

    params = SimulationParameters(nodes=3, clients=3, servers_layer1=3,
                                  policy="placement")
    result = run_cell(params)
    print(result.mean_communication_time_per_call)
"""

from repro._exports import lazy_exports
from repro._version import __version__

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "Alliance",
            "AllianceManager",
            "AttachmentManager",
            "AttachmentMode",
            "ComparingNodes",
            "ComparingReinstantiation",
            "ConventionalMigration",
            "CostParameters",
            "LeaseSweeper",
            "LockManager",
            "MigrationPolicy",
            "MigrationPrimitives",
            "MoveBlock",
            "MoveScope",
            "POLICIES",
            "SedentaryPolicy",
            "TransientPlacement",
            "VisitScope",
            "make_policy",
        ),
        ".errors": ("FaultError", "ReproError"),
        ".network": ("LinkFaultModel",),
        ".experiments": (
            "ExperimentDef",
            "ExperimentResult",
            "FIGURES",
            "make_figure",
            "run_figure",
        ),
        ".runtime": (
            "DistributedObject",
            "DistributedSystem",
            "Node",
            "ObjectKind",
            "RetryPolicy",
        ),
        ".sim": ("Environment", "RandomStreams", "StoppingConfig"),
        ".workload": (
            "ClientServerWorkload",
            "LayeredWorkload",
            "SimulationParameters",
            "WorkloadResult",
            "run_cell",
        ),
    },
)

__all__ = [
    "Alliance",
    "AllianceManager",
    "AttachmentManager",
    "AttachmentMode",
    "ClientServerWorkload",
    "ComparingNodes",
    "ComparingReinstantiation",
    "ConventionalMigration",
    "CostParameters",
    "DistributedObject",
    "DistributedSystem",
    "Environment",
    "ExperimentDef",
    "ExperimentResult",
    "FIGURES",
    "FaultError",
    "LayeredWorkload",
    "LeaseSweeper",
    "LinkFaultModel",
    "LockManager",
    "MigrationPolicy",
    "MigrationPrimitives",
    "MoveBlock",
    "MoveScope",
    "Node",
    "ObjectKind",
    "POLICIES",
    "RandomStreams",
    "ReproError",
    "RetryPolicy",
    "SedentaryPolicy",
    "SimulationParameters",
    "StoppingConfig",
    "TransientPlacement",
    "VisitScope",
    "WorkloadResult",
    "__version__",
    "make_figure",
    "make_policy",
    "run_cell",
    "run_figure",
]
