"""The paper's contribution: migration control for non-monolithic systems.

* linguistic primitives and move/visit scopes (:mod:`.primitives`)
* move-blocks and their accounting (:mod:`.moveblock`)
* the five migration policies (:mod:`.policies`)
* attachments with unrestricted / A-transitive / exclusive closure
  semantics (:mod:`.attachment`)
* alliances — explicit cooperation contexts (:mod:`.alliance`)
* the §3.2 analytic cost model (:mod:`.costmodel`)
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".alliance": ("Alliance", "AllianceManager"),
        ".attachment": (
            "GLOBAL_CONTEXT",
            "AttachmentManager",
            "AttachmentMode",
        ),
        ".costmodel": (
            "CostParameters",
            "cost_conventional_worst_case",
            "cost_no_migration",
            "cost_placement_concurrent",
            "migration_break_even_clients",
            "placement_advantage",
        ),
        ".distribution": (
            "AnchorToMember",
            "CollocateMembers",
            "DistributionPolicy",
            "SpreadMembers",
        ),
        ".gom": ("OperationDeclaration", "OperationOutcome"),
        ".locking": ("LeaseSweeper", "LockManager"),
        ".moveblock": ("MoveBlock",),
        ".policies": (
            "POLICIES",
            "ComparingNodes",
            "ComparingReinstantiation",
            "ConventionalMigration",
            "MigrationPolicy",
            "SedentaryPolicy",
            "ThrashingGuard",
            "TransientPlacement",
            "make_policy",
        ),
        ".primitives": ("MigrationPrimitives", "MoveScope", "VisitScope"),
        ".proxy": ("Proxy", "ProxyTable"),
    },
)

__all__ = [
    "Alliance",
    "AllianceManager",
    "AnchorToMember",
    "AttachmentManager",
    "AttachmentMode",
    "CollocateMembers",
    "ComparingNodes",
    "ComparingReinstantiation",
    "ConventionalMigration",
    "CostParameters",
    "DistributionPolicy",
    "GLOBAL_CONTEXT",
    "LeaseSweeper",
    "LockManager",
    "MigrationPolicy",
    "MigrationPrimitives",
    "MoveBlock",
    "MoveScope",
    "OperationDeclaration",
    "OperationOutcome",
    "POLICIES",
    "Proxy",
    "ProxyTable",
    "SedentaryPolicy",
    "SpreadMembers",
    "ThrashingGuard",
    "TransientPlacement",
    "VisitScope",
    "cost_conventional_worst_case",
    "cost_no_migration",
    "cost_placement_concurrent",
    "make_policy",
    "migration_break_even_clients",
    "placement_advantage",
]
