"""Migration policies: the interpretations of move/end requests."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("MigrationPolicy",),
        ".comparing": ("ComparingNodes",),
        ".conventional": ("ConventionalMigration",),
        ".guard": ("ThrashingGuard",),
        ".placement": ("TransientPlacement",),
        ".registry": ("GUARD_PREFIX", "POLICIES", "make_policy"),
        ".reinstantiation": ("ComparingReinstantiation",),
        ".sedentary": ("SedentaryPolicy",),
    },
)

__all__ = [
    "ComparingNodes",
    "ComparingReinstantiation",
    "ConventionalMigration",
    "GUARD_PREFIX",
    "MigrationPolicy",
    "POLICIES",
    "SedentaryPolicy",
    "ThrashingGuard",
    "TransientPlacement",
    "make_policy",
]
