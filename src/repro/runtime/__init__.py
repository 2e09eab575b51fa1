"""Distributed object runtime substrate.

Nodes, mobile objects, proxy-style invocation forwarding, and the
linearize–transfer–reinstall migration mechanism (§3.1's system model).
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".clock": ("Clock", "SimClock", "WallClock"),
        ".failure": ("FailureDetector", "HeartbeatHistory"),
        ".invocation": ("InvocationResult", "InvocationService"),
        ".locator": (
            "LOCATORS",
            "BroadcastLocator",
            "ForwardingLocator",
            "ImmediateUpdateLocator",
            "Locator",
            "NameServerLocator",
            "make_locator",
        ),
        ".messages": ("Message", "MessageKind"),
        ".migration": ("MigrationOutcome", "MigrationService"),
        ".node": ("Node",),
        ".objects": ("DistributedObject", "MobilityState", "ObjectKind"),
        ".registry": ("ObjectRegistry",),
        ".retry": ("RandomJitter", "RetryPolicy"),
        ".system": ("DistributedSystem",),
        ".transport": ("Transport",),
    },
)

__all__ = [
    "BroadcastLocator",
    "Clock",
    "DistributedObject",
    "DistributedSystem",
    "FailureDetector",
    "ForwardingLocator",
    "HeartbeatHistory",
    "ImmediateUpdateLocator",
    "InvocationResult",
    "InvocationService",
    "LOCATORS",
    "Locator",
    "Message",
    "MessageKind",
    "MigrationOutcome",
    "MigrationService",
    "MobilityState",
    "Node",
    "ObjectKind",
    "ObjectRegistry",
    "RandomJitter",
    "RetryPolicy",
    "SimClock",
    "Transport",
    "WallClock",
    "make_locator",
]
