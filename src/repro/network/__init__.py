"""Network substrate: topologies, latency models, message accounting,
link fault injection."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".faults": ("LinkFaultModel",),
        ".latency": (
            "DeterministicLatency",
            "LatencyModel",
            "NormalizedExponentialLatency",
            "PerHopExponentialLatency",
            "ShiftedExponentialLatency",
        ),
        ".network": ("Network",),
        ".shardrouter": ("ShardRouter",),
        ".simbackend": ("SimTransport",),
        ".topology": (
            "TOPOLOGIES",
            "FullyConnected",
            "Grid",
            "Line",
            "Ring",
            "Star",
            "Topology",
            "make_topology",
        ),
    },
)

__all__ = [
    "DeterministicLatency",
    "FullyConnected",
    "Grid",
    "LatencyModel",
    "Line",
    "LinkFaultModel",
    "Network",
    "NormalizedExponentialLatency",
    "PerHopExponentialLatency",
    "Ring",
    "ShardRouter",
    "SimTransport",
    "ShiftedExponentialLatency",
    "Star",
    "TOPOLOGIES",
    "Topology",
    "make_topology",
]
