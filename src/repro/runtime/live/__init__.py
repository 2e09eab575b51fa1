"""Live runtime backend: the seam's wall-clock, real-socket side.

Everything under ``repro.runtime.live`` runs protocol code over real OS
processes: length-prefixed pickled envelopes on Unix/TCP sockets
(:mod:`~repro.runtime.live.framing`, :mod:`~repro.runtime.live.wire`),
a crash-tolerant asyncio transport with reconnect + idempotent dedup
(:mod:`~repro.runtime.live.transport`), per-node workers speaking the
same lock/lease protocol as the sim (:mod:`~repro.runtime.live.node`),
and a supervisor with heartbeat failure detection, crash restart, and
lease recovery (:mod:`~repro.runtime.live.supervisor`).

Nothing in ``repro.sim`` or ``repro.runtime`` core imports this
package, so the sim path never pays for the live backend; and the
export table below resolves on first access, so a live process loads
only the modules it uses (no numpy, no sim streams, no experiments).
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".framing": (
            "DEFAULT_MAX_PAYLOAD",
            "PREFIX_SIZE",
            "FrameDecoder",
            "encode_frame",
        ),
        ".transport": (
            "DEFAULT_CONNECT_RETRY",
            "AsyncioTransport",
            "FaultyTransport",
            "unix_supported",
        ),
        ".wire": ("SUPERVISOR", "DedupIndex", "Envelope", "EnvelopeFactory"),
    },
)

__all__ = [
    "AsyncioTransport",
    "DEFAULT_CONNECT_RETRY",
    "DEFAULT_MAX_PAYLOAD",
    "DedupIndex",
    "Envelope",
    "EnvelopeFactory",
    "FaultyTransport",
    "FrameDecoder",
    "PREFIX_SIZE",
    "SUPERVISOR",
    "encode_frame",
    "unix_supported",
]
