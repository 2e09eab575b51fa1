"""Network facade: message transmission as a simulation activity.

:class:`Network` binds a topology and a latency model to the simulation
environment.  Runtime components call :meth:`Network.transmit` inside a
process (``yield from``) to spend the latency of one message, and the
network keeps aggregate message accounting used by the analysis layer
(remote vs local message counts, total network time).

With a :class:`~repro.network.faults.LinkFaultModel` installed,
``transmit`` may instead raise
:class:`~repro.errors.MessageLostError` after the latency has elapsed —
the point in time where the receiver would have seen the message.
Without one the delivery path is unchanged.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import MessageLostError
from repro.network.faults import LinkFaultModel
from repro.network.latency import LatencyModel, NormalizedExponentialLatency
from repro.network.topology import FullyConnected, Topology
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams, Stream
from repro.telemetry.core import NULL_TELEMETRY, Telemetry


class Network:
    """Simulated interconnect between the nodes of the system.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        Physical structure (default: fully connected, as in the paper).
    latency:
        Latency model (default: normalized Exp(1), as in the paper).
    streams:
        Random-stream factory; the network draws from the stream named
        ``"network.latency"`` (and ``"network.faults"`` when a fault
        model is installed).
    fault_model:
        Optional link fault model; may also be installed later via
        :meth:`install_faults`.
    telemetry:
        Metrics sink; per-link message counters, a latency histogram
        and drop counters when enabled.  The default NULL sink reduces
        instrumentation to one cached-boolean branch per message.
    """

    def __init__(
        self,
        env: Environment,
        topology: Optional[Topology] = None,
        latency: Optional[LatencyModel] = None,
        streams: Optional[RandomStreams] = None,
        fault_model: Optional[LinkFaultModel] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.env = env
        self.topology = topology or FullyConnected(1)
        self.latency = latency or NormalizedExponentialLatency(1.0)
        self._streams = streams or RandomStreams(0)
        self._stream: Stream = self._streams.stream("network.latency")
        # Aggregate accounting.
        self.remote_messages = 0
        self.local_messages = 0
        self.total_latency = 0.0
        self.dropped_messages = 0
        self.faults: Optional[LinkFaultModel] = None
        self.telemetry = telemetry
        self._telemetry_on = telemetry.enabled
        if self._telemetry_on:
            metrics = telemetry.metrics
            self._m_latency = metrics.histogram("network.latency")
            self._m_local = metrics.counter("network.messages", scope="local")
            self._m_remote = metrics.counter("network.messages", scope="remote")
        if fault_model is not None:
            self.install_faults(fault_model)

    def install_faults(self, model: LinkFaultModel) -> None:
        """Install a link fault model, binding its loss-draw stream.

        The model draws from the dedicated ``"network.faults"`` stream
        so enabling faults never perturbs latency sampling.
        """
        model.bind(self._streams.stream("network.faults"))
        self.faults = model

    @property
    def size(self) -> int:
        """Number of nodes the network connects."""
        return self.topology.size

    def sample_latency(
        self, src: int, dst: int, stream: Optional[Stream] = None
    ) -> float:
        """Draw (and account) the latency of one message.

        The one accounting site: :meth:`transmit` draws through here
        too, so every message is counted exactly once.

        ``stream`` overrides the shared ``"network.latency"`` stream.
        Background traffic (e.g. failure-detector heartbeats) passes
        its own stream so enabling it never perturbs the latency draws
        of application messages — that is what keeps detector-enabled
        fault-free runs bit-identical to the oracle path.
        """
        delay = self.latency.sample(src, dst, stream or self._stream)
        if src == dst:
            self.local_messages += 1
        else:
            self.remote_messages += 1
        self.total_latency += delay
        if self._telemetry_on:
            self._observe(src, dst, delay)
        return delay

    def _observe(self, src: int, dst: int, delay: float) -> None:
        """Telemetry for one message (enabled sinks only)."""
        metrics = self.telemetry.metrics
        (self._m_local if src == dst else self._m_remote).inc()
        self._m_latency.observe(delay)
        metrics.counter("network.link.messages", src=src, dst=dst).inc()
        metrics.counter("network.link.time", src=src, dst=dst).inc(delay)

    def transmit(
        self, src: int, dst: int, stream: Optional[Stream] = None
    ) -> Generator:
        """Process fragment that spends one message latency.

        Use as ``yield from network.transmit(a, b)`` inside a process.
        Returns the sampled latency.  ``stream`` optionally overrides
        the latency-draw stream (see :meth:`sample_latency`).

        Raises
        ------
        MessageLostError
            When the installed fault model drops the message.  The
            latency has already been spent at that point (the loss
            happens on the wire); the *sender* additionally has to wait
            out its timeout before it can react — that is the retry
            layer's job (:mod:`repro.runtime.retry`).
        """
        delay = self.sample_latency(src, dst, stream)
        faults = self.faults
        dropped = faults is not None and faults.should_drop(src, dst)
        if delay > 0:
            yield self.env.sleep(delay)
        if dropped:
            self.dropped_messages += 1
            if self._telemetry_on:
                self.telemetry.metrics.counter(
                    "network.dropped", src=src, dst=dst
                ).inc()
            raise MessageLostError(
                f"message {src} -> {dst} lost after {delay:.3f}"
            )
        return delay

    def round_trip(self, src: int, dst: int) -> Generator:
        """Process fragment for a request/reply message pair.

        The paper charges an invocation as "a call and a result
        message" (§4.2.1); this helper spends both and returns the sum.
        """
        there = yield from self.transmit(src, dst)
        back = yield from self.transmit(dst, src)
        return there + back

    def __repr__(self) -> str:
        faults = f" dropped={self.dropped_messages}" if self.faults else ""
        return (
            f"<Network {type(self.topology).__name__}({self.topology.size}) "
            f"latency={type(self.latency).__name__} "
            f"msgs={self.remote_messages}r/{self.local_messages}l{faults}>"
        )
