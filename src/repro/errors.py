"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Simulation-kernel errors and
distributed-runtime errors form their own sub-hierarchies because they
tend to be handled at different layers: kernel errors are programming
errors in simulation scripts, while runtime errors model conditions a
distributed application would observe (e.g. an object being fixed).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class EmptySchedule(SimulationError):
    """``run()`` was asked to advance but no events remain."""


class StopSimulation(Exception):
    """Internal control-flow signal used by :meth:`Environment.run`.

    Deliberately *not* a :class:`ReproError`: user code should never
    catch it.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class ProcessError(SimulationError):
    """A simulation process raised an unhandled exception.

    The original exception is available as ``__cause__``.
    """


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    Like ``simpy.Interrupt`` this is not an error in itself; processes
    may catch it to implement cancellation.  The interrupting party can
    attach a ``cause`` describing why.
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        """Whatever the interrupting process passed as the cause."""
        return self.args[0]


# ---------------------------------------------------------------------------
# Distributed runtime errors
# ---------------------------------------------------------------------------


class RuntimeModelError(ReproError):
    """Base class for errors raised by the distributed object runtime."""


class UnknownObjectError(RuntimeModelError):
    """An object id was not found in the registry."""


class UnknownNodeError(RuntimeModelError):
    """A node id was not found in the system."""


class ObjectFixedError(RuntimeModelError):
    """A migration was requested for an object that is fixed."""


class MigrationInProgressError(RuntimeModelError):
    """An operation conflicts with an in-flight migration."""


class AttachmentError(RuntimeModelError):
    """An illegal attachment operation (e.g. attaching an object to itself)."""


class AllianceError(RuntimeModelError):
    """An illegal alliance operation (e.g. duplicate membership)."""


class PolicyError(RuntimeModelError):
    """A migration policy was misused or misconfigured."""


# ---------------------------------------------------------------------------
# Fault-model errors (injected failures a distributed application observes)
# ---------------------------------------------------------------------------


class FaultError(RuntimeModelError):
    """Base class for conditions produced by the fault-tolerance layer.

    These model failures a real distributed application would observe —
    lost messages, dead nodes, timed-out calls — as opposed to
    programming errors.  Code that wants to degrade gracefully catches
    this base class.
    """


class MessageLostError(FaultError):
    """A message was dropped by a lossy or partitioned link.

    Raised by :meth:`repro.network.Network.transmit` after the message
    has spent its latency on the wire, i.e. at the moment the receiver
    *would* have gotten it.  The sender only learns about the loss via
    a timeout (see :class:`repro.runtime.retry.RetryPolicy`).
    """


class TimeoutError(FaultError):  # noqa: A001 - deliberate shadow, scoped
    """An invocation exhausted its retry budget without a reply.

    Shadows the builtin of the same name *within this module only*; it
    additionally derives from :class:`RuntimeModelError` so existing
    ``except ReproError`` handlers keep working.
    """


class NodeDownError(FaultError):
    """An operation targeted a node that is currently crashed."""


class NodeCrashedError(NodeDownError):
    """A protocol step ran into a crashed (or suspected-crashed) node.

    Raised where continuing would mean waiting on a dead participant —
    e.g. a forwarding chain whose intermediate hop is hosted on a node
    the failure detector suspects (:class:`repro.runtime.locator.
    ForwardingLocator`), or an invocation failed over away from a
    suspected callee.  Derives from :class:`NodeDownError` so existing
    crash handlers keep working.
    """


class MigrationAbortedError(FaultError):
    """A migration was aborted and the object rolled back to its origin.

    Only raised by :meth:`MigrationService.migrate` in ``strict`` mode;
    by default aborted members are surfaced in
    :attr:`MigrationOutcome.aborted` instead.
    """


# ---------------------------------------------------------------------------
# Live transport & supervision errors (repro.runtime.live)
# ---------------------------------------------------------------------------


class TransportError(FaultError):
    """Base class for live-transport failures (real sockets, real OS).

    The sim backend models loss as :class:`MessageLostError` *after*
    the latency elapsed; the live backend additionally fails in ways a
    simulated wire cannot — a peer's connection dies mid-frame, the
    transport is already shut down, a frame exceeds the protocol
    limit.  All of them derive from :class:`FaultError` so existing
    graceful-degradation handlers (retry, abort-and-rollback) treat
    live failures exactly like simulated ones.
    """


class TransportClosedError(TransportError):
    """A send/request was issued on a transport that already shut down."""


class ConnectionLostError(TransportError):
    """The connection to a peer died and reconnect attempts ran out.

    Carries the peer node id in ``args`` so the exception round-trips
    through :mod:`pickle` across process boundaries unchanged.
    """

    def __init__(self, message: str = "", peer: int = -1):
        super().__init__(message, int(peer))

    @property
    def message(self) -> str:
        """Human-readable description of the loss."""
        return self.args[0] if self.args else ""

    @property
    def peer(self) -> int:
        """Node id of the unreachable peer (-1 when unknown)."""
        return self.args[1] if len(self.args) > 1 else -1

    def __str__(self) -> str:
        if self.peer < 0:
            return self.message
        return f"{self.message} [peer={self.peer}]"


class FrameTooLargeError(TransportError):
    """An encoded frame exceeded the transport's size limit.

    Raised on both sides of the wire: the sender refuses to emit the
    frame, the receiver refuses to buffer one whose length prefix is
    oversized (a corrupt or hostile peer must not make us allocate
    unbounded memory).  Size and limit live in ``args`` for pickle.
    """

    def __init__(self, message: str = "", size: int = -1, limit: int = -1):
        super().__init__(message, int(size), int(limit))

    @property
    def message(self) -> str:
        """Human-readable description."""
        return self.args[0] if self.args else ""

    @property
    def size(self) -> int:
        """The offending frame's payload size in bytes."""
        return self.args[1] if len(self.args) > 1 else -1

    @property
    def limit(self) -> int:
        """The transport's configured maximum payload size."""
        return self.args[2] if len(self.args) > 2 else -1

    def __str__(self) -> str:
        if self.size < 0:
            return self.message
        return f"{self.message} ({self.size} > limit {self.limit} bytes)"


class SupervisionError(FaultError):
    """Base class for node-supervision failures (process lifecycle)."""


class WorkerCrashedError(SupervisionError):
    """A supervised worker process died (crash or kill).

    Carries node id and exit code in ``args`` for pickle-safe
    propagation out of the supervisor.
    """

    def __init__(self, message: str = "", node: int = -1, exitcode=None):
        super().__init__(message, int(node), exitcode)

    @property
    def message(self) -> str:
        """Human-readable description of the crash."""
        return self.args[0] if self.args else ""

    @property
    def node(self) -> int:
        """Node id of the dead worker (-1 when unknown)."""
        return self.args[1] if len(self.args) > 1 else -1

    @property
    def exitcode(self):
        """OS exit code (negative = killed by that signal number)."""
        return self.args[2] if len(self.args) > 2 else None

    def __str__(self) -> str:
        parts = []
        if self.node >= 0:
            parts.append(f"node={self.node}")
        if self.exitcode is not None:
            parts.append(f"exitcode={self.exitcode}")
        return self.message + (f" [{', '.join(parts)}]" if parts else "")


class DrainTimeoutError(SupervisionError):
    """Graceful drain did not finish within its deadline.

    A drain asks every worker to stop accepting work and to finish
    in-flight invocations; workers that cannot comply in time are
    force-killed and reported through this error, which carries the
    timeout and the ids of the stragglers in ``args``.
    """

    def __init__(self, message: str = "", timeout: float = -1.0, pending=()):
        super().__init__(message, float(timeout), tuple(pending))

    @property
    def message(self) -> str:
        """Human-readable description."""
        return self.args[0] if self.args else ""

    @property
    def timeout(self) -> float:
        """The drain deadline that was exceeded, in seconds."""
        return self.args[1] if len(self.args) > 1 else -1.0

    @property
    def pending(self) -> tuple:
        """Node ids that had not finished draining at the deadline."""
        return self.args[2] if len(self.args) > 2 else ()

    def __str__(self) -> str:
        if not self.pending:
            return self.message
        nodes = ", ".join(str(n) for n in self.pending)
        return f"{self.message} [timeout={self.timeout}s, pending: {nodes}]"


class WalCorruptionError(SupervisionError):
    """The arbitration write-ahead log cannot be trusted.

    Raised on mid-log damage (bad JSON, checksum mismatch,
    non-monotonic sequence) — anything *other* than a torn final
    append, which replay silently discards.  Carries the log path and
    the 1-based offending line in ``args`` for pickle-safe propagation
    out of the supervisor child process.
    """

    def __init__(self, message: str = "", path: str = "", line: int = -1):
        super().__init__(message, str(path), int(line))

    @property
    def message(self) -> str:
        """Human-readable description of the corruption."""
        return self.args[0] if self.args else ""

    @property
    def path(self) -> str:
        """Path of the damaged log file ('' when unknown)."""
        return self.args[1] if len(self.args) > 1 else ""

    @property
    def line(self) -> int:
        """1-based line number of the bad record (-1 when unknown)."""
        return self.args[2] if len(self.args) > 2 else -1

    def __str__(self) -> str:
        if not self.path:
            return self.message
        where = f"{self.path}:{self.line}" if self.line > 0 else self.path
        return f"{self.message} [{where}]"


# ---------------------------------------------------------------------------
# Runtime invariant monitoring
# ---------------------------------------------------------------------------


class InvariantViolationError(SimulationError):
    """A runtime safety invariant failed during a simulation run.

    Raised by :class:`repro.sim.monitor.InvariantMonitor` when a
    registered invariant evaluates false.  Carries a bounded excerpt of
    the most recent trace records so the violation is diagnosable
    without re-running the simulation.

    Both the message and the trace excerpt live in ``args`` so the
    exception round-trips through :mod:`pickle` unchanged (worker
    processes under the parallel executor propagate failures by
    pickling them).
    """

    def __init__(self, message: str = "", trace=()):
        super().__init__(message, tuple(trace))

    @property
    def message(self) -> str:
        """The human-readable description of the violated invariant."""
        return self.args[0] if self.args else ""

    @property
    def trace(self):
        """Bounded tuple of recent trace lines captured at failure."""
        return self.args[1] if len(self.args) > 1 else ()

    def __str__(self) -> str:
        if not self.trace:
            return self.message
        lines = "\n".join(f"    {line}" for line in self.trace)
        return (
            f"{self.message}\n  last {len(self.trace)} trace records:\n{lines}"
        )


# ---------------------------------------------------------------------------
# Experiment/configuration errors
# ---------------------------------------------------------------------------


class ConfigurationError(ReproError):
    """An experiment or workload configuration is invalid."""


class StoppingRuleError(ReproError):
    """A statistics stopping rule could not be satisfied or was misused."""
