"""Remote object invocation.

Implements the cost model of §4.1/§4.2.1:

* an invocation is a *call* message plus a *result* message;
* each message costs Exp(1) when the endpoints differ, 0 when they are
  co-located (local actions are four orders of magnitude cheaper and
  are neglected);
* a call whose callee is in transit "is blocked until the object is
  operational once again" — the blocking time is part of the call's
  measured duration, which is how migration inflates latency.

The caller's wall-clock view (send → reply received) is what the
paper's "mean duration of one call" (Fig 10) measures; the invocation
service returns it and also keeps aggregate accounting.

Fault tolerance
---------------
When the network has a :class:`~repro.network.faults.LinkFaultModel`
installed, either message of a call may be lost
(:class:`~repro.errors.MessageLostError`).  The service then applies
its :class:`~repro.runtime.retry.RetryPolicy`: the caller waits out the
attempt timeout, backs off (exponentially, with jitter drawn from the
``"invocation.retry"`` stream) and retries from scratch — including
re-locating the callee, which may have moved meanwhile.  Retries give
*at-least-once* semantics: a call whose reply was lost has already
executed once at the callee.  After ``max_attempts`` tries the call
fails with :class:`~repro.errors.TimeoutError`.  On a fault-free
network none of this machinery runs and the behaviour (and random-draw
sequence) is identical to the reliable model.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional

from repro.errors import MessageLostError, NodeDownError, TimeoutError
from repro.network.network import Network
from repro.runtime.locator import ImmediateUpdateLocator, Locator
from repro.runtime.messages import Message, MessageKind
from repro.runtime.objects import DistributedObject
from repro.runtime.retry import RetryPolicy
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.sim.stats import RunningStats
from repro.sim.trace import NULL_TRACER, Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import ERROR


class InvocationResult(NamedTuple):
    """Outcome of one invocation, from the caller's point of view.

    Immutable, and cheap to build: one is made per call.

    Attributes
    ----------
    duration:
        Wall-clock time from send to reply receipt (includes blocking
        on in-transit callees, timeouts and backoff of failed attempts).
    was_local:
        True when both messages were node-local (cost 0).
    blocked_time:
        Portion of ``duration`` spent waiting for the callee to be
        reinstalled after a migration.
    attempts:
        Number of attempts performed (1 on a reliable network).
    """

    duration: float
    was_local: bool
    blocked_time: float
    attempts: int = 1


class InvocationService:
    """Performs invocations on (possibly remote, possibly moving) objects.

    Parameters
    ----------
    env, network:
        Simulation environment and interconnect.
    locator:
        Location strategy (default immediate update = free lookup).
    tracer:
        Trace sink.
    retry:
        Timeout/retry policy applied when the network loses messages;
        irrelevant (never consulted) on a fault-free network.
    streams:
        Random-stream factory; backoff jitter draws from the stream
        named ``"invocation.retry"`` only when a retry actually occurs.
    telemetry:
        Metrics/span sink.  With the NULL default, :meth:`invoke`
        dispatches straight to the untraced generator — the disabled
        path executes the exact pre-telemetry bytecode.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        locator: Optional[Locator] = None,
        tracer: Tracer = NULL_TRACER,
        retry: Optional[RetryPolicy] = None,
        streams: Optional[RandomStreams] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.env = env
        self.network = network
        self.locator = locator or ImmediateUpdateLocator(env, network)
        self.tracer = tracer
        self.retry = retry or RetryPolicy()
        self._streams = streams or RandomStreams(0)
        self.telemetry = telemetry
        self._telemetry_on = telemetry.enabled
        if self._telemetry_on:
            metrics = telemetry.metrics
            self._m_local = metrics.counter("invocation.calls", scope="local")
            self._m_remote = metrics.counter("invocation.calls", scope="remote")
            self._m_retries = metrics.counter("invocation.retries")
            self._m_timeouts = metrics.counter("invocation.timeouts")
            self._m_failed = metrics.counter("invocation.failed")
            self._m_duration = metrics.histogram("invocation.duration")
        #: Optional heartbeat :class:`~repro.runtime.failure.
        #: FailureDetector`.  When set, a caller whose attempt timed
        #: out against a node the detector suspects stops burning
        #: retries and fails over immediately with
        #: :class:`~repro.errors.NodeDownError` — the caller can then
        #: redirect to a replica instead of waiting out the full retry
        #: budget against a (suspected) corpse.  ``None`` (default)
        #: keeps the retry behaviour bit-identical.
        self.failure_detector = None
        #: Optional ground-truth liveness provider (``is_down`` +
        #: ``wait_until_up`` generator).  When set, a request arriving
        #: at a crashed node parks until the node recovers instead of
        #: executing on it — the physical crash-recover semantics the
        #: invariant monitors assert.  ``None`` keeps the pre-chaos
        #: behaviour.
        self.liveness = None
        #: Aggregate duration statistics over every completed invocation.
        self.durations = RunningStats()
        self.local_calls = 0
        self.remote_calls = 0
        self.blocked_calls = 0
        # Fault-tolerance accounting (all zero on a reliable network).
        self.timeouts = 0
        self.retries = 0
        self.failed_calls = 0
        self.retry_wait_time = 0.0
        #: Calls abandoned early because the detector suspected the callee.
        self.failovers = 0
        #: Executions that went through on a node the liveness provider
        #: reported down — must stay 0; the chaos invariant monitors
        #: assert on it.
        self.executions_on_crashed = 0

    def stats(self) -> dict:
        """Aggregate counters for reports and degradation analysis."""
        return {
            "calls": self.durations.count,
            "mean_duration": self.durations.mean if self.durations.count else 0.0,
            "local_calls": self.local_calls,
            "remote_calls": self.remote_calls,
            "blocked_calls": self.blocked_calls,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "failed_calls": self.failed_calls,
            "retry_wait_time": self.retry_wait_time,
            "failovers": self.failovers,
            "executions_on_crashed": self.executions_on_crashed,
        }

    def invoke(
        self, caller_node: int, obj: DistributedObject, body=None
    ) -> Generator:
        """Process fragment performing one invocation; returns an
        :class:`InvocationResult`.

        Use as ``result = yield from service.invoke(node, obj)``.

        Parameters
        ----------
        caller_node:
            Node the invocation originates from.
        obj:
            The callee.
        body:
            Optional callable ``body(callee_node) -> generator`` run at
            the callee between request receipt and reply — this is how
            nested synchronous invocations (a first-layer server calling
            its second-layer working set, Fig 7) are modelled.  The
            nested time is part of the caller's observed duration.

        Raises
        ------
        TimeoutError
            When the network loses messages and every attempt allowed
            by the retry policy timed out.
        """
        if self._telemetry_on:
            return self._invoke_traced(caller_node, obj, body)
        return self._invoke(caller_node, obj, body)

    def _invoke_traced(
        self, caller_node: int, obj: DistributedObject, body
    ) -> Generator:
        """Span-wrapped :meth:`_invoke`: one ``invocation`` span per call.

        Every exit path closes the span — error status carries the
        exception type, so abandoned calls (retry exhaustion, failover)
        never leak an open span.
        """
        telemetry = self.telemetry
        span = telemetry.start_span(
            "invocation", node=caller_node, object=obj.name
        )
        try:
            result = yield from self._invoke(caller_node, obj, body)
        except BaseException as exc:
            telemetry.end_span(span, status=ERROR, error=type(exc).__name__)
            raise
        telemetry.end_span(
            span,
            attempts=result.attempts,
            local=result.was_local,
            blocked=result.blocked_time,
        )
        return result

    def _invoke(
        self, caller_node: int, obj: DistributedObject, body
    ) -> Generator:
        """The untraced invocation generator (see :meth:`invoke`).

        One generator per call: every attempt of the call/reply exchange
        runs inside the retry loop, so the kernel resumes the caller
        through this frame and the ``transmit`` it is waiting in, not
        through a chain of delegating generators.
        """
        env = self.env
        tracer = self.tracer
        start = attempt_start = env.now
        attempt = 0

        while True:
            attempt += 1
            # Blocked time of a voided attempt is indistinguishable
            # from timeout waiting to the caller; it stays part of the
            # overall duration but not of ``blocked_time``.
            blocked = 0.0
            try:
                # An object in transit cannot accept the request; the
                # call blocks until it is reinstalled (§4.1).
                while obj.in_transit:
                    t0 = env.now
                    yield obj.reinstalled.wait()
                    blocked += env.now - t0

                # Resolve the current location (free under immediate
                # update: nothing to wait for, so nothing to drive).
                locator = self.locator
                if self._telemetry_on:
                    dst = yield from self._locate_traced(caller_node, obj)
                elif locator.free:
                    dst = obj.node_id
                else:
                    dst = yield from locator.locate(caller_node, obj)

                # Call message.
                call_latency = yield from self.network.transmit(
                    caller_node, dst
                )
                if tracer.enabled:
                    tracer.emit(
                        env.now,
                        MessageKind.INVOCATION_REQUEST.value,
                        src=caller_node,
                        dst=dst,
                        object_id=obj.object_id,
                        latency=call_latency,
                    )

                # The object may have departed while the request was in
                # flight; the request waits at the runtime until it is
                # operational again and is then processed wherever the
                # object landed.
                while obj.in_transit:
                    t0 = env.now
                    yield obj.reinstalled.wait()
                    blocked += env.now - t0

                # Crash-recover semantics: a request present at a
                # crashed node parks until recovery (stable state)
                # rather than executing on a corpse.  Only active when
                # a liveness provider is wired in (the chaos harness
                # does); otherwise the pre-fault behaviour and event
                # sequence are untouched.
                liveness = self.liveness
                if liveness is not None:
                    while liveness.is_down(obj.node_id):
                        blocked += yield from liveness.wait_until_up(
                            obj.node_id
                        )
                        # The object may have moved while the request
                        # was parked.
                        while obj.in_transit:
                            t0 = env.now
                            yield obj.reinstalled.wait()
                            blocked += env.now - t0
                    if liveness.is_down(obj.node_id):  # pragma: no cover
                        self.executions_on_crashed += 1  # invariant: stays 0

                # Local processing is neglected (four orders of
                # magnitude below a remote action, §4.1).
                obj.invocation_count += 1

                # Nested invocations performed by the callee while
                # serving this call (e.g. a first-layer server using
                # its second layer).
                if body is not None:
                    yield from body(obj.node_id)

                # Result message back to the caller.
                reply_src = obj.node_id
                reply_latency = yield from self.network.transmit(
                    reply_src, caller_node
                )
                if tracer.enabled:
                    tracer.emit(
                        env.now,
                        MessageKind.INVOCATION_REPLY.value,
                        src=reply_src,
                        dst=caller_node,
                        object_id=obj.object_id,
                        latency=reply_latency,
                    )
                break
            except MessageLostError:
                self.timeouts += 1
                if self._telemetry_on:
                    self._m_timeouts.inc()
                # The sender learns nothing until its timeout elapses;
                # the wire time already spent counts towards it.
                remaining = self.retry.timeout - (env.now - attempt_start)
                if remaining > 0:
                    yield env.sleep(remaining)
                if tracer.enabled:
                    tracer.emit(
                        env.now,
                        "invocation.timeout",
                        src=caller_node,
                        object_id=obj.object_id,
                        attempt=attempt,
                    )
                detector = self.failure_detector
                if detector is not None and detector.is_down(obj.node_id):
                    # Failover: the callee's node is suspected dead —
                    # stop burning the retry budget against it and let
                    # the caller redirect (e.g. to a replica).
                    self.failed_calls += 1
                    self.failovers += 1
                    if self._telemetry_on:
                        self._m_failed.inc()
                    raise NodeDownError(
                        f"invocation of {obj.name} from node {caller_node} "
                        f"abandoned after {attempt} attempts: node "
                        f"{obj.node_id} is suspected crashed"
                    ) from None
                if attempt >= self.retry.max_attempts:
                    self.failed_calls += 1
                    if self._telemetry_on:
                        self._m_failed.inc()
                    raise TimeoutError(
                        f"invocation of {obj.name} from node {caller_node} "
                        f"failed after {attempt} attempts"
                    ) from None
                self.retries += 1
                if self._telemetry_on:
                    self._m_retries.inc()
                delay = self.retry.backoff(
                    attempt - 1, self._streams.stream("invocation.retry")
                )
                if delay > 0:
                    self.retry_wait_time += delay
                    yield env.sleep(delay)
                attempt_start = env.now

        duration = env.now - start
        was_local = (
            call_latency == 0.0
            and reply_latency == 0.0
            and blocked == 0.0
            and attempt == 1
        )
        self.durations.add(duration)
        if was_local:
            self.local_calls += 1
        else:
            self.remote_calls += 1
        if blocked > 0:
            self.blocked_calls += 1
        if self._telemetry_on:
            (self._m_local if was_local else self._m_remote).inc()
            self._m_duration.observe(duration)
        return InvocationResult(duration, was_local, blocked, attempt)

    def _locate_traced(
        self, caller_node: int, obj: DistributedObject
    ) -> Generator:
        """Span-wrapped ``locator.locate``: one ``locate`` span per lookup."""
        telemetry = self.telemetry
        locator = self.locator
        span = telemetry.start_span(
            "locate", node=caller_node, object=obj.name
        )
        try:
            dst = yield from locator.locate(caller_node, obj)
        except BaseException as exc:
            telemetry.end_span(span, status=ERROR, error=type(exc).__name__)
            raise
        hops = getattr(locator, "last_hops", None)
        if hops is not None:
            span.tag(hops=hops)
        telemetry.end_span(span, dst=dst)
        return dst
