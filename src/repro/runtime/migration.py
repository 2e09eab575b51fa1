"""Migration mechanics: linearize, transfer, reinstall.

The mechanism (not the policy — §2.2 insists on that separation): a
migration takes an object off its node, spends the transfer duration M
(Table 1: fixed, per object; conceptually it scales with object size),
and reinstalls the object at the target, waking every call that blocked
on it meanwhile.

A *set* migration (the transitive attachment closure of §3.4) transfers
its members in parallel: the elapsed time is the slowest member's M,
but every member is individually unavailable for its own transfer
window, which is what makes dragging a large working set so costly for
everyone else.

One ``migrate()`` call is one :class:`_SetTransfer`: a small state
machine per member, driven by calendar callbacks rather than by a
kernel process of its own.

Objects that are already at the target are not transferred ("moving" an
object to where it is costs nothing).  Objects in transit are waited
for, then transferred — this is how a conventional move "steals" an
object that is already moving elsewhere.

Abort and rollback
------------------
Under the fault layer a transfer can fail: the target node may be down
(per the installed ``health`` provider, usually a
:class:`~repro.availability.faults.FaultInjector`) or the transfer
message may be lost on the wire (per the network's
:class:`~repro.network.faults.LinkFaultModel`).  The rollback rule: the
object is reinstalled *at its origin*, every caller blocked on it is
woken there, and the locator is corrected — the move simply never
happened, except for the wasted wire time.  A target that is already
known-dead aborts immediately without linearizing the object at all.
Aborted members are surfaced in :attr:`MigrationOutcome.aborted` (or,
in ``strict`` mode, raised as
:class:`~repro.errors.MigrationAbortedError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import MigrationAbortedError, ObjectFixedError, ProcessError
from repro.network.network import Network
from repro.runtime.locator import Locator
from repro.runtime.messages import MessageKind
from repro.runtime.objects import DistributedObject
from repro.runtime.registry import ObjectRegistry
from repro.sim.events import URGENT, Event
from repro.sim.kernel import Environment
from repro.sim.trace import NULL_TRACER, Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import ERROR, Span


@dataclass
class MigrationOutcome:
    """Result of one (possibly multi-object) migration operation.

    Attributes
    ----------
    target_node:
        Where the objects were sent.
    moved:
        Objects actually transferred.
    already_there:
        Objects that were resident at the target already.
    aborted:
        Objects whose transfer failed (dead target or lost transfer
        message) and that were rolled back to their origin node.
    elapsed:
        Wall-clock duration of the whole operation (includes waiting
        for in-transit members).
    transfer_time:
        Sum of the individual transfer durations (the network work).
    wasted_transfer_time:
        Wire time spent on aborted transfers (outbound + rollback legs).
    """

    target_node: int
    moved: List[DistributedObject] = field(default_factory=list)
    already_there: List[DistributedObject] = field(default_factory=list)
    aborted: List[DistributedObject] = field(default_factory=list)
    elapsed: float = 0.0
    transfer_time: float = 0.0
    wasted_transfer_time: float = 0.0

    @property
    def moved_count(self) -> int:
        """Number of objects actually transferred."""
        return len(self.moved)

    @property
    def aborted_count(self) -> int:
        """Number of objects whose transfer was aborted."""
        return len(self.aborted)


#: Member states of a set transfer.  A member waits in one of the first
#: two and ends in exactly one of the other four; a fixed member never
#: leaves PARKED, it fails the whole call instead.
PARKED = "parked"  # its object is on the wire for another mover
IN_TRANSIT = "in-transit"  # on its own outbound or rollback leg
INSTALLED = "installed"
ROLLED_BACK = "rolled-back"  # went out, came back to its origin
ALREADY = "already"  # found at the target when its turn came
ABORTED = "aborted"  # refused before it was linearized (dead target)


class _SetTransfer:
    """The transfers of one ``migrate()`` call, driven by calendar
    callbacks instead of one kernel process per member.

    The calendar order is that of the per-member processes this
    replaces, event for event where another process can observe it.
    Five rules carry that (DESIGN.md §8 has the argument):

    (a) The N adjacent URGENT process-start events become one URGENT
        event that starts the members in list order.
    (b) Members started by that event whose transfers end at the same
        time share one ``env.sleep``; its callbacks run in member
        order.  A member that starts later arms its own timer.
    (c) A member whose object is in transit parks on
        ``obj.reinstalled.wait()`` with its own start as the callback,
        so waiter lists and wake-up events are unchanged.
    (d) Completion is counted as members finish; only the last finisher
        schedules a zero-delay NORMAL event, and processing it triggers
        :attr:`done` — two hops, as from the last process event to the
        ``AllOf`` before, so the mover still resumes after every caller
        the installs woke.
    (e) A fixed member fails :attr:`done`, over the same two hops, with
        the :class:`~repro.errors.ProcessError` its process would have
        died of; the other members run on.

    What a member does on the way — counters, ``active_transfers``,
    trace records, the loss draw, spans — happens at the same points in
    the same order as before.  Members schedule nothing URGENT, which
    is what lets (a) and (b) run them back to back.
    """

    __slots__ = (
        "service", "target", "extra_time", "span", "members",
        "unfinished", "failed", "done",
    )

    def __init__(
        self,
        service: "MigrationService",
        movers: List[DistributedObject],
        target: int,
        extra_time: float,
        span: Optional[Span],
    ):
        self.service = service
        self.target = target
        self.extra_time = extra_time
        #: The ``migration`` span: callbacks run outside any process, so
        #: member spans take their parent explicitly and stay detached.
        self.span = span
        self.members = [_Member(self, obj) for obj in movers]
        self.unfinished = len(movers)
        self.failed = False
        env = service.env
        #: Fires (or fails) when the call is complete; the mover yields it.
        self.done = env.event()
        # Rule (a).  The event only carries the callback; nothing waits
        # on it or reads a value from it.
        start = env.event()
        start.callbacks.append(self._start)
        env.schedule(start, priority=URGENT)

    def _start(self, _event: Event) -> None:
        env = self.service.env
        now = env.now
        timers: Dict[float, Event] = {}
        for member in self.members:
            if member.start():
                # Rule (b).  Keyed on the wake-up time, not the
                # duration: that is what the calendar orders by.
                wake = now + member.duration
                timer = timers.get(wake)
                if timer is None:
                    timer = timers[wake] = env.sleep(member.duration)
                timer.callbacks.append(member.arrive)

    def finish(self, member: "_Member", state: str, wire_time: float) -> None:
        """Record a member's terminal state; rule (d)."""
        member.state = state
        member.wire_time = wire_time
        self.unfinished -= 1
        if not self.unfinished:
            self._complete(None)

    def fail(self, member: "_Member", exc: Exception) -> None:
        """Rule (e).  The failed member never finishes, so the call
        cannot also complete; a second fixed member changes nothing."""
        if self.failed:
            return
        self.failed = True
        error = ProcessError(
            f"process {'transfer-' + member.obj.name!r} failed: {exc!r}"
        )
        error.__cause__ = exc
        self._complete(error)

    def _complete(self, error: Optional[ProcessError]) -> None:
        hop = self.service.env.event()
        hop.callbacks.append(self.done.trigger)
        if error is None:
            hop.succeed()
        else:
            hop.fail(error)


class _Member:
    """One object of a :class:`_SetTransfer`."""

    __slots__ = (
        "call", "obj", "state", "wire_time", "origin", "duration", "lost",
        "span",
    )

    def __init__(self, call: _SetTransfer, obj: DistributedObject):
        self.call = call
        self.obj = obj
        self.state = PARKED
        #: Transfer time of an installed member, wasted wire time of an
        #: aborted one.
        self.wire_time = 0.0
        self.span: Optional[Span] = None

    def start(self) -> bool:
        """Leave PARKED if the object is installed.

        True when the member went on the wire and the caller has to arm
        the timer that ends in :meth:`arrive`.
        """
        obj = self.obj
        if obj.in_transit:
            # Rule (c): the request queues at the runtime and executes
            # on reinstallation — unless an earlier waiter took the
            # object away again, in which case it parks again.
            obj.reinstalled.wait().callbacks.append(self.start_late)
            return False

        call = self.call
        service = call.service
        if obj.fixed:
            call.fail(
                self,
                ObjectFixedError(f"{obj.name} is fixed and cannot migrate"),
            )
            return False

        target = call.target
        if obj.node_id == target:
            call.finish(self, ALREADY, 0.0)
            return False

        origin = self.origin = obj.node_id
        if service._telemetry_on:
            self.span = service.telemetry.start_span(
                "transfer",
                node=origin,
                parent=call.span,
                detached=True,
                object=obj.name,
                dst=target,
            )

        # Fast abort: a target known to be dead rejects the transfer at
        # the origin runtime before the object is even linearized.
        if service._node_down(target):
            service.migrations_aborted += 1
            if service._telemetry_on:
                service.telemetry.metrics.counter(
                    "migration.aborted", reason="node-down"
                ).inc()
                service.telemetry.end_span(
                    self.span, status=ERROR, reason="node-down"
                )
            if service.tracer.enabled:
                service.tracer.emit(
                    service.env.now,
                    "migration.abort",
                    object_id=obj.object_id,
                    src=origin,
                    dst=target,
                    reason="node-down",
                )
            call.finish(self, ABORTED, 0.0)
            return False

        duration = self.duration = service.duration_for(obj) + call.extra_time
        service.registry.depart(obj)
        obj.begin_transit()
        service.active_transfers[obj.object_id] = (origin, target)
        self.state = IN_TRANSIT
        if service.tracer.enabled:
            service.tracer.emit(
                service.env.now,
                "migration.start",
                object_id=obj.object_id,
                src=origin,
                dst=target,
                duration=duration,
            )

        # The transfer message itself may be lost; the drop is decided
        # now but only *observed* after the transfer window, when the
        # origin's runtime times out waiting for the install ack.
        self.lost = service._transfer_lost(origin, target)
        if duration > 0:
            return True
        self.arrive()
        return False

    def start_late(self, _event: Event) -> None:
        """The object was reinstalled: start now, on a timer of its own
        (rule (b): other events may lie between two late starters)."""
        if self.start():
            self.call.service.env.sleep(self.duration).callbacks.append(
                self.arrive
            )

    def arrive(self, _event: Optional[Event] = None) -> None:
        """End of the outbound leg: install, or turn back."""
        call = self.call
        service = call.service
        obj = self.obj
        origin = self.origin
        target = call.target
        duration = self.duration
        service.active_transfers.pop(obj.object_id, None)

        if self.lost or service._node_down(target):
            # Abort: roll the object back to its origin.  The return
            # trip costs another transfer window, then the object is
            # reinstalled where it started, blocked callers wake there
            # and the locator forgets the move ever happened.
            reason = "transfer-lost" if self.lost else "node-down"
            rspan = None
            if service._telemetry_on:
                rspan = service.telemetry.start_span(
                    "rollback",
                    node=origin,
                    parent=self.span,
                    detached=True,
                    object=obj.name,
                    reason=reason,
                )
            rolled_back = partial(self.rolled_back, reason, rspan)
            if duration > 0:
                service.env.sleep(duration).callbacks.append(rolled_back)
            else:
                rolled_back()
            return

        obj.install(target)
        service.registry.arrive(obj, target)
        if service.locator is not None:
            service.locator.note_migration(obj, target)
        service.migration_count += 1
        service.total_transfer_time += duration
        if service._telemetry_on:
            service._m_moves.inc()
            service._m_transfer.observe(duration)
            service.telemetry.end_span(self.span)
        if service.tracer.enabled:
            service.tracer.emit(
                service.env.now,
                "migration.done",
                object_id=obj.object_id,
                src=origin,
                dst=target,
            )
        call.finish(self, INSTALLED, duration)

    def rolled_back(
        self, reason: str, rspan: Optional[Span], _event: Optional[Event] = None
    ) -> None:
        """End of the rollback leg: reinstall at the origin."""
        call = self.call
        service = call.service
        obj = self.obj
        origin = self.origin
        obj.install(origin)
        service.registry.arrive(obj, origin)
        if service.locator is not None:
            service.locator.note_migration(obj, origin)
        wasted = 2 * self.duration
        service.migrations_aborted += 1
        service.wasted_transfer_time += wasted
        if service._telemetry_on:
            service.telemetry.metrics.counter(
                "migration.aborted", reason=reason
            ).inc()
            service.telemetry.end_span(rspan)
            service.telemetry.end_span(self.span, status=ERROR, reason=reason)
        if service.tracer.enabled:
            service.tracer.emit(
                service.env.now,
                "migration.abort",
                object_id=obj.object_id,
                src=origin,
                dst=call.target,
                reason=reason,
            )
        call.finish(self, ROLLED_BACK, wasted)


class MigrationService:
    """Executes migrations against the registry and the clock.

    Parameters
    ----------
    env, registry:
        Simulation environment and authoritative registry.
    default_duration:
        The paper's M: transfer time for a size-1 object.
    locator:
        Optional locator to notify of moves (forwarding addresses).
    tracer:
        Trace sink.
    network:
        Optional network reference; when present and a link fault model
        is installed, transfer messages are subject to loss.
    health:
        Optional node-health provider (any object with
        ``is_down(node_id) -> bool``); when present, transfers towards
        down nodes abort.  :class:`~repro.availability.faults.FaultInjector`
        wires itself in here.
    telemetry:
        Metrics/span sink.  With the NULL default, :meth:`migrate`
        dispatches straight to the untraced generator; enabled, each
        ``migrate`` renders as one ``migration`` span with per-object
        ``transfer`` children (and ``rollback`` grandchildren on abort).
    """

    def __init__(
        self,
        env: Environment,
        registry: ObjectRegistry,
        default_duration: float = 6.0,
        locator: Optional[Locator] = None,
        tracer: Tracer = NULL_TRACER,
        network: Optional[Network] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        if default_duration < 0:
            raise ValueError(
                f"default_duration must be >= 0, got {default_duration}"
            )
        self.env = env
        self.registry = registry
        self.default_duration = default_duration
        self.locator = locator
        self.tracer = tracer
        self.network = network
        #: Node-health provider consulted for abort decisions (duck
        #: typed: anything with ``is_down(node_id)``; None = all up).
        self.health = None
        #: Total number of object transfers performed.
        self.migration_count = 0
        #: Total transfer time spent (sum of per-object durations).
        self.total_transfer_time = 0.0
        #: Transfers aborted and rolled back to their origin.
        self.migrations_aborted = 0
        #: Wire time wasted on aborted transfers.
        self.wasted_transfer_time = 0.0
        #: Transfers currently on the wire: object id -> (origin,
        #: target).  Chaos campaigns read this to crash a participant
        #: mid-transfer; entries exist exactly while the object is in
        #: transit on the outbound leg.
        self.active_transfers: Dict[int, Tuple[int, int]] = {}
        self.telemetry = telemetry
        self._telemetry_on = telemetry.enabled
        if self._telemetry_on:
            metrics = telemetry.metrics
            self._m_moves = metrics.counter("migration.moves")
            self._m_transfer = metrics.histogram("migration.transfer_time")

    def _node_down(self, node_id: int) -> bool:
        return self.health is not None and self.health.is_down(node_id)

    def _transfer_lost(self, src: int, dst: int) -> bool:
        return (
            self.network is not None
            and self.network.faults is not None
            and self.network.faults.should_drop(src, dst)
        )

    def duration_for(self, obj: DistributedObject) -> float:
        """Transfer time for one object (M scaled by object size)."""
        return self.default_duration * obj.size

    def migrate(
        self,
        objects: Iterable[DistributedObject],
        target_node: int,
        extra_time: float = 0.0,
        strict: bool = False,
    ) -> Generator:
        """Process fragment migrating ``objects`` to ``target_node``.

        Transfers run in parallel; the fragment completes when the last
        member is installed.  Returns a :class:`MigrationOutcome`.

        ``extra_time`` is added to every member's transfer duration —
        this is how §3.3's bookkeeping payload ("the size of data that
        has to be transferred when migrating an object increases") is
        charged when a dynamic policy opts into overhead accounting.

        With ``strict=True`` an outcome with aborted members raises
        :class:`MigrationAbortedError` (after every rollback finished);
        by default callers inspect :attr:`MigrationOutcome.aborted`.
        """
        if self._telemetry_on:
            return self._migrate_traced(objects, target_node, extra_time, strict)
        return self._migrate(objects, target_node, extra_time, strict)

    def _migrate_traced(
        self,
        objects: Iterable[DistributedObject],
        target_node: int,
        extra_time: float,
        strict: bool,
    ) -> Generator:
        """Span-wrapped :meth:`_migrate` (one ``migration`` span)."""
        objects = list(objects)
        telemetry = self.telemetry
        span = telemetry.start_span(
            "migration", node=target_node, objects=len(objects)
        )
        try:
            outcome = yield from self._migrate(
                objects, target_node, extra_time, strict, span=span
            )
        except BaseException as exc:
            telemetry.end_span(span, status=ERROR, error=type(exc).__name__)
            raise
        telemetry.end_span(
            span,
            moved=outcome.moved_count,
            aborted=outcome.aborted_count,
            already=len(outcome.already_there),
        )
        return outcome

    def _migrate(
        self,
        objects: Iterable[DistributedObject],
        target_node: int,
        extra_time: float = 0.0,
        strict: bool = False,
        span: Optional[Span] = None,
    ) -> Generator:
        """The untraced migration generator (see :meth:`migrate`)."""
        if extra_time < 0:
            raise ValueError(f"extra_time must be >= 0, got {extra_time}")
        self.registry.node(target_node)  # validate target exists
        objects = list(objects)
        outcome = MigrationOutcome(target_node=target_node)
        start = self.env.now

        movers = []
        for obj in objects:
            if not obj.in_transit and obj.node_id == target_node:
                outcome.already_there.append(obj)
                continue
            movers.append(obj)

        if movers:
            transfer = _SetTransfer(
                self, movers, target_node, extra_time, span
            )
            yield transfer.done
            for member in transfer.members:
                state = member.state
                if state is INSTALLED:
                    outcome.moved.append(member.obj)
                    outcome.transfer_time += member.wire_time
                elif state is ALREADY:
                    # It was in transit towards (or already reached) the
                    # target when we caught up with it.
                    outcome.already_there.append(member.obj)
                else:
                    outcome.aborted.append(member.obj)
                    outcome.wasted_transfer_time += member.wire_time

        outcome.elapsed = self.env.now - start
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now,
                MessageKind.OBJECT_TRANSFER.value,
                target=target_node,
                moved=outcome.moved_count,
                elapsed=outcome.elapsed,
            )
        if strict and outcome.aborted:
            names = ", ".join(o.name for o in outcome.aborted)
            raise MigrationAbortedError(
                f"migration to node {target_node} aborted for {names}"
            )
        return outcome
