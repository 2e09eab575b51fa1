"""Live node worker: one OS process speaking the migration protocol.

A worker hosts a shard of mobile objects and runs the paper's
move-block loop against an *arbiter*:

1. ``MOVE_REQUEST`` to the arbiter — the place-policy decision (grant
   or "locked", §3.2) happens there, against the *real*
   :class:`~repro.core.locking.LockManager` running on a wall clock.
2. Granted: ``OBJECT_TRANSFER`` to the source worker over the data
   plane (the faultable path), carrying pickled object state back.
3. ``PLACE`` to the arbiter — the linearization point.  The arbiter
   fences by transfer id: exactly one of {placed at the destination,
   rolled back at the source} wins, so an ack lost to a partition can
   never duplicate an object.
4. Local invocations inside the block, then ``END_REQUEST`` releases
   the place-policy lock.

The arbiter is one :class:`~repro.runtime.live.arbiter.Arbiter`,
wherever the object's slice (``object_id % num_slices``) is homed: at
the supervisor (central arbitration, journaled to the arbitration WAL
so the arbiter itself may crash), or at a peer worker (home
arbitration).  Every worker owns an arbiter for the slices the
supervisor homes at it; a worker's commits are mirrored to the
supervisor (``PLACE_NOTICE``) so the WAL keeps an ownership record to
reassign slices from when a home dies.  A mover asks the home its map
names, and the supervisor when the map names none.

Denied movers degrade to remote ``INVOKE`` at the object's current
location — §3.2's graceful degradation, now across real processes.
A transfer that times out (dropped frames, partition) aborts with
``ROLLBACK``: the source keeps its copy, the destination installs
nothing, the lock is released.  Crash-killed workers are restarted by
the supervisor and re-seeded; their in-flight blocks are reclaimed via
``break_crashed``.  Workers are spawned *non-daemon* so they survive a
supervisor SIGKILL; the heartbeat loop doubles as an orphan detector —
a worker whose heartbeats go unanswered for ``orphan_grace`` seconds
concludes the control plane is gone for good and exits.

The module-level :func:`worker_main` is the ``multiprocessing`` spawn
target — everything it needs arrives as picklable arguments.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConnectionLostError, TimeoutError, TransportClosedError
from repro.runtime.live.arbiter import KINDS, Arbiter
from repro.runtime.live.outbox import SettlementOutbox
from repro.runtime.live.transport import AsyncioTransport, FaultyTransport
from repro.runtime.live.wire import (
    BREAK_HOMED,
    DRAIN,
    END_REQUEST,
    EVICT,
    HEARTBEAT,
    HOME_ASSIGN,
    HOME_MAP,
    HOME_STATE,
    INVENTORY,
    INVOKE,
    MOVE_REQUEST,
    OBJECT_TRANSFER,
    PLACE,
    RESTORE,
    ROLLBACK,
    SEED,
    SET_FAULTS,
    SETTLE,
    SHUTDOWN,
    START,
    STATS,
    SUPERVISOR,
    Envelope,
)
from repro.telemetry.core import NULL_TELEMETRY, Telemetry, span_context
from repro.telemetry.live import (
    LATENCY_BUCKETS,
    FlightRecorder,
    ProcessTelemetryWriter,
    process_id_base,
)
from repro.telemetry.spans import ERROR

#: Bound on the per-worker migration-latency sample list shipped at
#: drain (a frame, not a stream — the histogram lives supervisor-side).
MAX_LATENCY_SAMPLES = 2000

#: Seconds between incremental telemetry flushes / flight snapshots.
TELEMETRY_FLUSH_INTERVAL = 0.5


class LiveObject:
    """A mobile object as a live worker hosts it.

    Duck-types the slots of
    :class:`~repro.runtime.objects.DistributedObject` that the lock
    manager and move-block machinery touch (``object_id``, ``name``,
    ``lock_holder``) and adds the transferable state: an opaque payload
    plus a version counter bumped by every invocation — the invariant
    checker uses versions to prove no invocation was applied to a
    stale duplicate.
    """

    __slots__ = ("object_id", "name", "payload", "version", "lock_holder")

    def __init__(self, object_id: int, payload: Any = None, version: int = 0):
        self.object_id = object_id
        self.name = f"obj-{object_id}"
        self.payload = payload
        self.version = version
        self.lock_holder = None

    def state(self) -> Dict[str, Any]:
        """Picklable transfer form."""
        return {
            "object_id": self.object_id,
            "payload": self.payload,
            "version": self.version,
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "LiveObject":
        return LiveObject(
            state["object_id"], state["payload"], state["version"]
        )

    def __repr__(self) -> str:
        return f"<LiveObject {self.name} v{self.version}>"


@dataclass
class WorkerStats:
    """Per-worker workload counters, shipped home at drain."""

    attempts: int = 0
    granted: int = 0
    migrations: int = 0
    denied: int = 0
    aborted: int = 0
    invocations: int = 0
    remote_invocations: int = 0
    moved_object_ids: List[int] = field(default_factory=list)
    #: Wall-clock seconds per completed migration (bounded sample).
    transfer_latencies: List[float] = field(default_factory=list)
    #: OBJECT_TRANSFERs refused because they were granted to a
    #: predecessor incarnation of this worker.
    stale_pulls_refused: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Picklable counter snapshot for the supervisor's report."""
        return {
            "attempts": self.attempts,
            "granted": self.granted,
            "migrations": self.migrations,
            "denied": self.denied,
            "aborted": self.aborted,
            "invocations": self.invocations,
            "remote_invocations": self.remote_invocations,
            "moved_object_ids": list(self.moved_object_ids),
            "transfer_latencies": list(self.transfer_latencies),
            "stale_pulls_refused": self.stale_pulls_refused,
        }


class LiveNodeWorker:
    """The asyncio application running inside one worker process."""

    def __init__(
        self,
        node_id: int,
        listen,
        peers: Dict[int, Tuple],
        seed_objects: List[Dict[str, Any]],
        heartbeat_interval: float = 0.1,
        request_timeout: float = 3.0,
        rng_seed: int = 0,
        incarnation: int = 0,
        num_slices: int = 0,
        lease_duration: float = 5.0,
        orphan_grace: float = 0.0,
        telemetry_dir: Optional[str] = None,
        flight_capacity: int = 512,
    ):
        self.node_id = node_id
        self.transport = AsyncioTransport(
            node_id,
            listen,
            peers,
            jitter_seed=rng_seed,
            incarnation=incarnation,
        )
        self.faults = FaultyTransport(self.transport, seed=rng_seed)
        # -- per-process telemetry (NullTelemetry fast path when off) --
        self.telemetry_dir = telemetry_dir
        if telemetry_dir:
            self.telemetry = Telemetry(
                id_base=process_id_base(node_id, incarnation)
            )
            self.telemetry.bind_clock(self.transport.clock)
            self._writer = ProcessTelemetryWriter(
                self.telemetry,
                telemetry_dir,
                node=node_id,
                incarnation=incarnation,
                role="worker",
                mono_origin=self.transport.clock.origin,
            )
            self.flight = FlightRecorder(
                node_id,
                capacity=flight_capacity,
                clock=self.transport.clock,
                incarnation=incarnation,
                path=FlightRecorder.path_for(
                    telemetry_dir, node_id, incarnation
                ),
            )
            self.transport.observer = self.flight
        else:
            self.telemetry = NULL_TELEMETRY
            self._writer = None
            self.flight = None
        self._drain_metrics_done = False
        self.objects: Dict[int, LiveObject] = {}
        for state in seed_objects:
            obj = LiveObject.from_state(state)
            self.objects[obj.object_id] = obj
        #: transfer_id -> object held back pending PLACE/ROLLBACK.
        self.in_transit: Dict[int, LiveObject] = {}
        self.heartbeat_interval = heartbeat_interval
        self.request_timeout = request_timeout
        self.orphan_grace = orphan_grace
        self.rng = random.Random(rng_seed)
        self.stats = WorkerStats()
        self._stopping = asyncio.Event()
        self._draining = asyncio.Event()
        self._workload_done = asyncio.Event()
        self._workload_done.set()  # no workload until START arrives
        self._workload_params: Dict[str, Any] = {}
        self.num_slices = num_slices
        #: slice -> home node, as last broadcast by the supervisor.
        self.home_map: Dict[int, int] = {}
        #: worker -> current incarnation, broadcast with the home map;
        #: a home stamps the source's onto every grant it makes.
        self.incarnations: Dict[int, int] = {}
        #: Every EVICT / RESTORE / PLACE_NOTICE this home owes, retried
        #: until acknowledged or the addressee's incarnation is dead.
        self.outbox = SettlementOutbox(
            self.transport, self.incarnations, request_timeout
        )
        #: Arbiter for the slices homed here (none until HOME_ASSIGN).
        self.arbiter = Arbiter(
            node_id,
            self.transport.clock,
            lease_duration,
            self.incarnations,
            self.outbox,
            telemetry=self.telemetry,
            incarnation=incarnation,
        )

    # -- lifecycle ------------------------------------------------------------

    async def run(self) -> None:
        """Serve the node until SHUTDOWN: transport, heartbeats, blocks."""
        self.transport.handler = self.handle
        await self.transport.start()
        if self.flight is not None:
            self.flight.record("state.up", pid=os.getpid())
            try:
                # Graceful-abnormal exit: dump the flight ring before
                # dying so a TERMed worker still leaves a post-mortem.
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, self._on_sigterm
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform without loop signal handlers
        heartbeats = asyncio.ensure_future(self._heartbeat_loop())
        await self._stopping.wait()
        heartbeats.cancel()
        self._dump_flight("exit")
        if self._writer is not None:
            self._writer.close()
        await self.transport.close()

    def _on_sigterm(self) -> None:
        if self.flight is not None:
            self.flight.record("state.sigterm")
        self._dump_flight("sigterm")
        if self._writer is not None:
            self._writer.flush()
        self._stopping.set()

    def _dump_flight(self, reason: str) -> None:
        """Persist the flight ring, recording a ``flight.dump`` span."""
        if self.flight is None:
            return
        telemetry = self.telemetry
        span = telemetry.start_span(
            "flight.dump",
            node=self.node_id,
            detached=True,
            reason=reason,
            entries=len(self.flight.entries()),
        )
        self.flight.dump(reason=reason)
        telemetry.end_span(span)

    async def _heartbeat_loop(self) -> None:
        clock = self.transport.clock
        last_ok = clock.now()
        last_flush = last_ok
        while not self._stopping.is_set():
            try:
                payload = {
                    "node": self.node_id,
                    "pid": os.getpid(),
                    "incarnation": self.transport.incarnation,
                }
                if self.telemetry.enabled:
                    # Handshake clock sample for supervisor-side
                    # cross-process timestamp alignment (ClockSync).
                    payload["clock"] = clock.now()
                await self.transport.send(SUPERVISOR, HEARTBEAT, payload)
                last_ok = clock.now()
            except (ConnectionLostError, TransportClosedError):
                # Supervisor briefly away (crashed and recovering):
                # keep beating — unless it has been gone so long we
                # must assume this process is orphaned for good.
                if (
                    self.orphan_grace > 0
                    and clock.now() - last_ok > self.orphan_grace
                ):
                    if self.flight is not None:
                        self.flight.record("state.orphaned")
                    self._stopping.set()
                    return
            if (
                self._writer is not None
                and clock.now() - last_flush >= TELEMETRY_FLUSH_INTERVAL
            ):
                last_flush = clock.now()
                self._writer.flush()
                self.flight.dump(reason="snapshot")
            await asyncio.sleep(self.heartbeat_interval)

    # -- inbound protocol -----------------------------------------------------

    async def handle(self, envelope: Envelope) -> None:
        """Dispatch one inbound message to its protocol serve."""
        kind = envelope.kind
        if kind == OBJECT_TRANSFER:
            await self._serve_transfer(envelope)
        elif kind == INVOKE:
            await self._serve_invoke(envelope)
        elif kind == EVICT or kind == RESTORE:
            # A transfer's verdict: drop or reinstate the held-back
            # copy.  Idempotent by transfer id; a retry finds nothing.
            transfer_id = envelope.payload["transfer_id"]
            obj = self.in_transit.pop(transfer_id, None)
            if obj is not None and kind == RESTORE:
                self.objects[obj.object_id] = obj
            self._mark(  # live.evict / live.restore
                f"live.{kind}",
                envelope,
                transfer=transfer_id,
                held=obj is not None,
            )
            await self.transport.reply(envelope, {"ok": True})
        elif kind in KINDS:
            await self.arbiter.serve(envelope)
        elif kind == HOME_ASSIGN:
            # Become home for these slices, with their placements.
            self.arbiter.assign(envelope.payload["placement"])
            for slice_id in envelope.payload["slices"]:
                self.home_map[slice_id] = self.node_id
            await self.transport.reply(envelope, {"ok": True})
        elif kind == HOME_MAP:
            self.home_map = dict(envelope.payload["map"])
            self.num_slices = envelope.payload.get(
                "num_slices", self.num_slices
            )
            # Concurrent restarts each broadcast a map, and an older one
            # can land last: an incarnation only ever moves forward.
            for node, incarnation in envelope.payload.get(
                "incarnations", {}
            ).items():
                if incarnation > self.incarnations.get(node, -1):
                    self.incarnations[node] = incarnation
            self.outbox.fence()
            await self.transport.reply(envelope, {"ok": True})
        elif kind == HOME_STATE:
            await self.transport.reply(
                envelope, {"placement": dict(self.arbiter.placement)}
            )
        elif kind == BREAK_HOMED:
            # A peer died: break its leases, settle its transfers here.
            reply, verdicts = self.arbiter.break_node(envelope.payload["node"])
            self.arbiter.post(verdicts)
            await self.transport.reply(envelope, reply)
        elif kind == SETTLE:
            await self.transport.reply(
                envelope, await self.arbiter.drain(self.request_timeout)
            )
        elif kind == SEED:
            for state in envelope.payload["objects"]:
                obj = LiveObject.from_state(state)
                self.objects[obj.object_id] = obj
            self._mark(
                "live.seed", envelope, count=len(envelope.payload["objects"])
            )
            await self.transport.reply(
                envelope, {"ok": True, "count": len(self.objects)}
            )
        elif kind == SET_FAULTS:
            self.faults.apply_snapshot(envelope.payload["config"])
            await self.transport.reply(envelope, {"ok": True})
        elif kind == START:
            self._workload_params = dict(envelope.payload)
            self._workload_done.clear()
            asyncio.ensure_future(self._workload())
            await self.transport.reply(envelope, {"ok": True})
        elif kind == STATS:
            await self.transport.reply(envelope, self._stats())
        elif kind == DRAIN:
            await self._serve_drain(envelope)
        elif kind == INVENTORY:
            self._mark(
                "live.inventory",
                envelope,
                objects=len(self.objects),
                in_transit=len(self.in_transit),
            )
            await self.transport.reply(
                envelope,
                {
                    "incarnation": self.transport.incarnation,
                    "inventory": {
                        oid: obj.version
                        for oid, obj in sorted(self.objects.items())
                    },
                    "in_transit_objects": {
                        tid: obj.object_id
                        for tid, obj in sorted(self.in_transit.items())
                    },
                },
            )
        elif kind == SHUTDOWN:
            await self.transport.reply(envelope, {"ok": True})
            self._stopping.set()

    def _mark(self, name: str, envelope: Envelope, **tags: Any) -> None:
        """Record an instant span joining ``envelope``'s trace."""
        if self.telemetry.enabled:
            span = self.telemetry.start_span(
                name,
                node=self.node_id,
                remote=envelope.trace,
                detached=True,
                **tags,
            )
            self.telemetry.end_span(span)

    async def _serve_transfer(self, envelope: Envelope) -> None:
        """Source side of a migration: hand the state out, hold a copy.

        The copy stays in ``in_transit`` until the arbiter settles the
        transfer (EVICT on success, RESTORE on abort) — losing the
        reply on the way back must not lose the object.

        A transfer granted to another incarnation of this worker is
        refused: the arbiter failed it when that predecessor died, so
        nobody would ever settle a copy held back for it.
        """
        object_id = envelope.payload["object_id"]
        transfer_id = envelope.payload["transfer_id"]
        granted_to = envelope.payload.get("incarnation")
        if granted_to is not None and granted_to != self.transport.incarnation:
            self.stats.stale_pulls_refused += 1
            obj = None
        else:
            obj = self.objects.pop(object_id, None)
        self._mark(
            "live.transfer.serve",
            envelope,
            object=object_id,
            transfer=transfer_id,
            held=obj is not None,
        )
        if obj is None:
            await self.transport.reply(envelope, {"state": None})
            return
        self.in_transit[transfer_id] = obj
        await self.transport.reply(envelope, {"state": obj.state()})

    async def _serve_invoke(self, envelope: Envelope) -> None:
        """Remote invocation: §3.2's degraded mode for denied movers."""
        obj = self.objects.get(envelope.payload["object_id"])
        if obj is None:
            await self.transport.reply(envelope, {"ok": False})
            return
        obj.version += 1
        await self.transport.reply(
            envelope, {"ok": True, "version": obj.version}
        )

    async def _serve_drain(self, envelope: Envelope) -> None:
        """Quiesce: finish the in-flight block, then report stats.

        The inventory snapshot is a separate INVENTORY request the
        supervisor issues only after *every* worker is quiesced and
        every transfer settled — snapshotting here would race the
        still-running movers on other nodes.
        """
        telemetry = self.telemetry
        span = None
        if telemetry.enabled:
            span = telemetry.start_span(
                "live.drain",
                node=self.node_id,
                remote=envelope.trace,
                detached=True,
            )
        if self.flight is not None:
            self.flight.record("state.draining")
        self._draining.set()
        await self._workload_done.wait()
        if telemetry.enabled and not self._drain_metrics_done:
            # Materialize workload counters exactly once — the
            # supervisor may retry DRAIN while quiescing.
            self._drain_metrics_done = True
            metrics = telemetry.metrics
            for name in (
                "attempts",
                "granted",
                "migrations",
                "denied",
                "aborted",
                "invocations",
                "remote_invocations",
            ):
                metrics.counter(f"live.worker.{name}").inc(
                    getattr(self.stats, name)
                )
        if span is not None:
            telemetry.end_span(span, migrations=self.stats.migrations)
        if self._writer is not None:
            self._writer.flush()
        await self.transport.reply(
            envelope,
            {"stats": self._stats(), "transport": self.transport.stats()},
        )

    def _stats(self) -> Dict[str, Any]:
        """Workload counters plus the grants and denials served as a home."""
        return {
            **self.stats.as_dict(),
            "home_grants": self.arbiter.grants,
            "home_denials": self.arbiter.denials,
        }

    # -- the workload: concurrent movers --------------------------------------

    def _arbiter_for(self, object_id: int) -> int:
        """The home of the object's slice, else the supervisor."""
        if not self.num_slices:
            return SUPERVISOR
        return self.home_map.get(object_id % self.num_slices, SUPERVISOR)

    async def _workload(self) -> None:
        params = self._workload_params
        num_objects = params["num_objects"]
        think = params.get("think_time", 0.002)
        invokes = params.get("invocations_per_block", 3)
        try:
            while not self._draining.is_set() and not self._stopping.is_set():
                await self._move_block(
                    self.rng.randrange(num_objects), invokes
                )
                await asyncio.sleep(self.rng.uniform(0, 2 * think))
        finally:
            self._workload_done.set()

    async def _move_block(self, object_id: int, invokes: int) -> None:
        """One move-block: request, transfer, place, invoke, end.

        When telemetry is on, the whole block runs under a detached
        ``live.move`` root span whose context is stamped onto every
        envelope — the arbiter's grant and the source's transfer serve
        join it from their own processes, so one migration renders as
        a single cross-process trace.
        """
        self.stats.attempts += 1
        arbiter = self._arbiter_for(object_id)
        started = self.transport.clock.now()
        telemetry = self.telemetry
        span = None
        if telemetry.enabled:
            span = telemetry.start_span(
                "live.move",
                node=self.node_id,
                detached=True,
                object=object_id,
                arbiter=arbiter,
            )
        trace = span_context(span)
        try:
            grant = await self.transport.request(
                arbiter,
                MOVE_REQUEST,
                {"object_id": object_id},
                timeout=self.request_timeout,
                trace=trace,
            )
        except (TimeoutError, ConnectionLostError):
            self.stats.aborted += 1
            if span is not None:
                telemetry.end_span(
                    span, status=ERROR, outcome="grant_timeout"
                )
            return
        if not grant.payload["granted"]:
            # Locked by a concurrent mover: degrade to remote invocation.
            self.stats.denied += 1
            await self._invoke_remotely(
                object_id, grant.payload["location"], trace=trace
            )
            if span is not None:
                telemetry.end_span(span, outcome="denied")
            return
        self.stats.granted += 1
        block_id = grant.payload["block_id"]
        source = grant.payload["source"]
        transfer_id = grant.payload["transfer_id"]
        resident = source == self.node_id
        pulled = False
        if not resident:
            resident = pulled = await self._pull(
                arbiter,
                object_id,
                source,
                grant.payload["incarnation"],
                transfer_id,
                parent=span,
            )
            if resident:
                self._record_latency(
                    self.transport.clock.now() - started
                )
        if resident:
            obj = self.objects.get(object_id)
            if obj is not None:
                for _ in range(invokes):
                    obj.version += 1
                    self.stats.invocations += 1
        try:
            await self.transport.request(
                arbiter,
                END_REQUEST,
                {"block_id": block_id},
                timeout=self.request_timeout,
                trace=trace,
            )
        except (TimeoutError, ConnectionLostError):
            pass  # lease expiry / break_crashed reclaims the lock
        if span is not None:
            telemetry.end_span(
                span,
                outcome=(
                    "migrated"
                    if pulled
                    else ("resident" if resident else "aborted")
                ),
            )

    def _record_latency(self, seconds: float) -> None:
        if len(self.stats.transfer_latencies) < MAX_LATENCY_SAMPLES:
            self.stats.transfer_latencies.append(seconds)
        if self.telemetry.enabled:
            self.telemetry.metrics.histogram(
                "live.transfer.latency_s", buckets=LATENCY_BUCKETS
            ).observe(seconds)

    async def _pull(
        self,
        arbiter: int,
        object_id: int,
        source: int,
        incarnation: int,
        transfer_id: int,
        parent=None,
    ) -> bool:
        """Transfer + place; aborts (with rollback) on a refusal or timeout.

        ``incarnation`` is the source's as the grant saw it; a source
        that has since been respawned refuses the transfer.
        """
        telemetry = self.telemetry
        span = None
        if telemetry.enabled:
            span = telemetry.start_span(
                "live.transfer",
                node=self.node_id,
                parent=parent,
                detached=True,
                object=object_id,
                transfer=transfer_id,
                source=source,
            )
        trace = span_context(span)
        try:
            transfer = await self.transport.request(
                source,
                OBJECT_TRANSFER,
                {
                    "object_id": object_id,
                    "transfer_id": transfer_id,
                    "incarnation": incarnation,
                },
                timeout=self.request_timeout,
                trace=trace,
            )
            state = transfer.payload["state"]
            if state is None:
                # The source no longer holds the object, or is not the
                # incarnation the transfer was granted to.
                outcome = "refused"
            else:
                place = await self.transport.request(
                    arbiter,
                    PLACE,
                    {"transfer_id": transfer_id},
                    timeout=self.request_timeout,
                    trace=trace,
                )
        except (TimeoutError, ConnectionLostError):
            state, outcome = None, "timeout"
        if state is None:
            self.stats.aborted += 1
            await self._rollback(arbiter, transfer_id, trace=trace)
            if span is not None:
                telemetry.end_span(span, status=ERROR, outcome=outcome)
            return False
        if not place.payload["ok"]:
            # Fenced out (arbiter saw us crash-suspected, or the
            # transfer was already rolled back): drop the state.
            self.stats.aborted += 1
            if span is not None:
                telemetry.end_span(span, status=ERROR, outcome="fenced")
            return False
        self.objects[object_id] = LiveObject.from_state(state)
        self.stats.migrations += 1
        self.stats.moved_object_ids.append(object_id)
        if span is not None:
            telemetry.end_span(span, outcome="placed")
        return True

    async def _rollback(
        self,
        arbiter: int,
        transfer_id: int,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        try:
            await self.transport.request(
                arbiter,
                ROLLBACK,
                {"transfer_id": transfer_id},
                timeout=self.request_timeout,
                trace=trace,
            )
        except (TimeoutError, ConnectionLostError):
            pass  # arbiter settles the transfer when it breaks us

    async def _invoke_remotely(
        self,
        object_id: int,
        location: Optional[int],
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        if location is None:
            return
        if location == self.node_id:
            obj = self.objects.get(object_id)
            if obj is not None:
                obj.version += 1
                self.stats.remote_invocations += 1
            return
        try:
            reply = await self.transport.request(
                location,
                INVOKE,
                {"object_id": object_id},
                timeout=self.request_timeout,
                trace=trace,
            )
            if reply.payload["ok"]:
                self.stats.remote_invocations += 1
        except (TimeoutError, ConnectionLostError):
            pass  # degraded call lost to chaos: acceptable, not fatal


def worker_main(
    node_id: int,
    listen,
    peers: Dict[int, Tuple],
    seed_objects: List[Dict[str, Any]],
    heartbeat_interval: float,
    request_timeout: float,
    rng_seed: int,
    incarnation: int = 0,
    num_slices: int = 0,
    lease_duration: float = 5.0,
    orphan_grace: float = 0.0,
    telemetry_dir: Optional[str] = None,
) -> None:
    """``multiprocessing`` spawn target: run one worker to completion."""
    worker = LiveNodeWorker(
        node_id,
        listen,
        peers,
        seed_objects,
        heartbeat_interval=heartbeat_interval,
        request_timeout=request_timeout,
        rng_seed=rng_seed,
        incarnation=incarnation,
        num_slices=num_slices,
        lease_duration=lease_duration,
        orphan_grace=orphan_grace,
        telemetry_dir=telemetry_dir,
    )
    try:
        asyncio.run(worker.run())
    except BaseException:
        # Unhandled crash: leave a post-mortem before the process dies.
        if worker.flight is not None:
            worker.flight.record("state.crash")
            try:
                worker.flight.dump(reason="crash")
            except OSError:
                pass
        raise


__all__ = ["LiveNodeWorker", "LiveObject", "WorkerStats", "worker_main"]
