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

Who the arbiter *is* depends on the deployment's arbitration mode:

``central``
    The supervisor process grants every lock (PR 8's design, now
    journaled to the arbitration WAL so the arbiter itself may crash).

``home``
    The object space is partitioned into slices (``object_id %
    num_slices``) and each worker is *home node* for its slices,
    granting move-block leases for its own objects peer-to-peer — the
    supervisor is demoted to spawner / failure detector /
    home-reassigner.  A home node runs the same ``LockManager`` +
    transfer-fence machinery the supervisor runs centrally; commits
    are mirrored to the supervisor (``PLACE_NOTICE``) so the WAL keeps
    an ownership record to reassign slices from when a home dies.

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
from itertools import count
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import ConnectionLostError, TimeoutError, TransportClosedError
from repro.runtime.live.outbox import SettlementOutbox
from repro.runtime.live.transport import AsyncioTransport, FaultyTransport
from repro.runtime.live.wal import TRANSFER_BAND, TransferLogEntry
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
    PLACE_NOTICE,
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
    #: Grants/denials served while acting as a home node.
    home_grants: int = 0
    home_denials: int = 0
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
            "home_grants": self.home_grants,
            "home_denials": self.home_denials,
            "stale_pulls_refused": self.stale_pulls_refused,
        }


class _PeerDown:
    """``health`` adapter naming one dead peer for ``break_crashed``."""

    def __init__(self, node_id: int):
        self.node_id = node_id

    def is_down(self, node_id: int) -> bool:
        return node_id == self.node_id


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
        arbitration: str = "central",
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
        # -- home-node arbitration state (inert under central mode) --
        self.arbitration = arbitration
        self.num_slices = num_slices
        #: slice -> home node, as last broadcast by the supervisor.
        self.home_map: Dict[int, int] = {}
        #: worker -> current incarnation, broadcast with the home map;
        #: a home stamps the source's onto every grant it makes.
        self.incarnations: Dict[int, int] = {}
        #: Slices this worker is home for.
        self.home_slices: Set[int] = set()
        #: Authoritative placement for objects in our slices.
        self.home_placement: Dict[int, int] = {}
        #: Lockable stand-ins for our slice's objects (lock state only —
        #: the *hosted* object may live on any worker).
        self.home_records: Dict[int, LiveObject] = {}
        self.home_locks = LockManager(
            clock=self.transport.clock, lease_duration=lease_duration
        )
        self.home_blocks: Dict[int, MoveBlock] = {}
        self.home_transfers: Dict[int, TransferLogEntry] = {}
        self._home_seq = count(1)
        #: Every EVICT / RESTORE / PLACE_NOTICE this home owes, retried
        #: until acknowledged or the addressee's incarnation is dead.
        self.outbox = SettlementOutbox(
            self.transport, self.incarnations, request_timeout
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
            if self.telemetry.enabled:
                self.telemetry.end_span(
                    self.telemetry.start_span(
                        f"live.{kind}",  # live.evict / live.restore
                        node=self.node_id,
                        remote=envelope.trace,
                        detached=True,
                        transfer=transfer_id,
                        held=obj is not None,
                    )
                )
            await self.transport.reply(envelope, {"ok": True})
        elif kind == MOVE_REQUEST:
            await self._serve_home_move(envelope)
        elif kind == PLACE:
            await self._serve_home_place(envelope)
        elif kind == ROLLBACK:
            await self._serve_home_rollback(envelope)
        elif kind == END_REQUEST:
            block = self.home_blocks.pop(envelope.payload["block_id"], None)
            released = (
                self.home_locks.release_block(block) if block else 0
            )
            await self.transport.reply(envelope, {"released": released})
        elif kind == HOME_ASSIGN:
            await self._serve_home_assign(envelope)
        elif kind == HOME_MAP:
            self.home_map = dict(envelope.payload["map"])
            self.num_slices = envelope.payload.get(
                "num_slices", self.num_slices
            )
            self.incarnations.update(envelope.payload.get("incarnations", {}))
            self.outbox.fence()
            await self.transport.reply(envelope, {"ok": True})
        elif kind == HOME_STATE:
            await self.transport.reply(
                envelope,
                {
                    "slices": sorted(self.home_slices),
                    "placement": dict(self.home_placement),
                    "pending": [
                        t.transfer_id
                        for t in self.home_transfers.values()
                        if t.state == "pending"
                    ],
                },
            )
        elif kind == BREAK_HOMED:
            await self._serve_break_homed(envelope)
        elif kind == SETTLE:
            await self._serve_settle(envelope)
        elif kind == SEED:
            for state in envelope.payload["objects"]:
                obj = LiveObject.from_state(state)
                self.objects[obj.object_id] = obj
            if self.telemetry.enabled:
                self.telemetry.end_span(
                    self.telemetry.start_span(
                        "live.seed",
                        node=self.node_id,
                        remote=envelope.trace,
                        detached=True,
                        count=len(envelope.payload["objects"]),
                    )
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
            await self.transport.reply(envelope, self.stats.as_dict())
        elif kind == DRAIN:
            await self._serve_drain(envelope)
        elif kind == INVENTORY:
            if self.telemetry.enabled:
                self.telemetry.end_span(
                    self.telemetry.start_span(
                        "live.inventory",
                        node=self.node_id,
                        remote=envelope.trace,
                        detached=True,
                        objects=len(self.objects),
                        in_transit=len(self.in_transit),
                    )
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
        if self.telemetry.enabled:
            self.telemetry.end_span(
                self.telemetry.start_span(
                    "live.transfer.serve",
                    node=self.node_id,
                    remote=envelope.trace,
                    detached=True,
                    object=object_id,
                    transfer=transfer_id,
                    held=obj is not None,
                )
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
            {
                "stats": self.stats.as_dict(),
                "transport": self.transport.stats(),
            },
        )

    # -- home-node arbitration: this worker as the §3.2 arbiter ---------------

    async def _serve_home_assign(self, envelope: Envelope) -> None:
        """Become home for the given slices with their placements."""
        for slice_id in envelope.payload["slices"]:
            self.home_slices.add(slice_id)
            self.home_map[slice_id] = self.node_id
        for oid, where in envelope.payload["placement"].items():
            self.home_placement[oid] = where
            if oid not in self.home_records:
                self.home_records[oid] = LiveObject(oid)
        await self.transport.reply(
            envelope, {"ok": True, "slices": sorted(self.home_slices)}
        )

    async def _serve_home_move(self, envelope: Envelope) -> None:
        """§3.2 at a peer home node: grant the lock or answer "locked"."""
        decision = self._home_move_decision(envelope)
        if self.telemetry.enabled:
            self.telemetry.end_span(
                self.telemetry.start_span(
                    "live.grant",
                    node=self.node_id,
                    remote=envelope.trace,
                    detached=True,
                    object=envelope.payload["object_id"],
                    granted=decision["granted"],
                )
            )
        await self.transport.reply(envelope, decision)

    def _home_move_decision(self, envelope: Envelope) -> Dict[str, Any]:
        """The grant-or-deny decision behind :meth:`_serve_home_move`."""
        object_id = envelope.payload["object_id"]
        mover = envelope.src
        in_slice = (
            self.num_slices > 0
            and object_id % self.num_slices in self.home_slices
        )
        if not in_slice or object_id not in self.home_placement:
            # Stale map at the mover (slice reassigned): not ours.
            return {
                "granted": False,
                "location": self.home_placement.get(object_id),
                "not_home": True,
            }
        record = self.home_records[object_id]
        if self.home_locks.is_locked(record):
            self.stats.home_denials += 1
            return {
                "granted": False,
                "location": self.home_placement[object_id],
            }
        block = MoveBlock(client_node=mover, target=record)
        try:
            self.home_locks.lock(record, block)
        except Exception:
            self.stats.home_denials += 1
            return {
                "granted": False,
                "location": self.home_placement[object_id],
            }
        self.stats.home_grants += 1
        self.home_blocks[block.block_id] = block
        source = self.home_placement[object_id]
        transfer_id = None
        if source != mover:
            # Band the id by home node: two homes can never mint the
            # same transfer id, and recovery can attribute any id to
            # the home that granted it.
            transfer_id = self.node_id * TRANSFER_BAND + next(self._home_seq)
            self.home_transfers[transfer_id] = TransferLogEntry(
                transfer_id=transfer_id,
                object_id=object_id,
                src=source,
                dst=mover,
                block_id=block.block_id,
            )
        return {
            "granted": True,
            "source": source,
            "incarnation": self.incarnations.get(source, 0),
            "block_id": block.block_id,
            "transfer_id": transfer_id,
        }

    async def _serve_home_place(self, envelope: Envelope) -> None:
        """The linearization point, at the home: commit or fence out.

        Idempotent by transfer id: the destination asking again for a
        transfer already placed for it is told ``ok`` and nothing is
        committed twice.
        """
        transfer = self.home_transfers.get(envelope.payload["transfer_id"])
        already_placed = (
            transfer is not None
            and transfer.state == "placed"
            and transfer.dst == envelope.src
            and self.home_placement.get(transfer.object_id) == transfer.dst
        )
        ok = already_placed or (
            transfer is not None
            and transfer.state == "pending"
            and transfer.dst == envelope.src
            and transfer.block_id in self.home_blocks
            and not self.home_locks.was_broken(
                self.home_blocks[transfer.block_id]
            )
        )
        if ok and not already_placed:
            transfer.state = "placed"
            self.home_placement[transfer.object_id] = transfer.dst
            self.outbox.tell_source(transfer, EVICT, trace=envelope.trace)
            # Mirror the commit to the supervisor's WAL so a dead
            # home's slice can be reassigned from durable ownership
            # records.  Retried across a supervisor restart: the
            # recovered supervisor mirrors it once.
            self.outbox.post(
                SUPERVISOR,
                PLACE_NOTICE,
                {
                    "transfer_id": transfer.transfer_id,
                    "object_id": transfer.object_id,
                    "node": transfer.dst,
                },
                trace=envelope.trace,
            )
        if self.telemetry.enabled:
            self.telemetry.end_span(
                self.telemetry.start_span(
                    "live.place",
                    node=self.node_id,
                    remote=envelope.trace,
                    detached=True,
                    transfer=envelope.payload["transfer_id"],
                    ok=ok,
                )
            )
        await self.transport.reply(envelope, {"ok": ok})

    async def _serve_home_rollback(self, envelope: Envelope) -> None:
        """Abort a home-granted transfer; restore the source's copy."""
        transfer = self.home_transfers.get(envelope.payload["transfer_id"])
        ok = transfer is not None and transfer.state == "pending"
        if ok:
            transfer.state = "rolled_back"
            self.outbox.tell_source(transfer, RESTORE, trace=envelope.trace)
        if self.telemetry.enabled:
            self.telemetry.end_span(
                self.telemetry.start_span(
                    "live.rollback",
                    node=self.node_id,
                    remote=envelope.trace,
                    detached=True,
                    transfer=envelope.payload["transfer_id"],
                    ok=ok,
                )
            )
        await self.transport.reply(envelope, {"ok": ok})

    async def _serve_break_homed(self, envelope: Envelope) -> None:
        """A peer died: break its leases, settle its transfers locally.

        Mirrors the central supervisor's ``_restart_inner`` lock
        recovery, but only for the state *this* home arbitrates.
        """
        dead = envelope.payload["node"]
        before = set(self.home_locks._broken)
        broken = self.home_locks.break_crashed(_PeerDown(dead))
        for block_id in self.home_locks._broken - before:
            self.home_blocks.pop(block_id, None)
        for transfer in self.home_transfers.values():
            if transfer.state != "pending":
                continue
            if transfer.dst == dead:
                transfer.state = "rolled_back"
                if transfer.src != dead:
                    self.outbox.tell_source(transfer, RESTORE)
            elif transfer.src == dead:
                # Source died holding the held-back copy: state lost,
                # placement never moved — the supervisor re-seeds it.
                transfer.state = "failed"
        await self.transport.reply(envelope, {"broken": broken})

    async def _serve_settle(self, envelope: Envelope) -> None:
        """Drain report: settle everything this home arbitrates.

        Rolls back the pending transfers, awaits the outbox, and
        reports placements, verdicts and lock state to the supervisor.
        """
        leaked = 0
        for transfer in self.home_transfers.values():
            if transfer.state == "pending":
                transfer.state = "rolled_back"
                self.outbox.tell_source(transfer, RESTORE)
        for block in list(self.home_blocks.values()):
            leaked += 1 if self.home_locks.release_block(block) else 0
        self.home_blocks.clear()
        await self.outbox.drained(self.request_timeout)
        lock_violations: List[str] = []
        try:
            self.home_locks.check_invariant()
        except AssertionError as exc:
            lock_violations.append(f"home {self.node_id}: {exc}")
        await self.transport.reply(
            envelope,
            {
                "leaked_blocks": leaked,
                "placement": dict(self.home_placement),
                "verdicts": {
                    t.transfer_id: t.state
                    for t in self.home_transfers.values()
                },
                "lock_violations": lock_violations,
            },
        )

    # -- the workload: concurrent movers --------------------------------------

    def _arbiter_for(self, object_id: int) -> int:
        """Who grants moves for this object (mode-dependent)."""
        if self.arbitration == "home" and self.num_slices > 0:
            return self.home_map.get(
                object_id % self.num_slices, SUPERVISOR
            )
        return SUPERVISOR

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
    arbitration: str = "central",
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
        arbitration=arbitration,
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
