"""NodeSupervisor: spawn, arbitrate, detect, restart, recover, drain.

The supervisor is the live deployment's control plane, running under
node id :data:`~repro.runtime.live.wire.SUPERVISOR`.  It plays five
roles:

**Arbiter (central mode).**  The paper's place-policy decision (§3.2)
runs here against the *real* :class:`~repro.core.locking.LockManager`
on a :class:`~repro.runtime.clock.WallClock`.  Every move-block is a
real :class:`~repro.core.moveblock.MoveBlock`.  The supervisor is also
the placement linearization point: a migration commits only when the
destination's ``PLACE`` passes the transfer fence, so a lost ack or a
partition can delay a migration but never duplicate an object.

**Journal.**  Every arbitration transition — grant, PLACE commit,
rollback, lease break, incarnation bump, home-slice assignment — is
appended to the :class:`~repro.runtime.live.wal.ArbitrationWal`
*before* the corresponding control message leaves the process.  The
WAL is what makes the arbiter itself killable.

**Failure detector.**  Workers heartbeat over the control plane; the
supervisor feeds :class:`~repro.runtime.failure.HeartbeatHistory`
(phi-accrual or fixed-timeout — PR 4's math, wall-clock intervals) and
cross-checks OS-level process liveness.  Heartbeats also carry the
worker's pid, so a supervisor that *recovered* from a SIGKILL (and
therefore owns no process handles) can still manage the orphans its
predecessor spawned.

**Restart with lease recovery.**  A dead worker's in-flight blocks are
reclaimed via ``LockManager.break_crashed`` — broken blocks are barred
forever, so a zombie's late ``PLACE`` or lease renewal cannot
resurrect exclusivity.  The node is respawned and re-seeded with the
objects the placement map assigns it.  Under *home* arbitration the
supervisor is demoted to exactly this role plus home-reassignment:
peer home nodes grant the leases, and when one dies its slice is
reassigned from the WAL-backed ownership records reconciled against
live inventories.

**Drain.**  Graceful shutdown asks each worker to finish its in-flight
block and report stats + inventory under a hard deadline
(:class:`~repro.errors.DrainTimeoutError` otherwise); the inventories
are then audited against the placement map — every object exactly
once, exactly where the map says.

Recovery (``recover=True``) replays the WAL, rebuilds lock/placement/
fence state, waits for the orphaned workers to reconnect, and settles
the in-doubt transfer tail: a transfer with no logged PLACE is rolled
back (the destination can never have installed it — the ok reply is
sent only after the append); an object's latest transfer *with* a
logged PLACE is confirmed against the destination's inventory —
present (hosted, or held in transit for a later transfer) means commit
(evict the source's held-back copy), absent means the commit never
reached the destination and is reverted to the source.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import signal
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.availability.livechaos import (
    KillSupervisor,
    LiveChaosSchedule,
    LiveCrash,
    LiveFaultWindow,
    LivePartition,
)
from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import ConnectionLostError, DrainTimeoutError, TimeoutError
from repro.runtime.clock import WallClock
from repro.runtime.failure import HeartbeatHistory
from repro.runtime.live import wal as wal_module
from repro.runtime.live.node import LiveObject, worker_main
from repro.runtime.live.outbox import SettlementOutbox
from repro.runtime.live.transport import AsyncioTransport, unix_supported
from repro.runtime.live.wal import TRANSFER_BAND, ArbitrationWal
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
    LOCATE,
    MOVE_REQUEST,
    PLACE,
    PLACE_NOTICE,
    RESTORE,
    ROLLBACK,
    SET_FAULTS,
    SETTLE,
    SHUTDOWN,
    START,
    STATS,
    SUPERVISOR,
    Envelope,
)
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.live import (
    LATENCY_BUCKETS,  # noqa: F401 - canonical home moved; re-exported
    ClockSync,
    FlightRecorder,
    ProcessTelemetryWriter,
    load_flight_dump,
)

#: Arbitration modes the config accepts.
ARBITRATION_MODES = ("central", "home")


@dataclass
class SupervisorConfig:
    """Everything one live run needs, picklable and explicit."""

    num_nodes: int = 3
    num_objects: int = 120
    heartbeat_interval: float = 0.1
    #: Fixed-timeout fallback when ``phi_threshold`` is None.
    heartbeat_timeout: float = 1.0
    phi_threshold: Optional[float] = 8.0
    lease_duration: float = 5.0
    request_timeout: float = 3.0
    drain_timeout: float = 10.0
    #: Workload knobs forwarded to the workers' START message.
    think_time: float = 0.002
    invocations_per_block: int = 3
    #: Stop once this many migrations were measured (or at deadline).
    target_migrations: int = 250
    max_duration: float = 20.0
    rng_seed: int = 0
    socket_dir: Optional[str] = None
    #: Who grants move-block leases: the supervisor ("central") or the
    #: per-slice home nodes, peer-to-peer ("home").
    arbitration: str = "central"
    #: Arbitration WAL location; default ``<socket_dir>/arbitration.wal``.
    wal_path: Optional[str] = None
    #: fsync every append (the durability the recovery contract needs;
    #: tests on tmpfs may opt out for speed).
    wal_fsync: bool = True
    #: Workers self-exit after this long without a reachable
    #: supervisor — the backstop against leaking orphans when the
    #: arbiter is SIGKILLed and never recovered.  Must comfortably
    #: exceed the recovery window.
    orphan_grace: float = 30.0
    #: How long a recovering supervisor waits for orphaned workers to
    #: reconnect before treating them as dead.
    recovery_wait: float = 8.0
    #: Directory for cross-process telemetry artifacts (per-process
    #: span/metric JSONL, flight-recorder dumps, merged trace).  None
    #: (the default) keeps every process on the NullTelemetry fast
    #: path.  Picklable like the rest of the config, so workers learn
    #: it through their spawn args.
    telemetry_dir: Optional[str] = None

    def validate(self) -> None:
        """Reject non-positive sizes, intervals and budgets."""
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_objects < 1:
            raise ValueError(
                f"num_objects must be >= 1, got {self.num_objects}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.max_duration <= 0:
            raise ValueError("max_duration must be positive")
        if self.arbitration not in ARBITRATION_MODES:
            raise ValueError(
                f"arbitration must be one of {ARBITRATION_MODES}, "
                f"got {self.arbitration!r}"
            )


@dataclass
class Transfer:
    """One in-flight object transfer, fenced by id."""

    transfer_id: int
    object_id: int
    src: int
    dst: int
    block_id: int
    state: str = "pending"  # pending | placed | rolled_back | failed
    #: Telemetry context of the mover's migration-root span, captured
    #: from the MOVE_REQUEST envelope so EVICT/RESTORE notices join the
    #: same cross-process trace.
    trace: Optional[Tuple[int, int]] = None


class _CrashedSet:
    """``health`` adapter for ``LockManager.break_crashed``."""

    def __init__(self):
        self.down: Set[int] = set()

    def is_down(self, node_id: int) -> bool:
        return node_id in self.down


class NodeSupervisor:
    """Control plane for one live multi-process deployment."""

    def __init__(
        self,
        config: SupervisorConfig,
        chaos: Optional[LiveChaosSchedule] = None,
        recover: bool = False,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        config.validate()
        if chaos is not None:
            chaos.validate()
        self.config = config
        self.chaos = chaos or LiveChaosSchedule()
        self.recover = recover
        self.clock = WallClock()
        self.telemetry = telemetry
        if telemetry.enabled:
            telemetry.bind_clock(self.clock)
        self.socket_dir = config.socket_dir or tempfile.mkdtemp(
            prefix="repro-live-"
        )
        self.wal_path = config.wal_path or os.path.join(
            self.socket_dir, "arbitration.wal"
        )
        self.worker_ids = list(range(1, config.num_nodes + 1))
        self.peers = self._address_map()
        # The paper's lock machinery, verbatim, on wall time.
        self.locks = LockManager(
            clock=self.clock, lease_duration=config.lease_duration
        )
        self.records: Dict[int, LiveObject] = {
            oid: LiveObject(oid) for oid in range(config.num_objects)
        }
        #: object id -> node currently hosting it.  In central mode
        #: this is the authority; in home mode it is the WAL-mirrored
        #: view the supervisor re-seeds and reassigns from.
        self.placement: Dict[int, int] = {
            oid: self.worker_ids[oid % len(self.worker_ids)]
            for oid in range(config.num_objects)
        }
        self.blocks: Dict[int, MoveBlock] = {}
        self.transfers: Dict[int, Transfer] = {}
        self._transfer_ids = itertools.count(1)
        #: slice -> home node (home arbitration; one slice per worker).
        self.num_slices = config.num_nodes
        self.home: Dict[int, int] = {}
        self.incarnations: Dict[int, int] = {w: 0 for w in self.worker_ids}
        self.supervisor_starts = 0
        #: Highest transfer id minted before the crash being recovered
        #: from — bounds the in-doubt settlement worklist.
        self._recovered_max_transfer = 0
        #: transfer id -> state as the WAL recorded it at replay time.
        self._wal_states: Dict[int, str] = {}
        #: Home-granted transfer ids whose commit is mirrored in the WAL.
        self._mirrored: Set[int] = set()
        #: Verdicts of home-granted transfers, as the homes report them
        #: at drain (and as this supervisor decided for a dead home's).
        self._home_verdicts: Dict[int, str] = {}
        if recover:
            self._replay_wal()
        self.transport = AsyncioTransport(
            SUPERVISOR,
            self.peers[SUPERVISOR],
            self.peers,
            clock=self.clock,
            jitter_seed=config.rng_seed,
            incarnation=self.supervisor_starts,
        )
        #: Every EVICT / RESTORE this supervisor owes a source, retried
        #: until acknowledged or the source's incarnation is bumped.
        self.outbox = SettlementOutbox(
            self.transport, self.incarnations, config.request_timeout
        )
        self.wal = ArbitrationWal(
            self.wal_path, fsync=config.wal_fsync, telemetry=telemetry
        )
        self.history = HeartbeatHistory(
            interval=config.heartbeat_interval,
            timeout=config.heartbeat_timeout,
            phi_threshold=config.phi_threshold,
        )
        self.health = _CrashedSet()
        self.processes: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: node id -> OS pid, learned from heartbeats — how a recovered
        #: supervisor manages workers it never spawned.
        self.worker_pids: Dict[int, int] = {}
        self._mp = multiprocessing.get_context("spawn")
        self._restarting: Set[int] = set()
        #: node id -> event the next HEARTBEAT from that node sets.
        self._heartbeats: Dict[int, asyncio.Event] = {}
        #: Placements this incarnation committed: central PLACE commits
        #: and home-mode PLACE_NOTICE mirrors.
        self.commits = 0
        #: Set by every commit from the ``target_migrations``-th on;
        #: the run loop's stop check wakes on it.
        self._commit_wake = asyncio.Event()
        # Run ledger.
        self.restarts = 0
        self.crashes_seen = 0
        self.crashes_delivered = 0
        self.leases_broken_total = 0
        self.conflicts = 0
        self.grants = 0
        self.home_reassignments = 0
        self.in_doubt_committed = 0
        self.in_doubt_rolled_back = 0
        self.in_doubt_reverted = 0
        self.faults_active: Dict[str, Any] = {}
        self._stopping = False
        self._in_drain = False
        # -- cross-process telemetry (inert unless dir + enabled) --
        self._clock_sync = (
            ClockSync()
            if telemetry.enabled and config.telemetry_dir
            else None
        )
        self._writer: Optional[ProcessTelemetryWriter] = None
        self.flight: Optional[FlightRecorder] = None
        self._sup_incarnation = 0
        #: Post-mortem flight dumps attached to the report (summaries).
        self.flight_reports: List[Dict[str, Any]] = []
        #: (node, incarnation) -> full flight entries, for cross-checks.
        self._flight_entries: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
        #: In-doubt settlement verdicts cross-checked against flight
        #: evidence (filled by _recover when both exist).
        self._in_doubt_evidence: Dict[str, Any] = {}
        self._last_settlement_plan: List[Tuple[str, Transfer]] = []
        #: While True (a recovering supervisor, until the in-doubt
        #: settlement lands) every new MOVE_REQUEST is denied: granting
        #: would let live migrations race the settlement's inventory
        #: snapshot.  Movers degrade to remote invocation meanwhile.
        self._grants_frozen = recover

    # -- WAL ------------------------------------------------------------------

    def _replay_wal(self) -> None:
        """Rebuild arbitration state from the predecessor's journal."""
        span = (
            self.telemetry.start_span("wal.replay", node=SUPERVISOR)
            if self.telemetry.enabled
            else None
        )
        state, records = wal_module.replay(self.wal_path, self.telemetry)
        if state.num_objects:
            self.records = {
                oid: LiveObject(oid) for oid in range(state.num_objects)
            }
        if state.placement:
            self.placement = dict(state.placement)
        for transfer_id, entry in state.transfers.items():
            self.transfers[transfer_id] = Transfer(
                transfer_id=entry.transfer_id,
                object_id=entry.object_id,
                src=entry.src,
                dst=entry.dst,
                block_id=entry.block_id,
                state=entry.state,
            )
            # Settlement trusts only the state the log proves: a
            # transfer that advances *after* replay (a live PLACE
            # served by this incarnation) is no longer in doubt.
            self._wal_states[transfer_id] = entry.state
        # In central mode the supervisor mints small ids; in home mode
        # the homes mint banded ids and this counter is never consulted
        # (the supervisor answers MOVE_REQUEST with not_home).
        self._transfer_ids = itertools.count(state.max_transfer_id + 1)
        self._recovered_max_transfer = state.max_transfer_id
        # Revive open move-blocks with their *recorded* ids (the fence
        # is the id) and re-mark broken ones; the id counter advances
        # past everything imported.
        self.locks.import_lease_state(
            {
                "blocks": [
                    {
                        "block_id": block_id,
                        "client_node": desc["client_node"],
                        "object_ids": [desc["object_id"]],
                    }
                    for block_id, desc in state.blocks.items()
                ],
                "broken": state.broken_blocks,
            },
            self.records,
        )
        for block in self.locks.held_blocks():
            self.blocks[block.block_id] = block
        for node_id, incarnation in state.incarnations.items():
            if node_id in self.incarnations:
                self.incarnations[node_id] = incarnation
        if state.home:
            self.home = dict(state.home)
        if state.num_slices:
            self.num_slices = state.num_slices
        self.supervisor_starts = state.supervisor_starts
        self._mirrored = set(state.mirrored)
        if span is not None:
            self.telemetry.end_span(
                span,
                records=len(records),
                in_doubt=len(state.in_doubt()),
                mode=state.arbitration,
            )

    def _log(self, kind: str, data: Optional[Dict[str, Any]] = None) -> int:
        """Durably journal one transition (auto-opens in unit tests)."""
        if self.wal._fh is None:
            self.wal.open()
        return self.wal.append(kind, data)

    # -- wiring ---------------------------------------------------------------

    def _address_map(self) -> Dict[int, Tuple]:
        if unix_supported():
            return {
                node: ("unix", os.path.join(self.socket_dir, f"n{node}.sock"))
                for node in [SUPERVISOR] + self.worker_ids
            }
        # Derive the port base from the (stable, per-run-unique) socket
        # dir, NOT the pid: a recovered supervisor is a different
        # process but must compute the same addresses its predecessor
        # handed the workers.
        base = 43500 + (zlib.crc32(self.socket_dir.encode()) % 1000)
        return {
            node: ("tcp", "127.0.0.1", base + node + 1)
            for node in [SUPERVISOR] + self.worker_ids
        }

    def _seed_states(self, node_id: int) -> List[Dict[str, Any]]:
        return [
            LiveObject(oid).state()
            for oid, where in sorted(self.placement.items())
            if where == node_id
        ]

    def _spawn(self, node_id: int) -> None:
        address = self.peers[node_id]
        if address[0] == "unix" and os.path.exists(address[1]):
            os.unlink(address[1])  # stale socket from a crashed worker
        process = self._mp.Process(
            target=worker_main,
            args=(
                node_id,
                address,
                self.peers,
                self._seed_states(node_id),
                self.config.heartbeat_interval,
                self.config.request_timeout,
                self.config.rng_seed * 1000 + node_id,
                self.incarnations[node_id],
                self.config.arbitration,
                self.num_slices if self.config.arbitration == "home" else 0,
                self.config.lease_duration,
                self.config.orphan_grace,
                self.config.telemetry_dir,
            ),
            # Non-daemon: workers must survive a supervisor SIGKILL so
            # the recovered incarnation has a fleet to re-adopt.
            daemon=False,
        )
        process.start()
        self.processes[node_id] = process
        if process.pid is not None:
            self.worker_pids[node_id] = process.pid
        self.history.ensure(node_id, self.clock.now())

    def _kill_worker(self, node_id: int, sig: int = signal.SIGKILL) -> bool:
        """Signal a worker (SIGKILL default), via handle or learned pid.

        ``sig=SIGTERM`` gives the worker's flight recorder a chance to
        dump before dying — the chaos schedule uses it to exercise the
        graceful post-mortem path.  Returns whether a kill was actually
        delivered — False when the supervisor knows neither a handle
        nor a pid for the node (it recovered before the worker's first
        heartbeat arrived).
        """
        process = self.processes.get(node_id)
        if process is not None:
            if sig == signal.SIGKILL:
                process.kill()
            elif process.pid is not None:
                try:
                    os.kill(process.pid, sig)
                except OSError:
                    return False
            else:
                process.terminate()
            return True
        pid = self.worker_pids.get(node_id)
        if pid:
            try:
                os.kill(pid, sig)
                return True
            except OSError:
                return False  # already gone
        return False

    def kill_workers(self) -> None:
        """Last-resort cleanup: SIGKILL the whole fleet (sync, safe)."""
        for node_id in self.worker_ids:
            self._kill_worker(node_id)

    # -- inbound control plane ------------------------------------------------

    async def handle(self, envelope: Envelope) -> None:
        """Dispatch one inbound worker message to its protocol serve."""
        kind = envelope.kind
        if kind == HEARTBEAT:
            local_recv = self.clock.now()
            self.history.record(envelope.src, local_recv)
            pid = envelope.payload.get("pid")
            if pid:
                self.worker_pids[envelope.src] = pid
            beat = self._heartbeats.pop(envelope.src, None)
            if beat is not None:
                beat.set()
            if self._clock_sync is not None:
                sample = envelope.payload.get("clock")
                if sample is not None:
                    self._clock_sync.observe(
                        envelope.src,
                        envelope.payload.get("incarnation", 0),
                        sample,
                        local_recv,
                    )
        elif kind == MOVE_REQUEST:
            await self._serve_move_request(envelope)
        elif kind == PLACE:
            await self._serve_place(envelope)
        elif kind == ROLLBACK:
            await self._serve_rollback(envelope)
        elif kind == END_REQUEST:
            block = self.blocks.pop(envelope.payload["block_id"], None)
            released = 0
            if block is not None:
                self._log(wal_module.END, {"block_id": block.block_id})
                released = self.locks.release_block(block)
            await self.transport.reply(envelope, {"released": released})
        elif kind == PLACE_NOTICE:
            # A peer home committed a transfer: mirror the ownership
            # move into the WAL so slice reassignment survives us.
            # Once per transfer id: a home retries until acknowledged.
            notice = envelope.payload
            if notice["transfer_id"] not in self._mirrored:
                self._mirrored.add(notice["transfer_id"])
                self._log(wal_module.PLACE_MIRROR, dict(notice))
                self.placement[notice["object_id"]] = notice["node"]
                self._count_commit()
            await self.transport.reply(envelope, {"ok": True})
        elif kind == LOCATE:
            oid = envelope.payload["object_id"]
            await self.transport.reply(
                envelope, {"location": self.placement.get(oid)}
            )

    async def _serve_move_request(self, envelope: Envelope) -> None:
        """§3.2 at the arbiter: grant the lock or answer "locked".

        The arbitration decision itself is :meth:`_move_decision`; this
        wrapper joins the mover's migration trace (the MOVE_REQUEST
        envelope carries the mover's ``live.move`` span context) so one
        migration renders as a single cross-process span tree.
        """
        span = (
            self.telemetry.start_span(
                "live.grant",
                node=SUPERVISOR,
                remote=envelope.trace,
                detached=True,
                object=envelope.payload["object_id"],
            )
            if self.telemetry.enabled
            else None
        )
        reply = self._move_decision(envelope)
        if span is not None:
            self.telemetry.end_span(span, granted=reply["granted"])
        await self.transport.reply(envelope, reply)

    def _move_decision(self, envelope: Envelope) -> Dict[str, Any]:
        mover = envelope.src
        object_id = envelope.payload["object_id"]
        if self.config.arbitration == "home":
            # Demoted supervisor: movers should ask the home node; a
            # request landing here means their map is still warming up.
            self.conflicts += 1
            return {
                "granted": False,
                "location": self.placement.get(object_id),
                "not_home": True,
            }
        record = self.records[object_id]
        if self._grants_frozen or self.locks.is_locked(record):
            self.conflicts += 1
            return {"granted": False, "location": self.placement[object_id]}
        block = MoveBlock(client_node=mover, target=record)
        try:
            self.locks.lock(record, block)
        except Exception:
            # e.g. a broken (crash-suspected) mover retrying: deny.
            self.conflicts += 1
            return {"granted": False, "location": self.placement[object_id]}
        self.grants += 1
        self.blocks[block.block_id] = block
        source = self.placement[object_id]
        transfer_id = None
        if source != mover:
            transfer_id = next(self._transfer_ids)
            self.transfers[transfer_id] = Transfer(
                transfer_id,
                object_id,
                source,
                mover,
                block.block_id,
                trace=envelope.trace,
            )
        # Log, *then* send: if we die between the two, recovery revives
        # the grant and the mover's timeout aborts it cleanly.
        self._log(
            wal_module.GRANT,
            {
                "block_id": block.block_id,
                "object_id": object_id,
                "mover": mover,
                "source": source,
                "transfer_id": transfer_id,
            },
        )
        return {
            "granted": True,
            "source": source,
            # The source refuses the pull if it has been respawned since.
            "incarnation": self.incarnations[source],
            "block_id": block.block_id,
            "transfer_id": transfer_id,
        }

    async def _serve_place(self, envelope: Envelope) -> None:
        """The linearization point: commit or fence out a transfer.

        Idempotent by transfer id: the destination asking again for a
        transfer already placed for it (its first ok reply was lost) is
        told ``ok`` again, with no second WAL record or notice.
        """
        transfer = self.transfers.get(envelope.payload["transfer_id"])
        already_placed = (
            transfer is not None
            and transfer.state == "placed"
            and transfer.dst == envelope.src
            and self.placement.get(transfer.object_id) == transfer.dst
        )
        ok = already_placed or (
            transfer is not None
            and transfer.state == "pending"
            and transfer.dst == envelope.src
            and transfer.block_id in self.blocks
            and not self.locks.was_broken(self.blocks[transfer.block_id])
        )
        span = (
            self.telemetry.start_span(
                "live.place",
                node=SUPERVISOR,
                remote=envelope.trace,
                detached=True,
                transfer=envelope.payload["transfer_id"],
            )
            if self.telemetry.enabled
            else None
        )
        if ok and not already_placed:
            # The WAL append *is* the commit: recovery treats a logged
            # PLACE as "the destination may hold the object" and
            # settles it against the destination's inventory.
            self._log(
                wal_module.PLACE, {"transfer_id": transfer.transfer_id}
            )
            transfer.state = "placed"
            self.placement[transfer.object_id] = transfer.dst
            self.outbox.tell_source(transfer, EVICT, transfer.trace)
            self._count_commit()
        if span is not None:
            self.telemetry.end_span(span, ok=ok)
        await self.transport.reply(envelope, {"ok": ok})

    def _count_commit(self) -> None:
        """Count one committed placement; wake the stop check at target."""
        self.commits += 1
        if self.commits >= self.config.target_migrations:
            self._commit_wake.set()

    async def _serve_rollback(self, envelope: Envelope) -> None:
        """Abort a transfer: the source's held-back copy is restored."""
        transfer = self.transfers.get(envelope.payload["transfer_id"])
        ok = transfer is not None and transfer.state == "pending"
        span = (
            self.telemetry.start_span(
                "live.rollback",
                node=SUPERVISOR,
                remote=envelope.trace,
                detached=True,
                transfer=envelope.payload["transfer_id"],
            )
            if self.telemetry.enabled
            else None
        )
        if ok:
            self._roll_back(transfer)
        if span is not None:
            self.telemetry.end_span(span, ok=ok)
        await self.transport.reply(envelope, {"ok": ok})

    def _roll_back(self, transfer: Transfer) -> None:
        """Journal a rollback; the source restores its held-back copy."""
        self._log(wal_module.ROLLBACK, {"transfer_id": transfer.transfer_id})
        transfer.state = "rolled_back"
        self.outbox.tell_source(transfer, RESTORE, transfer.trace)

    # -- failure detection & restart ------------------------------------------

    def _worker_process_dead(self, node_id: int) -> bool:
        """OS-level liveness: handle when we spawned it, pid otherwise.

        A recovered supervisor owns no handles for the orphans it
        adopted, but heartbeats taught it their pids — without the pid
        probe, an adopted orphan's death would only surface through
        slow heartbeat suspicion, long after the run moved on.
        """
        process = self.processes.get(node_id)
        if process is not None:
            return not process.is_alive()
        pid = self.worker_pids.get(node_id)
        if not pid:
            return False
        try:
            os.kill(pid, 0)
            return False
        except OSError:
            return True

    async def _monitor_loop(self) -> None:
        tick = self.config.heartbeat_interval / 2
        last_flush = self.clock.now()
        while not self._stopping:
            now = self.clock.now()
            for node_id in self.worker_ids:
                if node_id in self._restarting:
                    continue
                if self._worker_process_dead(node_id) or self.history.is_down(
                    node_id, now
                ):
                    self._restarting.add(node_id)
                    asyncio.ensure_future(self._restart(node_id))
            if self._writer is not None and now - last_flush >= 0.5:
                # Incremental flush + flight snapshot: a SIGKILLed
                # supervisor still leaves spans and a recent ring on
                # disk for the successor's hub/recovery to pick up.
                last_flush = now
                try:
                    self._writer.flush()
                    if self.flight is not None:
                        self.flight.dump(reason="snapshot")
                except OSError:
                    pass
            await asyncio.sleep(tick)

    async def _restart(self, node_id: int) -> None:
        """Crash recovery: break leases, settle transfers, respawn.

        Never leaves the node stuck in the restarting set: if the
        respawn itself fails (no heartbeat in time), the monitor sees
        the dead process and tries again.
        """
        try:
            if self.config.arbitration == "home":
                await self._restart_home(node_id)
            else:
                await self._restart_inner(node_id)
        except (TimeoutError, ConnectionLostError):
            pass
        finally:
            self._restarting.discard(node_id)

    async def _restart_inner(self, node_id: int) -> None:
        self.crashes_seen += 1
        self.health.down.add(node_id)
        self._attach_flight(node_id, self.incarnations[node_id], "restart")
        # PR 4 -> PR 2 seam: reclaim every lock the dead mover held.
        # Its blocks are barred forever; a zombie's late PLACE is
        # rejected by the fence in _serve_place.
        before_broken = set(self.locks._broken)
        self.leases_broken_total += self.locks.break_crashed(self.health)
        newly_broken = sorted(self.locks._broken - before_broken)
        if newly_broken:
            self._log(
                wal_module.BREAK,
                {"node": node_id, "block_ids": newly_broken},
            )
        for transfer in self.transfers.values():
            if transfer.state != "pending":
                continue
            if transfer.dst == node_id:
                # Destination died mid-pull: restore the source's copy.
                self._roll_back(transfer)
            elif transfer.src == node_id:
                # Source died holding the held-back copy: the state is
                # lost; fence the destination out and re-seed on
                # restart.  Placement never moved, so no duplicate.
                self._log(
                    wal_module.FAILED,
                    {"transfer_id": transfer.transfer_id},
                )
                transfer.state = "failed"
        await self._respawn(node_id)

    async def _respawn(self, node_id: int) -> None:
        """Kill remnants, bump the incarnation, spawn, restart workload."""
        stale = self.transport._writers.pop(node_id, None)
        if stale is not None:
            stale.close()
        self._kill_worker(node_id)
        process = self.processes.get(node_id)
        if process is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, process.join, 5.0
            )
        self.history.forget(node_id)
        self.health.down.discard(node_id)
        self.incarnations[node_id] += 1
        self._log(
            wal_module.INCARNATION,
            {"node": node_id, "incarnation": self.incarnations[node_id]},
        )
        # The dead incarnation's copies died with it: drop its verdicts.
        self.outbox.fence()
        self._spawn(node_id)
        await self._wait_for_heartbeat(node_id)
        if self.faults_active:
            await self._send_faults(node_id, self.faults_active)
        if self.config.arbitration == "home":
            # Every home learns the new incarnation: from now on its
            # grants name it, and pulls granted before are refused.
            await self._broadcast_home_map(
                [
                    w
                    for w in self.worker_ids
                    if w == node_id or w not in self._restarting
                ]
            )
        if not self._in_drain:
            # A node respawned mid-drain must come up parked: starting
            # its workload would race the other nodes' quiesced
            # inventories.  It drains trivially (no START, no mover).
            await self._start_workload(node_id)
        self.restarts += 1

    async def _restart_home(self, node_id: int) -> None:
        """Home-mode worker death: break at peers, reassign, respawn."""
        self.crashes_seen += 1
        self.health.down.add(node_id)
        self._attach_flight(node_id, self.incarnations[node_id], "restart")
        live = [
            w
            for w in self.worker_ids
            if w != node_id and w not in self.health.down
        ]
        # 1. Every surviving home breaks the dead mover's leases and
        #    settles its own transfers that involved the dead node.
        broken = 0
        for peer in live:
            try:
                reply = await self.transport.request(
                    peer,
                    BREAK_HOMED,
                    {"node": node_id},
                    timeout=self.config.request_timeout,
                )
                broken += reply.payload.get("broken", 0)
            except (TimeoutError, ConnectionLostError):
                pass  # peer mid-crash: its own restart will re-settle
        self.leases_broken_total += broken
        # 2. If the dead node was home for slices, reassign them from
        #    WAL-mirrored ownership reconciled against live inventories.
        dead_slices = sorted(
            s for s, h in self.home.items() if h == node_id
        )
        if dead_slices and live:
            await self._reassign_slices(node_id, dead_slices, live)
        # 3. Sync the placement mirror from the surviving homes so the
        #    respawn re-seeds exactly what the fleet says is the dead
        #    node's (placement-wise) and nothing else.
        await self._sync_placement_mirror(live)
        await self._respawn(node_id)

    async def _reassign_slices(
        self, dead: int, dead_slices: List[int], live: List[int]
    ) -> None:
        """Move a dead home's slices to the least-loaded survivor.

        The dead home's transfer table and outbox died with it;
        transfers it granted (ids in its band) are settled from the
        in-transit tables of the live workers, through this
        supervisor's outbox: an in-transit copy whose object is hosted
        somewhere is evicted, one hosted nowhere is restored.
        """
        inventories = await self._inventories(
            live, self.config.request_timeout
        )
        hosted: Dict[int, int] = {}
        for peer, payload in inventories.items():
            for oid in payload["inventory"]:
                hosted[int(oid)] = peer
        # Settle transfers the dead home granted (its id band).
        for peer, payload in inventories.items():
            for tid, oid in payload["in_transit_objects"].items():
                if tid // TRANSFER_BAND != dead:
                    continue  # homed at a live peer: it settles its own
                committed = oid in hosted
                hosted.setdefault(oid, peer)
                self._home_verdicts[tid] = (
                    "placed" if committed else "rolled_back"
                )
                self.outbox.post(
                    peer,
                    EVICT if committed else RESTORE,
                    {"transfer_id": tid, "object_id": oid},
                )
        # Reconciled ownership for the orphaned slices: found copies
        # win; unseen objects stay placed at the dead node and are
        # re-seeded when it respawns.  The mirror is trusted only for a
        # node whose inventory is missing: it lags the dead home's last
        # commits, so a node that answered without the object does not
        # have it.
        slice_placement: Dict[int, int] = {}
        for oid in range(self.config.num_objects):
            if oid % self.num_slices not in dead_slices:
                continue
            where = hosted.get(oid, self.placement.get(oid, dead))
            if oid not in hosted and where in inventories:
                where = dead
            slice_placement[oid] = where if where in live else dead
        changed = {
            oid: where
            for oid, where in slice_placement.items()
            if self.placement.get(oid) != where
        }
        new_home = min(
            live,
            key=lambda w: sum(1 for h in self.home.values() if h == w),
        )
        # Log, then assign: a supervisor crash mid-reassignment replays
        # into the same (idempotent) assignment.
        self._log(
            wal_module.HOME_ASSIGN,
            {"slices": dead_slices, "node": new_home},
        )
        for oid, where in sorted(changed.items()):
            self._log(
                wal_module.PLACE_MIRROR, {"object_id": oid, "node": where}
            )
        self.placement.update(slice_placement)
        for slice_id in dead_slices:
            self.home[slice_id] = new_home
        self.home_reassignments += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("home.reassignments").inc()
        try:
            await self.transport.request(
                new_home,
                HOME_ASSIGN,
                {"slices": dead_slices, "placement": slice_placement},
                timeout=self.config.request_timeout,
            )
        except (TimeoutError, ConnectionLostError):
            pass  # new home mid-crash: its restart path reassigns again
        await self._broadcast_home_map(live)

    async def _sync_placement_mirror(self, live: List[int]) -> None:
        """Refresh the mirror from the surviving homes' authority."""
        for peer in live:
            try:
                reply = await self.transport.request(
                    peer, HOME_STATE, timeout=self.config.request_timeout
                )
            except (TimeoutError, ConnectionLostError):
                continue
            for oid, where in reply.payload["placement"].items():
                self.placement[int(oid)] = where

    def _home_map_payload(self) -> Dict[str, Any]:
        return {
            "map": dict(self.home),
            "num_slices": self.num_slices,
            # Homes stamp the source's incarnation onto every grant.
            "incarnations": dict(self.incarnations),
        }

    async def _send_home_map(self, node_id: int) -> None:
        try:
            await self.transport.request(
                node_id,
                HOME_MAP,
                self._home_map_payload(),
                timeout=self.config.request_timeout,
            )
        except (TimeoutError, ConnectionLostError):
            pass

    async def _broadcast_home_map(
        self, targets: Optional[List[int]] = None
    ) -> None:
        await asyncio.gather(
            *(
                self._send_home_map(w)
                for w in (targets or self.worker_ids)
            )
        )

    async def _assign_homes(self) -> None:
        """Initial partition: slice ``i`` is homed at worker ``i+1``."""
        for slice_id in range(self.num_slices):
            node = self.worker_ids[slice_id % len(self.worker_ids)]
            self.home[slice_id] = node
        for node in self.worker_ids:
            slices = sorted(
                s for s, h in self.home.items() if h == node
            )
            placement = {
                oid: where
                for oid, where in self.placement.items()
                if oid % self.num_slices in set(slices)
            }
            self._log(
                wal_module.HOME_ASSIGN, {"slices": slices, "node": node}
            )
            await self.transport.request(
                node,
                HOME_ASSIGN,
                {"slices": slices, "placement": placement},
                timeout=self.config.request_timeout,
            )
        await self._broadcast_home_map()

    async def _wait_for_heartbeat(
        self, node_id: int, timeout: float = 10.0
    ) -> None:
        """Return on the first HEARTBEAT ``handle`` records after the call."""
        beat = self._heartbeats.setdefault(node_id, asyncio.Event())
        try:
            await asyncio.wait_for(beat.wait(), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"worker {node_id} sent no heartbeat within {timeout}s "
                f"of spawn"
            ) from None

    # -- chaos ----------------------------------------------------------------

    async def _chaos_loop(self, started_at: float) -> None:
        for action in self.chaos.ordered():
            delay = (started_at + action.at) - self.clock.now()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._stopping:
                return
            if isinstance(action, KillSupervisor):
                # The arbiter dies with no goodbye: everything past
                # this line exists only because the WAL already has it.
                os.kill(os.getpid(), signal.SIGKILL)
            elif isinstance(action, LiveCrash):
                victim = action.node
                if victim is None or victim in self._restarting:
                    up = [
                        w
                        for w in self.worker_ids
                        if w not in self._restarting
                    ]
                    victim = up[0] if up else None
                sig = getattr(action, "sig", None) or signal.SIGKILL
                if victim is not None and self._kill_worker(victim, sig=sig):
                    self.crashes_delivered += 1
            elif isinstance(action, LivePartition):
                await self._broadcast_faults(
                    {"partitions": [list(g) for g in action.groups]}
                )
                await asyncio.sleep(action.duration)
                await self._broadcast_faults({"partitions": []})
            elif isinstance(action, LiveFaultWindow):
                await self._broadcast_faults(
                    {
                        "drop_rate": action.drop_rate,
                        "duplicate_rate": action.duplicate_rate,
                        "delay_range": action.delay_range,
                    }
                )
                await asyncio.sleep(action.duration)
                await self._broadcast_faults(
                    {
                        "drop_rate": 0.0,
                        "duplicate_rate": 0.0,
                        "delay_range": (0.0, 0.0),
                    }
                )

    async def _send_faults(self, node_id: int, config: Dict) -> None:
        try:
            await self.transport.request(
                node_id,
                SET_FAULTS,
                {"config": config},
                timeout=self.config.request_timeout,
            )
        except (TimeoutError, ConnectionLostError):
            pass  # a worker mid-crash misses the memo; restart re-sends

    async def _broadcast_faults(self, config: Dict) -> None:
        self.faults_active = {**self.faults_active, **config}
        await asyncio.gather(
            *(self._send_faults(w, config) for w in self.worker_ids)
        )

    # -- run ------------------------------------------------------------------

    async def _start_workload(self, node_id: int) -> None:
        try:
            await self.transport.request(
                node_id,
                START,
                {
                    "num_objects": self.config.num_objects,
                    "think_time": self.config.think_time,
                    "invocations_per_block": self.config.invocations_per_block,
                },
                timeout=self.config.request_timeout,
            )
        except (TimeoutError, ConnectionLostError):
            pass  # monitor will flag the silent worker

    async def _poll_migrations(self) -> int:
        total = 0
        for node_id in self.worker_ids:
            if node_id in self._restarting:
                continue
            try:
                reply = await self.transport.request(
                    node_id, STATS, timeout=self.config.request_timeout
                )
                total += reply.payload["migrations"]
            except (TimeoutError, ConnectionLostError):
                pass
        return total

    # -- cross-process telemetry ----------------------------------------------

    def _setup_process_telemetry(self, incarnation: int) -> None:
        """Stand up this process's span writer and flight recorder.

        Called at the top of :meth:`run` *before* the transport starts,
        so the flight recorder observes every envelope this incarnation
        ever sees.  ``incarnation`` is the 0-based supervisor start
        count (pre-increment): 0 for a fresh supervisor, the
        predecessor count for a recovered one — the same number the
        demo runner used to band this process's span ids.
        """
        directory = self.config.telemetry_dir
        if directory is None or not self.telemetry.enabled:
            return
        self._sup_incarnation = incarnation
        self._writer = ProcessTelemetryWriter(
            self.telemetry,
            directory,
            SUPERVISOR,
            incarnation=incarnation,
            role="supervisor",
            mono_origin=self.clock.origin,
        )
        self.flight = FlightRecorder(
            SUPERVISOR,
            clock=self.clock,
            incarnation=incarnation,
            path=FlightRecorder.path_for(directory, SUPERVISOR, incarnation),
        )
        self.transport.observer = self.flight
        self.flight.record("state.up", recover=self.recover)

    def _attach_flight(self, node: int, incarnation: int, context: str) -> None:
        """Attach a dead process's flight-recorder dump to the report.

        Loads the post-mortem JSONL (written by the victim's SIGTERM
        handler, crash hook, or last periodic snapshot before a
        SIGKILL), keeps the full entry list for settlement
        cross-checks, and records a summary + ``flight.dump`` span so
        the merged trace marks where a post-mortem was consumed.
        """
        directory = self.config.telemetry_dir
        if directory is None or not self.telemetry.enabled:
            return
        key = (node, incarnation)
        if key in self._flight_entries:
            return
        path = FlightRecorder.path_for(directory, node, incarnation)
        try:
            header, entries = load_flight_dump(path)
        except (OSError, ValueError):
            return  # no dump on disk (e.g. killed before first snapshot)
        self._flight_entries[key] = entries
        self.flight_reports.append(
            {
                "node": node,
                "incarnation": incarnation,
                "context": context,
                "reason": header.get("reason"),
                "pid": header.get("pid"),
                "entries": len(entries),
                "path": path,
            }
        )
        span = self.telemetry.start_span(
            "flight.dump",
            node=SUPERVISOR,
            detached=True,
            reason=str(header.get("reason")),
            entries=len(entries),
        )
        self.telemetry.end_span(span, source_node=node, context=context)

    def _cross_check_settlement(self) -> None:
        """Corroborate in-doubt verdicts against flight evidence.

        For every settled in-doubt transfer, scan the attached dumps
        for envelopes/transitions naming that transfer id — what the
        dead process last saw either corroborates the WAL-replay
        verdict or flags it for the report reader.
        """
        if not self._flight_entries or not self._last_settlement_plan:
            return
        for verdict, transfer in self._last_settlement_plan:
            witnessed = []
            for (node, inc), entries in sorted(self._flight_entries.items()):
                for entry in entries:
                    if entry.get("transfer_id") == transfer.transfer_id:
                        witnessed.append(
                            {
                                "node": node,
                                "incarnation": inc,
                                "event": entry.get("event"),
                            }
                        )
            self._in_doubt_evidence[str(transfer.transfer_id)] = {
                "verdict": verdict,
                "object_id": transfer.object_id,
                "witnessed": witnessed,
                "corroborated": bool(witnessed),
            }

    def _finalize_telemetry(self) -> None:
        """Flush artifacts + write the run manifest (hub input)."""
        if self._writer is None:
            return
        directory = self.config.telemetry_dir
        try:
            if self.flight is not None:
                self.flight.dump(reason="exit")
            manifest = {
                "supervisor_origin": self.clock.origin,
                "supervisor_incarnation": self._sup_incarnation,
                "clock_offsets": (
                    self._clock_sync.export() if self._clock_sync else []
                ),
                "worker_pids": {
                    str(node): pid
                    for node, pid in sorted(self.worker_pids.items())
                },
            }
            path = os.path.join(directory, "manifest.json")
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=2)
            os.replace(tmp, path)
            self._writer.close()
        except OSError:
            pass  # telemetry must never take the control plane down

    # -- recovery -------------------------------------------------------------

    async def _recover(self) -> None:
        """Re-adopt the fleet after a supervisor crash.

        The workers are orphans of a dead process: still running,
        still heartbeating into the (until now) closed control socket.
        Wait for them to reconnect, settle the in-doubt transfer tail
        the WAL left us, and restart whoever never came back.
        """
        span = (
            self.telemetry.start_span("live.recover", node=SUPERVISOR)
            if self.telemetry.enabled
            else None
        )
        now = self.clock.now()
        for node_id in self.worker_ids:
            self.history.ensure(node_id, now)
        # Chaos state died with the predecessor: heal the data plane
        # so the recovered run is observable (dead workers ignored).
        await self._broadcast_faults(
            {
                "drop_rate": 0.0,
                "duplicate_rate": 0.0,
                "delay_range": (0.0, 0.0),
                "partitions": [],
            }
        )
        waits = await asyncio.gather(
            *(
                self._wait_for_heartbeat(
                    w, timeout=self.config.recovery_wait
                )
                for w in self.worker_ids
            ),
            return_exceptions=True,
        )
        dead = [
            w
            for w, outcome in zip(self.worker_ids, waits)
            if isinstance(outcome, BaseException)
        ]
        live = [w for w in self.worker_ids if w not in dead]
        # Give in-flight PLACE/ROLLBACK retries a beat to land — a
        # migration may legitimately commit *across* our crash — then
        # settle what is still in doubt.
        await asyncio.sleep(
            min(1.0, self.config.request_timeout)
        )
        inventories = await self._inventories(
            live, self.config.request_timeout
        )
        dead += [w for w in live if w not in inventories]
        # Post-mortems first: the predecessor supervisor's flight dump
        # and any dead worker's, so the in-doubt verdicts below can be
        # cross-checked against what those processes last witnessed.
        if self._sup_incarnation > 0:
            self._attach_flight(
                SUPERVISOR, self._sup_incarnation - 1, "supervisor-recovery"
            )
        for node_id in dead:
            self._attach_flight(
                node_id, self.incarnations[node_id], "recovery"
            )
        await self._settle_in_doubt(inventories)
        self._cross_check_settlement()
        self._grants_frozen = False
        if self.config.arbitration == "home":
            await self._broadcast_home_map(
                [w for w in live if w not in dead]
            )
        # Workloads survive with the workers; (re)start only the idle
        # (a supervisor killed before START leaves movers parked).
        for peer in [w for w in live if w not in dead]:
            try:
                reply = await self.transport.request(
                    peer, STATS, timeout=self.config.request_timeout
                )
                if reply.payload["attempts"] == 0:
                    await self._start_workload(peer)
            except (TimeoutError, ConnectionLostError):
                if peer not in dead:
                    dead.append(peer)
        for node_id in dead:
            if node_id not in self._restarting:
                self._restarting.add(node_id)
                asyncio.ensure_future(self._restart(node_id))
        if span is not None:
            self.telemetry.end_span(
                span,
                mode=self.config.arbitration,
                live=len(live),
                dead=len(dead),
            )

    def _plan_settlement(
        self, inventories: Dict[int, Dict[str, Any]]
    ) -> List[Tuple[str, Transfer]]:
        """Decide commit/revert/rollback for the in-doubt tail (pure).

        Only transfers minted by the *previous* incarnation are in
        doubt — anything newer was granted by us, post-replay, and its
        protocol is running normally.

        * ``pending`` in the WAL and still pending — no PLACE was
          logged, so the ok reply was never sent, so the destination
          can not have installed the object: roll back, restore the
          source's held-back copy.
        * ``pending`` in the WAL but placed *since* — the in-flight
          mover's PLACE landed during the recovery grace window and
          was served live against rebuilt state: not in doubt, skip.
        * ``placed`` in the WAL — the commit is logged but the ok
          reply may have died with us.  Only an object's latest placed
          transfer can be in doubt; earlier ones were superseded.  The
          destination's inventory is the tiebreak: object present —
          hosted, or held in transit for a later transfer out of it —
          means the commit went through, evict the source's copy;
          absent means the destination aborted, revert placement to
          the source and restore its copy.
        """
        latest: Dict[int, int] = {}
        for transfer in self.transfers.values():
            if transfer.state == "placed":
                latest[transfer.object_id] = max(
                    transfer.transfer_id, latest.get(transfer.object_id, 0)
                )
        plan: List[Tuple[str, Transfer]] = []
        for transfer in self.transfers.values():
            if transfer.transfer_id > self._recovered_max_transfer:
                continue
            wal_state = self._wal_states.get(transfer.transfer_id)
            if wal_state == "pending" and transfer.state == "pending":
                plan.append(("rollback", transfer))
            elif wal_state == "placed" and transfer.state == "placed":
                if (
                    latest[transfer.object_id] != transfer.transfer_id
                    or self.placement.get(transfer.object_id) != transfer.dst
                ):
                    continue  # superseded by a later settled move
                inventory = inventories.get(transfer.dst)
                if inventory is None:
                    # Destination dead or unreachable: placement stays
                    # authoritative; its restart re-seeds the object.
                    plan.append(("commit", transfer))
                elif transfer.object_id in {
                    int(oid) for oid in inventory["inventory"]
                } or transfer.object_id in inventory.get(
                    "in_transit_objects", {}
                ).values():
                    plan.append(("commit", transfer))
                else:
                    plan.append(("revert", transfer))
        return plan

    async def _settle_in_doubt(
        self, inventories: Dict[int, Dict[str, Any]]
    ) -> None:
        """Execute the settlement plan, journaling every decision.

        The predecessor's outbox died with it, so the logged verdict of
        every other settled transfer a live worker still holds a copy
        for is posted again.
        """
        plan = self._plan_settlement(inventories)
        self._last_settlement_plan = plan
        for verdict, transfer in plan:
            if verdict == "rollback":
                self._roll_back(transfer)
                self._release_transfer_block(transfer)
                self.in_doubt_rolled_back += 1
            elif verdict == "revert":
                self._log(
                    wal_module.REVERT,
                    {"transfer_id": transfer.transfer_id},
                )
                transfer.state = "rolled_back"
                self.placement[transfer.object_id] = transfer.src
                self.outbox.tell_source(transfer, RESTORE, transfer.trace)
                self._release_transfer_block(transfer)
                self.in_doubt_reverted += 1
            else:  # commit: make sure the source's copy is gone
                self.outbox.tell_source(transfer, EVICT, transfer.trace)
                self.in_doubt_committed += 1
        planned = {transfer.transfer_id for _, transfer in plan}
        for payload in inventories.values():
            for tid in payload.get("in_transit_objects", {}):
                transfer = self.transfers.get(tid)
                if transfer is None or tid in planned:
                    continue
                if transfer.state == "placed":
                    self.outbox.tell_source(transfer, EVICT, transfer.trace)
                elif transfer.state != "pending":
                    self.outbox.tell_source(transfer, RESTORE, transfer.trace)

    def _release_transfer_block(self, transfer: Transfer) -> None:
        block = self.blocks.pop(transfer.block_id, None)
        if block is not None:
            self._log(wal_module.END, {"block_id": block.block_id})
            self.locks.release_block(block)

    # -- drain & audit --------------------------------------------------------

    async def _settle_transfers(self) -> None:
        """Resolve every transfer so no held-back copy survives drain.

        Called only after all workloads are quiesced: rolls back every
        still-pending transfer, then awaits the outbox.  A verdict
        still unacknowledged after ``drain_timeout`` leaves its copy in
        transit, and the audit reports it.
        """
        for transfer in self.transfers.values():
            if transfer.state == "pending":
                self._roll_back(transfer)
        await self.outbox.drained(self.config.drain_timeout)

    async def _settle_homes(self) -> Tuple[int, List[str]]:
        """Drain-time settlement under home arbitration.

        Each home rolls back its pending transfers, awaits its outbox,
        releases leftover blocks and reports its authoritative
        placements and verdicts; the union of the placements becomes
        the audit's expected placement.
        """
        leaked = 0
        violations: List[str] = []
        for node_id in self.worker_ids:
            try:
                reply = await self.transport.request(
                    node_id, SETTLE, timeout=self.config.drain_timeout
                )
            except (TimeoutError, ConnectionLostError):
                violations.append(
                    f"home {node_id} failed to settle before drain"
                )
                continue
            leaked += reply.payload["leaked_blocks"]
            violations.extend(reply.payload.get("lock_violations", ()))
            for oid, where in reply.payload["placement"].items():
                self.placement[int(oid)] = where
            self._home_verdicts.update(reply.payload["verdicts"])
        return leaked, violations

    async def _drain(self) -> Dict[int, Dict[str, Any]]:
        """Phase 1 of shutdown: quiesce every workload *concurrently*.

        Draining sequentially would snapshot one node while the others
        keep pulling objects out of it; quiesce-all-first is what makes
        the later inventory audit race-free.

        A node that is unreachable (it crashed moments before the
        drain and its restart is still in flight) is retried within
        the drain deadline — the monitor keeps running during drain
        precisely so the respawn can complete, and ``_in_drain`` makes
        the respawned node come up parked so it drains trivially.
        """
        self._in_drain = True
        deadline = self.clock.deadline(self.config.drain_timeout)

        async def quiesce(node_id: int):
            while True:
                try:
                    reply = await self.transport.request(
                        node_id, DRAIN, timeout=self.config.drain_timeout
                    )
                    return node_id, reply.payload
                except (TimeoutError, ConnectionLostError):
                    if self.clock.expired(deadline):
                        raise
                    await asyncio.sleep(0.2)

        results = await asyncio.gather(
            *(quiesce(w) for w in self.worker_ids), return_exceptions=True
        )
        drained: Dict[int, Dict[str, Any]] = {}
        stuck: List[int] = []
        for node_id, outcome in zip(self.worker_ids, results):
            if isinstance(outcome, BaseException):
                stuck.append(node_id)
            else:
                drained[outcome[0]] = outcome[1]
        if stuck:
            raise DrainTimeoutError(
                "workers failed to drain",
                timeout=self.config.drain_timeout,
                pending=tuple(stuck),
            )
        return drained

    async def _inventories(
        self, nodes: List[int], timeout: float
    ) -> Dict[int, Dict[str, Any]]:
        """Snapshot the nodes' inventories concurrently.

        A node that times out or is unreachable is left out.
        """

        async def snapshot(node_id: int):
            try:
                reply = await self.transport.request(
                    node_id, INVENTORY, timeout=timeout
                )
                return node_id, reply.payload
            except (TimeoutError, ConnectionLostError):
                return node_id, None

        results = await asyncio.gather(*(snapshot(w) for w in nodes))
        return {node: inv for node, inv in results if inv is not None}

    async def _settle_and_audit(self) -> Tuple[List[str], int]:
        """Settle every transfer, snapshot the fleet, audit the snapshot.

        Runs once the workload is parked.  Returns the violations and
        the number of blocks released because their END never arrived
        (lost to chaos).
        """
        leaked_blocks = 0
        violations: List[str] = []
        if self.config.arbitration == "home":
            leaked_blocks, violations = await self._settle_homes()
        await self._settle_transfers()
        for block in list(self.blocks.values()):
            leaked_blocks += 1 if self.locks.release_block(block) else 0
        self.blocks.clear()
        violations += self._audit(
            await self._inventories(self.worker_ids, self.config.drain_timeout)
        )
        return violations, leaked_blocks

    def _audit(self, inventories: Dict[int, Dict[str, Any]]) -> List[str]:
        """Placement + lock invariants; returns violation descriptions.

        Audits the snapshot exactly as taken: a copy still held in
        transit is a violation naming its transfer, holder and the
        verdict its arbiter holds.
        """
        violations = [
            f"node {node_id} sent no inventory"
            for node_id in self.worker_ids
            if node_id not in inventories
        ]
        seen: Dict[int, int] = {}
        for node_id, payload in inventories.items():
            for oid_key in payload["inventory"]:
                oid = int(oid_key)
                if oid in seen:
                    violations.append(
                        f"obj {oid} duplicated at nodes "
                        f"{seen[oid]} and {node_id}"
                    )
                seen[oid] = node_id
                if self.placement.get(oid) != node_id:
                    violations.append(
                        f"obj {oid} at node {node_id} but placement map "
                        f"says {self.placement.get(oid)}"
                    )
            for tid, oid in payload["in_transit_objects"].items():
                transfer = self.transfers.get(tid)
                verdict = (
                    transfer.state
                    if transfer is not None
                    else self._home_verdicts.get(tid, "unknown")
                )
                violations.append(
                    f"transfer {tid}: node {node_id} (incarnation "
                    f"{payload['incarnation']}) still holds obj {oid} in "
                    f"transit; arbiter verdict {verdict}"
                )
        missing = set(range(self.config.num_objects)) - set(seen)
        for oid in sorted(missing):
            violations.append(
                f"obj {oid} hosted nowhere (placement map says "
                f"{self.placement.get(oid)})"
            )
        try:
            self.locks.check_invariant()
        except AssertionError as exc:
            violations.append(f"lock invariant: {exc}")
        return violations

    async def run(self) -> Dict[str, Any]:
        """Drive one full supervised run; returns the measured report."""
        self.transport.handler = self.handle
        # Telemetry first so the flight recorder is observing before
        # the first envelope arrives.  supervisor_starts is still the
        # pre-increment value here: the 0-based incarnation number.
        self._setup_process_telemetry(self.supervisor_starts)
        own = self.peers[SUPERVISOR]
        if self.recover and own[0] == "unix" and os.path.exists(own[1]):
            os.unlink(own[1])  # the predecessor died holding the bind
        await self.transport.start()
        self.wal.open()
        if not self.recover:
            self._log(
                wal_module.INIT,
                {
                    "num_objects": self.config.num_objects,
                    "workers": self.worker_ids,
                    "arbitration": self.config.arbitration,
                    "num_slices": (
                        self.num_slices
                        if self.config.arbitration == "home"
                        else 0
                    ),
                    "placement": {
                        str(oid): node
                        for oid, node in self.placement.items()
                    },
                },
            )
        self._log(wal_module.SUPER_START, {})
        self.supervisor_starts += 1
        if self.recover:
            await self._recover()
        else:
            for node_id in self.worker_ids:
                self._spawn(node_id)
            await asyncio.gather(
                *(self._wait_for_heartbeat(w) for w in self.worker_ids)
            )
            if self.config.arbitration == "home":
                await self._assign_homes()
        monitor = asyncio.ensure_future(self._monitor_loop())
        started_at = self.clock.now()
        if not self.recover:
            await asyncio.gather(
                *(self._start_workload(w) for w in self.worker_ids)
            )
        chaos = asyncio.ensure_future(self._chaos_loop(started_at))
        deadline = started_at + self.config.max_duration
        try:
            while self.clock.now() < deadline:
                # Wake on the target-th commit (and each one after it,
                # while the workers' own counts lag the commits); the
                # 0.25 s timeout is only the fallback for chaos
                # completion, restarts and the deadline.
                try:
                    await asyncio.wait_for(self._commit_wake.wait(), 0.25)
                except asyncio.TimeoutError:
                    pass
                self._commit_wake.clear()
                if (
                    chaos.done()
                    and not self._restarting
                    and await self._poll_migrations()
                    >= self.config.target_migrations
                ):
                    break
            try:
                await asyncio.wait_for(
                    chaos, max(0.1, deadline - self.clock.now())
                )
            except asyncio.TimeoutError:
                pass  # overrunning chaos is cut off; faults heal below
        finally:
            chaos.cancel()
        # Quiesce: stop chaos, heal the data plane, settle, drain.
        await self._broadcast_faults(
            {
                "drop_rate": 0.0,
                "duplicate_rate": 0.0,
                "delay_range": (0.0, 0.0),
                "partitions": [],
            }
        )
        drained = await self._drain()
        self._stopping = True
        monitor.cancel()
        violations, leaked_blocks = await self._settle_and_audit()
        report = self._report(drained, violations, leaked_blocks)
        await self._shutdown_workers()
        await self.transport.close()
        self.wal.close()
        self._finalize_telemetry()
        return report

    async def _shutdown_workers(self) -> None:
        async def shutdown(node_id: int) -> None:
            try:
                await self.transport.request(
                    node_id, SHUTDOWN, timeout=self.config.request_timeout
                )
            except Exception:
                pass

        await asyncio.gather(*(shutdown(w) for w in self.worker_ids))
        loop = asyncio.get_running_loop()
        processes = list(self.processes.values())
        await asyncio.gather(
            *(loop.run_in_executor(None, p.join, 5.0) for p in processes)
        )
        for process in processes:
            if process.is_alive():
                process.kill()
        # Orphans adopted after a recovery have no handles — wait on
        # their pids briefly, then make sure they are gone.
        orphan_pids = [
            pid
            for node_id, pid in self.worker_pids.items()
            if node_id not in self.processes and pid
        ]
        deadline = self.clock.deadline(5.0)
        while orphan_pids and not self.clock.expired(deadline):
            still = []
            for pid in orphan_pids:
                try:
                    os.kill(pid, 0)
                    still.append(pid)
                except OSError:
                    pass
            orphan_pids = still
            if orphan_pids:
                await asyncio.sleep(0.1)
        for pid in orphan_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def _report(
        self,
        drained: Dict[int, Dict[str, Any]],
        violations: List[str],
        leaked_blocks: int,
    ) -> Dict[str, Any]:
        totals = {
            "attempts": 0,
            "granted": 0,
            "migrations": 0,
            "denied": 0,
            "aborted": 0,
            "invocations": 0,
            "remote_invocations": 0,
            "home_grants": 0,
            "home_denials": 0,
            "stale_pulls_refused": 0,
        }
        moved: Set[int] = set()
        latencies: List[float] = []
        frames_sent = self.transport.stats().get("frames_sent", 0)
        frames_received = self.transport.stats().get("frames_received", 0)
        for payload in drained.values():
            stats = payload["stats"]
            for key in totals:
                totals[key] += stats.get(key, 0)
            moved.update(stats["moved_object_ids"])
            latencies.extend(stats.get("transfer_latencies", ()))
            transport = payload.get("transport", {})
            frames_sent += transport.get("frames_sent", 0)
            frames_received += transport.get("frames_received", 0)
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.counter("live.transport.frames_sent").inc(frames_sent)
            metrics.counter("live.transport.frames_received").inc(
                frames_received
            )
            histogram = metrics.histogram(
                "live.transfer.latency_s", buckets=LATENCY_BUCKETS
            )
            for latency in latencies:
                histogram.observe(latency)
            if self.config.arbitration == "home":
                metrics.counter("home.grants").inc(totals["home_grants"])
                metrics.counter("home.denials").inc(
                    totals["home_denials"]
                )
        attempts = max(1, totals["attempts"])
        report = {
            "workers": len(self.worker_ids),
            "objects": self.config.num_objects,
            "arbitration": self.config.arbitration,
            **totals,
            "distinct_objects_moved": len(moved),
            "conflict_rate": totals["denied"] / attempts,
            "abort_rate": totals["aborted"] / attempts,
            "crashes_injected": self.chaos.crashes,
            "crashes_delivered": self.crashes_delivered,
            "partitions_injected": self.chaos.partitions,
            "supervisor_kills_injected": self.chaos.supervisor_kills,
            "restarts": self.restarts,
            "leases_broken": self.leases_broken_total,
            "leaked_blocks_released": leaked_blocks,
            "home_reassignments": self.home_reassignments,
            "supervisor_incarnation": self.supervisor_starts,
            "in_doubt": {
                "committed": self.in_doubt_committed,
                "rolled_back": self.in_doubt_rolled_back,
                "reverted": self.in_doubt_reverted,
            },
            "wal": {
                "path": self.wal_path,
                "records_appended": self.wal.appended,
            },
            "transfer_latency_samples": len(latencies),
            "transfer_latency_mean_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "invariant_violations": violations,
            "transport": self.transport.stats(),
        }
        if self._in_doubt_evidence:
            report["in_doubt"]["flight_evidence"] = dict(
                self._in_doubt_evidence
            )
        if self.config.telemetry_dir is not None and self.telemetry.enabled:
            report["telemetry"] = {
                "dir": self.config.telemetry_dir,
                "supervisor_incarnation": self._sup_incarnation,
                "worker_pids": dict(sorted(self.worker_pids.items())),
                "clock_offsets": (
                    self._clock_sync.export() if self._clock_sync else []
                ),
                "flight_dumps": list(self.flight_reports),
            }
        if self.telemetry.enabled:
            report["metrics"] = self.telemetry.metrics.snapshot()
        return report


__all__ = [
    "ARBITRATION_MODES",
    "LATENCY_BUCKETS",
    "NodeSupervisor",
    "SupervisorConfig",
    "Transfer",
]
