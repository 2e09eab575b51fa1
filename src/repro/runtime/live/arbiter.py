"""Arbiter: the §3.2 grant / PLACE-fence / rollback decisions, once.

The object space is cut into slices (``object_id % num_slices``), each
homed at one node: under central arbitration every slice is homed at
the supervisor, under home arbitration each at a worker.  The
supervisor and every worker own one :class:`Arbiter`, which decides
move-blocks for the objects homed there against the real
:class:`~repro.core.locking.LockManager` and answers ``not_home`` for
the rest.

The decision methods do no I/O.  Each returns its reply plus the
verdicts it owes (``EVICT`` / ``RESTORE`` to a transfer's source,
``PLACE_NOTICE`` to the supervisor) and journals its transitions
through the injected ``journal`` first, so log-then-send holds.  The
supervisor passes its WAL append; a home passes nothing and mirrors
each commit into the supervisor's WAL with a ``PLACE_NOTICE`` instead.
:meth:`Arbiter.serve` times a decision in its span, posts the verdicts
through the owner's :class:`~repro.runtime.live.outbox.SettlementOutbox`
and replies.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.runtime.live import wal as wal_module
from repro.runtime.live.wal import TRANSFER_BAND, TransferLogEntry, WalState
from repro.runtime.live.wire import (
    END_REQUEST,
    EVICT,
    MOVE_REQUEST,
    PLACE,
    PLACE_NOTICE,
    RESTORE,
    ROLLBACK,
    SUPERVISOR,
    Envelope,
)
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

#: A verdict owed to a node: ``(node, kind, payload, trace)``.
Verdict = Tuple[int, str, Dict[str, Any], Optional[Tuple[int, int]]]
#: What every decision returns: the reply and the verdicts to post.
Decision = Tuple[Dict[str, Any], List[Verdict]]

#: A worker's transfer-id band is cut into this many slices of 10 000
#: ids, one per incarnation (wrapping after 100 respawns of one node).
INCARNATION_SLICES = 100

#: The envelope kinds :meth:`Arbiter.serve` answers.
KINDS = frozenset({MOVE_REQUEST, PLACE, ROLLBACK, END_REQUEST})

#: Envelope kind -> (span name, span tag, payload key, outcome reply key).
_SPANS = {
    MOVE_REQUEST: ("live.grant", "object", "object_id", "granted"),
    PLACE: ("live.place", "transfer", "transfer_id", "ok"),
    ROLLBACK: ("live.rollback", "transfer", "transfer_id", "ok"),
}


class Down:
    """``health`` adapter for ``LockManager.break_crashed``: one dead node."""

    def __init__(self, node_id: int):
        self.node_id = node_id

    def is_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is the dead node."""
        return node_id == self.node_id


def verdict(transfer: TransferLogEntry, kind: str) -> Verdict:
    """A transfer's ``EVICT`` or ``RESTORE``, addressed to its source."""
    payload = {
        "transfer_id": transfer.transfer_id,
        "object_id": transfer.object_id,
    }
    return transfer.src, kind, payload, transfer.trace


class Arbiter:
    """Lock, placement and transfer-fence state for the objects one
    node is home for.

    ``incarnations`` (node -> current incarnation) is shared with the
    owner; every grant names the source's.  ``incarnation`` is the
    owner's own; it picks the slice of the id band this arbiter mints
    from.  ``placement`` may be the
    owner's own map, which the arbiter then keeps current for the
    objects it is home for.
    """

    def __init__(
        self,
        node_id: int,
        clock,
        lease_duration: float,
        incarnations: Dict[int, int],
        outbox,
        journal: Optional[Callable[[str, Dict[str, Any]], Any]] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        placement: Optional[Dict[int, int]] = None,
        incarnation: int = 0,
    ):
        self.node_id = node_id
        self.locks = LockManager(clock=clock, lease_duration=lease_duration)
        self.incarnations = incarnations
        self.outbox = outbox
        self.journal = journal
        self.telemetry = telemetry
        #: object id -> hosting node; authoritative for ``records``' keys.
        self.placement: Dict[int, int] = {} if placement is None else placement
        #: object id -> lock record (the slots the lock manager touches)
        #: of every object homed here; the object may live anywhere.
        self.records: Dict[int, SimpleNamespace] = {}
        self.blocks: Dict[int, MoveBlock] = {}
        self.transfers: Dict[int, TransferLogEntry] = {}
        # Homes band their ids by node, so two homes never mint the
        # same id and recovery can attribute any id to the home that
        # minted it; the supervisor (node -1) mints 1, 2, ...  Each
        # worker incarnation mints from its own slice of the band, so a
        # respawned home never repeats its predecessor's ids.
        first = 1
        if node_id >= 0:
            first += node_id * TRANSFER_BAND + (
                incarnation % INCARNATION_SLICES
            ) * (TRANSFER_BAND // INCARNATION_SLICES)
        self._transfer_ids = itertools.count(first)
        #: While True every grant is denied: a recovering supervisor
        #: must not let migrations race its in-doubt settlement.
        self.frozen = False
        self.grants = 0
        self.denials = 0
        #: Transfers this arbiter committed (a retried PLACE counts once).
        self.commits = 0

    # -- state ----------------------------------------------------------------

    def assign(self, placement: Dict[int, int]) -> None:
        """Become home for ``placement``'s objects, placed as given."""
        self.placement.update(placement)
        for oid in placement:
            if oid not in self.records:
                self.records[oid] = SimpleNamespace(
                    object_id=oid, name=f"obj-{oid}", lock_holder=None
                )

    def restore(self, state: WalState) -> None:
        """Rebuild transfers, open blocks and the id counter from a replay.

        Open move-blocks are revived with their *recorded* ids (the
        fence is the id) and broken ones re-marked; the block-id
        counter advances past everything imported.
        """
        self.transfers.update(state.transfers)
        self._transfer_ids = itertools.count(state.max_transfer_id + 1)
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

    def _log(self, kind: str, data: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal(kind, data)

    # -- decisions (no I/O) ---------------------------------------------------

    def grant(
        self,
        mover: int,
        object_id: int,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Decision:
        """§3.2: lock the object for ``mover``'s block, or answer "locked".

        ``trace`` is the mover's migration span context; the transfer
        keeps it so its verdicts join the same cross-process trace.
        """
        record = self.records.get(object_id)
        denied = {"granted": False, "location": self.placement.get(object_id)}
        if record is None:
            # Not home here: the mover's home map is stale or warming up.
            return {**denied, "not_home": True}, []
        if self.frozen or self.locks.is_locked(record):
            self.denials += 1
            return denied, []
        block = MoveBlock(client_node=mover, target=record)
        self.locks.lock(record, block)
        self.grants += 1
        self.blocks[block.block_id] = block
        source = self.placement[object_id]
        transfer_id = None
        if source != mover:
            transfer_id = next(self._transfer_ids)
            self.transfers[transfer_id] = TransferLogEntry(
                transfer_id,
                object_id,
                source,
                mover,
                block.block_id,
                trace=trace,
            )
        # Log, *then* send: if the arbiter dies between the two,
        # recovery revives the grant and the mover's timeout aborts it.
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
            "incarnation": self.incarnations.get(source, 0),
            "block_id": block.block_id,
            "transfer_id": transfer_id,
        }, []

    def place(self, dst: int, transfer_id: int) -> Decision:
        """The linearization point: commit ``dst``'s transfer or fence it out.

        Idempotent by transfer id: the destination asking again for a
        transfer already placed for it (its first ok reply was lost) is
        told ``ok`` again, and nothing is journaled or announced twice.
        """
        transfer = self.transfers.get(transfer_id)
        if transfer is None or transfer.dst != dst:
            return {"ok": False}, []
        if transfer.state == "placed":
            return {"ok": self.placement.get(transfer.object_id) == dst}, []
        block = self.blocks.get(transfer.block_id)
        if (
            transfer.state != "pending"
            or block is None
            or self.locks.was_broken(block)
        ):
            return {"ok": False}, []
        # The journal append *is* the commit: recovery treats a logged
        # PLACE as "the destination may hold the object" and settles it
        # against the destination's inventory.
        self._log(wal_module.PLACE, {"transfer_id": transfer_id})
        transfer.state = "placed"
        self.placement[transfer.object_id] = dst
        self.commits += 1
        verdicts = [verdict(transfer, EVICT)]
        if self.journal is None:
            # No journal here: mirror the commit into the supervisor's,
            # so a dead home's slices are reassigned from durable
            # ownership records.
            notice = {
                "transfer_id": transfer_id,
                "object_id": transfer.object_id,
                "node": dst,
            }
            verdicts.append(
                (SUPERVISOR, PLACE_NOTICE, notice, transfer.trace)
            )
        return {"ok": True}, verdicts

    def rollback(self, transfer_id: int) -> Decision:
        """Abort a pending transfer: the source restores its held-back copy."""
        transfer = self.transfers.get(transfer_id)
        if transfer is None or transfer.state != "pending":
            return {"ok": False}, []
        return {"ok": True}, self._roll_back(transfer)

    def _roll_back(self, transfer: TransferLogEntry) -> List[Verdict]:
        self._log(wal_module.ROLLBACK, {"transfer_id": transfer.transfer_id})
        transfer.state = "rolled_back"
        return [verdict(transfer, RESTORE)]

    def end(self, block_id: int) -> Decision:
        """Release a move-block's locks (a no-op for an unknown block)."""
        block = self.blocks.pop(block_id, None)
        if block is None:
            return {"released": 0}, []
        self._log(wal_module.END, {"block_id": block_id})
        return {"released": self.locks.release_block(block)}, []

    def break_node(self, dead: int) -> Decision:
        """A node died: break its leases, settle the transfers it was in.

        Broken blocks are barred forever, so a zombie's late ``PLACE``
        is fenced out.  A pending transfer *to* the dead node rolls
        back.  One *from* it failed: the held-back copy died with the
        source, placement never moved, and the respawn re-seeds it.
        """
        before = set(self.locks._broken)
        broken = self.locks.break_crashed(Down(dead))
        newly_broken = sorted(self.locks._broken - before)
        if newly_broken:
            self._log(
                wal_module.BREAK, {"node": dead, "block_ids": newly_broken}
            )
        verdicts: List[Verdict] = []
        for transfer in self.transfers.values():
            if transfer.state != "pending":
                continue
            if transfer.dst == dead:
                verdicts += self._roll_back(transfer)
            elif transfer.src == dead:
                self._log(
                    wal_module.FAILED, {"transfer_id": transfer.transfer_id}
                )
                transfer.state = "failed"
        return {"broken": broken}, verdicts

    def settle(self) -> Decision:
        """Drain: roll back every pending transfer, release every block.

        Called once the workloads are quiesced.  The reply is this
        arbiter's drain report: blocks released because their END never
        arrived, the placements it is authoritative for, every
        transfer's verdict and any lock-invariant violation.
        """
        verdicts: List[Verdict] = []
        for transfer in self.transfers.values():
            if transfer.state == "pending":
                verdicts += self._roll_back(transfer)
        leaked = sum(
            1
            for block in self.blocks.values()
            if self.locks.release_block(block)
        )
        self.blocks.clear()
        lock_violations = []
        try:
            self.locks.check_invariant()
        except AssertionError as exc:
            lock_violations.append(f"arbiter {self.node_id}: {exc}")
        return {
            "leaked_blocks": leaked,
            "placement": {oid: self.placement[oid] for oid in self.records},
            "verdicts": {
                t.transfer_id: t.state for t in self.transfers.values()
            },
            "lock_violations": lock_violations,
        }, verdicts

    # -- I/O ------------------------------------------------------------------

    def post(self, verdicts: List[Verdict]) -> None:
        """Hand verdicts to the outbox, retried until acknowledged."""
        for node, kind, payload, trace in verdicts:
            self.outbox.post(node, kind, payload, trace)

    async def serve(self, envelope: Envelope) -> None:
        """Decide one MOVE_REQUEST, PLACE, ROLLBACK or END_REQUEST.

        The span joins the mover's migration trace (the envelope
        carries its context), so one migration renders as a single
        cross-process span tree wherever its arbiter runs.
        """
        kind, payload = envelope.kind, envelope.payload
        span = None
        if kind in _SPANS and self.telemetry.enabled:
            name, tag, key, _ = _SPANS[kind]
            span = self.telemetry.start_span(
                name,
                node=self.node_id,
                remote=envelope.trace,
                detached=True,
                **{tag: payload[key]},
            )
        if kind == MOVE_REQUEST:
            reply, verdicts = self.grant(
                envelope.src, payload["object_id"], envelope.trace
            )
        elif kind == PLACE:
            reply, verdicts = self.place(envelope.src, payload["transfer_id"])
        elif kind == ROLLBACK:
            reply, verdicts = self.rollback(payload["transfer_id"])
        else:
            reply, verdicts = self.end(payload["block_id"])
        self.post(verdicts)
        if span is not None:
            outcome = _SPANS[kind][3]
            self.telemetry.end_span(span, **{outcome: reply[outcome]})
        await self.outbox.transport.reply(envelope, reply)

    async def drain(self, timeout: float) -> Dict[str, Any]:
        """:meth:`settle`, then wait up to ``timeout`` for its verdicts.

        A verdict still unacknowledged at the deadline leaves its copy
        in transit, and the supervisor's audit names it.
        """
        report, verdicts = self.settle()
        self.post(verdicts)
        await self.outbox.drained(timeout)
        return report


__all__ = ["Arbiter", "Down", "KINDS", "Verdict", "verdict"]
