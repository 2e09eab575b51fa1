"""Dynamic placement: "comparing the nodes" (§3.3, §4.3).

Between the aggressive conventional move and the conservative place-
policy lies a continuum of policies that record information about the
current *users* of an object.  This one is an extension of the place-
policy (§3.3 frames both dynamic strategies that way): it keeps, per
object, the number of *open* move-requests per node — move increments,
end decrements — and "tries to keep objects always at those nodes from
where the most move-requests have been issued":

* a locked object stays locked: conflicting requests are recorded and
  rejected exactly as under conservative placement;
* a *free* object is granted to the requester only if the requester's
  node now holds at least as many open requests as every other node.
  A minority requester is turned down even though the object is free —
  the object is more valuable where more users wait.  This is how "a
  conflicting move-request has initially no effect on the location of
  the requested object but may lead to a migration at some point later
  if further move-requests are issued at the same node" (§4.3).

Per §4.3 the bookkeeping overhead (shipping the per-user data with the
object, forwarding move/end-requests to it) is deliberately **not**
charged: "only the benefits are measured to keep the results clearly
comparable to the simple policies".  Even so, the gains turn out
marginal (Fig 14).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generator, Optional

from repro.core.attachment import AttachmentManager
from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.core.policies.base import MigrationPolicy
from repro.runtime.objects import DistributedObject
from repro.runtime.system import DistributedSystem


class ComparingNodes(MigrationPolicy):
    """Place-policy whose grant decision follows the open-request counts."""

    name = "comparing"

    def __init__(
        self,
        system: DistributedSystem,
        attachments: Optional[AttachmentManager] = None,
        locks: Optional[LockManager] = None,
        charge_overhead: bool = False,
        record_transfer_time: float = 0.25,
    ):
        """``charge_overhead`` switches on the §3.3 costs the paper's
        evaluation deliberately neglects: end-requests are forwarded to
        the object's location (one remote message when the ender is
        elsewhere), and every migration ships the per-user bookkeeping
        with the object (``record_transfer_time`` extra transfer time
        per open move-request record).  §4.3 predicts the dynamic
        policies' "minor gains" disappear under these costs —
        ``tests/test_core_overhead.py`` confirms it."""
        super().__init__(system, attachments)
        self.locks = locks or LockManager()
        if record_transfer_time < 0:
            raise ValueError(
                f"record_transfer_time must be >= 0, got {record_transfer_time}"
            )
        self.charge_overhead = charge_overhead
        self.record_transfer_time = record_transfer_time
        #: Remote messages spent forwarding end-requests (overhead mode).
        self.overhead_messages = 0
        #: object id -> node id -> open move-request count.
        self._open: Dict[int, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # -- bookkeeping ---------------------------------------------------------------

    def open_requests(self, obj: DistributedObject) -> Dict[int, int]:
        """Snapshot of the per-node open-request counts for ``obj``."""
        return {n: c for n, c in self._open[obj.object_id].items() if c > 0}

    def _register(self, block: MoveBlock) -> None:
        self._open[block.target.object_id][block.client_node] += 1

    def _deregister(self, block: MoveBlock) -> None:
        counts = self._open[block.target.object_id]
        counts[block.client_node] = max(0, counts[block.client_node] - 1)

    def _requester_has_plurality(
        self, obj: DistributedObject, node: int
    ) -> bool:
        """Does ``node`` hold at least as many open requests as any
        other node?  Ties favor the requester (placement-like)."""
        counts = self._open[obj.object_id]
        mine = counts[node]
        return all(c <= mine for n, c in counts.items() if n != node)

    def _record_payload(self, obj: DistributedObject) -> float:
        """Extra transfer time for the per-user records (§3.3 overhead).

        One record per open move-request ("it records move- and
        end-requests and the nodes where they have occurred", §4.3), so
        the payload grows with the number of concurrent users — which
        is exactly why §3.3 calls such policies "clearly unpromising
        for small objects".
        """
        if not self.charge_overhead:
            return 0.0
        records = sum(self._open[obj.object_id].values())
        return self.record_transfer_time * records

    # -- the protocol -----------------------------------------------------------------

    def move(self, block: MoveBlock) -> Generator:
        env = self.system.env
        block.started_at = env.now
        self.moves_requested += 1

        yield from self._send_move_request(block)
        self._register(block)

        target = block.target
        if self.locks.is_locked(target):
            # Same as conservative placement: a held object stays put.
            block.granted = False
            block.migration_cost = env.now - block.started_at
            self.moves_rejected += 1
            self._trace_decision(
                block, "rejected", holder=target.lock_holder.block_id
            )
            return None

        if not self._requester_has_plurality(target, block.client_node):
            # Free, but more users wait elsewhere: keep it where it is.
            block.granted = target.is_resident_on(block.client_node)
            block.migration_cost = env.now - block.started_at
            if not block.granted:
                self.moves_rejected += 1
            self._trace_decision(
                block, "kept", at=target.node_id, granted=block.granted
            )
            return None

        # Grant: lock first (atomic with the checks), then transfer.
        working_set = self.working_set(block)
        movable = [obj for obj in working_set if not self.locks.is_locked(obj)]
        self.locks.lock_all(movable, block)

        outcome = yield from self.system.migrations.migrate(
            movable,
            block.client_node,
            extra_time=self._record_payload(target),
        )

        block.granted = True
        block.moved_objects = outcome.moved_count
        block.migration_cost = env.now - block.started_at
        self.moves_granted += 1
        self._trace_decision(block, "granted", moved=outcome.moved_count)
        return outcome

    def end(self, block: MoveBlock) -> Generator:
        """Release locks and drop the open-request registration.

        The registration update must reach the object's location; the
        forwarding cost is neglected by default per §4.3 ("only the
        benefits are measured") and charged — one remote message,
        attributed to the block — in overhead mode.
        """
        if self.charge_overhead:
            target = block.target
            if target.node_id != block.client_node:
                start = self.system.env.now
                yield from self.system.network.transmit(
                    block.client_node, target.node_id
                )
                self.overhead_messages += 1
                block.migration_cost += self.system.env.now - start
        self.locks.release_block(block)
        self._deregister(block)
        block.ended_at = self.system.env.now
        self._trace_decision(block, "ended")
        return None
