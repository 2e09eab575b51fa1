"""Dynamic placement: "comparing and reinstantiation" (§4.3).

Treats move-requests exactly like :class:`ComparingNodes`, but "in
addition objects may not only be migrated on move-requests but also on
end-requests if an end-request leads to a situation that some other
node holds a clear majority on open move-requests".

When a block's end releases an object and some other node holds a
clear majority of open requests (strictly more than the object's
current node, by at least ``majority_margin``), the object migrates
there immediately — the waiting users' remaining calls turn local
without anyone having to re-issue a move.  The transfer is *system-
initiated*: the ending client does not wait for it, and its cost is
accounted in ``system_migration_cost``, which the metrics collector
folds into the overall communication time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.attachment import AttachmentManager
from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.core.policies.comparing import ComparingNodes
from repro.runtime.objects import DistributedObject
from repro.runtime.system import DistributedSystem


class ComparingReinstantiation(ComparingNodes):
    """Comparing-the-nodes plus end-request re-migration."""

    name = "reinstantiation"

    def __init__(
        self,
        system: DistributedSystem,
        attachments: Optional[AttachmentManager] = None,
        locks: Optional[LockManager] = None,
        majority_margin: int = 3,
        charge_overhead: bool = False,
        record_transfer_time: float = 0.25,
    ):
        """``majority_margin``: how many more open requests another node
        must hold beyond the current node's count to trigger an
        end-time migration — the paper's "clear majority".  The default
        of 3 was calibrated so the policy reproduces Fig 14's "minor
        gains over conservative placement" (smaller margins re-migrate
        so eagerly that transit blocking erases the benefit; see
        ``tests/test_core_policies.py``).  ``charge_overhead`` /
        ``record_transfer_time`` as in :class:`ComparingNodes`."""
        super().__init__(
            system,
            attachments,
            locks,
            charge_overhead=charge_overhead,
            record_transfer_time=record_transfer_time,
        )
        if majority_margin < 1:
            raise ValueError(
                f"majority_margin must be >= 1, got {majority_margin}"
            )
        self.majority_margin = majority_margin

    def _majority_node(self, obj: DistributedObject) -> Optional[int]:
        """Node holding a clear majority of open requests, if any."""
        counts = self._open[obj.object_id]
        current = obj.node_id
        best_node, best_count = None, 0
        for node in sorted(counts):
            if counts[node] > best_count:
                best_node, best_count = node, counts[node]
        if best_node is None or best_node == current:
            return None
        if best_count >= counts[current] + self.majority_margin:
            return best_node
        return None

    def _closure_of(self, obj: DistributedObject):
        if self.attachments is None:
            return [obj]
        return self.attachments.closure(obj)

    def _reinstantiate(self, obj: DistributedObject, to_node: int) -> Generator:
        """Detached process: migrate a freed object to the majority node."""
        start = self.system.env.now
        movable = [
            o for o in self._closure_of(obj) if not self.locks.is_locked(o)
        ]
        outcome = yield from self.system.migrations.migrate(
            movable, to_node, extra_time=self._record_payload(obj)
        )
        self.system_migrations += 1
        self.system_migration_cost += self.system.env.now - start
        if self.system.tracer.enabled:
            self.system.tracer.emit(
                self.system.env.now,
                "move.reinstantiated",
                object_id=obj.object_id,
                to=to_node,
                moved=outcome.moved_count,
            )

    def end(self, block: MoveBlock) -> Generator:
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

        target = block.target
        best = None
        if not self.locks.is_locked(target) and not target.in_transit:
            best = self._majority_node(target)
        if best is not None:
            # Fire-and-forget: the ending client does not wait for the
            # system-initiated transfer.
            self.system.env.process(
                self._reinstantiate(target, best),
                name=f"reinstantiate-{target.name}",
            )
        self._trace_decision(block, "ended", reinstantiated=best is not None)
        return None
        yield  # pragma: no cover - makes this a generator function
