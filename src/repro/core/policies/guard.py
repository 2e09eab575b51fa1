"""Thrashing avoidance by transient fixing (§2.2).

The paper's primitive inventory notes that fixing an object is "mostly
the consequence of run-time decisions, e.g., to avoid thrashing".  This
module supplies that run-time decision as a *wrapper* around any base
policy: when an object has migrated more than ``max_migrations`` times
within the last ``window`` time units, the guard transiently pins it —
further move requests are turned down (the mover works remotely, as
under a placement rejection) until the object has cooled down.

The guard composes: ``ThrashingGuard(ConventionalMigration(...))`` caps
the conventional policy's hot-spot degradation (see
``repro-experiment guard --check``), while
``ThrashingGuard(TransientPlacement(...))`` barely changes anything —
placement rarely thrashes in the first place.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Generator, Optional

from repro.core.moveblock import MoveBlock
from repro.core.policies.base import MigrationPolicy
from repro.runtime.objects import DistributedObject


class ThrashingGuard(MigrationPolicy):
    """Wraps a policy, transiently fixing objects that migrate too often.

    Parameters
    ----------
    inner:
        The base policy whose grants are being rate-limited.
    max_migrations:
        Grants allowed inside the sliding window before the object is
        considered thrashing.
    window:
        Width of the sliding window (simulated time units).
    cooldown:
        How long a thrashing object stays pinned after the last grant.
    """

    name = "guarded"

    def __init__(
        self,
        inner: MigrationPolicy,
        max_migrations: int = 3,
        window: float = 60.0,
        cooldown: float = 60.0,
    ):
        super().__init__(inner.system, inner.attachments)
        if max_migrations < 1:
            raise ValueError(
                f"max_migrations must be >= 1, got {max_migrations}"
            )
        if window <= 0 or cooldown <= 0:
            raise ValueError("window and cooldown must be positive")
        self.inner = inner
        self.max_migrations = max_migrations
        self.window = window
        self.cooldown = cooldown
        self._grants: Dict[int, Deque[float]] = defaultdict(deque)
        self._pinned_until: Dict[int, float] = {}
        #: Move requests turned down by the guard (not by the inner
        #: policy).
        self.guard_rejections = 0

    # -- thrash detection ----------------------------------------------------------

    def is_pinned(self, obj: DistributedObject) -> bool:
        """Whether the object is currently in its cooldown."""
        until = self._pinned_until.get(obj.object_id)
        return until is not None and self.system.env.now < until

    def _prune(self, obj: DistributedObject) -> None:
        horizon = self.system.env.now - self.window
        grants = self._grants[obj.object_id]
        while grants and grants[0] < horizon:
            grants.popleft()

    def _note_grant(self, obj: DistributedObject) -> None:
        self._prune(obj)
        grants = self._grants[obj.object_id]
        grants.append(self.system.env.now)
        if len(grants) > self.max_migrations:
            self._pinned_until[obj.object_id] = (
                self.system.env.now + self.cooldown
            )
            if self.system.tracer.enabled:
                self.system.tracer.emit(
                    self.system.env.now,
                    "guard.pinned",
                    object_id=obj.object_id,
                    until=self._pinned_until[obj.object_id],
                )

    # -- the policy interface -----------------------------------------------------------

    def move(self, block: MoveBlock) -> Generator:
        env = self.system.env
        target = block.target
        self.moves_requested += 1

        if self.is_pinned(target):
            # The object is transiently fixed: pay the request message,
            # get turned down, work remotely (like a placement reject).
            block.started_at = env.now
            yield from self._send_move_request(block)
            block.granted = target.is_resident_on(block.client_node)
            block.migration_cost = env.now - block.started_at
            self.guard_rejections += 1
            self._trace_decision(block, "guard-rejected")
            return None

        outcome = yield from self.inner.move(block)
        if block.granted and block.moved_objects:
            self._note_grant(target)
        return outcome

    def end(self, block: MoveBlock) -> Generator:
        yield from self.inner.end(block)
        return None

    def stats(self) -> dict:
        merged = self.inner.stats()
        merged.update(
            {
                "policy": f"guarded({self.inner.name})",
                "guard_rejections": self.guard_rejections,
                "moves_requested": self.moves_requested,
            }
        )
        return merged
