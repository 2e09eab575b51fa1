"""Distributed objects: the mobile entities of the model.

An object encapsulates state and interacts only via invocations, which
is exactly what makes it movable (§2.1/§2.2).  The model distinguishes
*clients* (sedentary by construction — "there is no point in migrating
them", §4.1) from *servers* (the movable, shared service providers).

Mobility state machine::

    RESIDENT --begin_transit()--> IN_TRANSIT --install(node)--> RESIDENT

While IN_TRANSIT the object "can not perform any operation until it is
reinstalled at the target node" (§4.1): invocations and move requests
park on :attr:`DistributedObject.reinstalled` until installation.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.errors import MigrationInProgressError
from repro.sim.kernel import Environment
from repro.sim.resources import Waiters

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.moveblock import MoveBlock


class ObjectKind(Enum):
    """Role of an object in the client–server model of §4.1."""

    CLIENT = "client"
    SERVER = "server"


class MobilityState(Enum):
    """Whether the object is installed somewhere or on the wire."""

    RESIDENT = "resident"
    IN_TRANSIT = "in_transit"


class DistributedObject:
    """One object of the distributed application.

    Parameters
    ----------
    env:
        Simulation environment (needed for the reinstall condition).
    object_id:
        Unique id within the system.
    node_id:
        Initial location.
    kind:
        Client or server.
    name:
        Human-readable label (defaults to ``kind-id``).
    fixed:
        When true the object may never migrate (the ``fix()`` type
        attribute of §2.2).  Clients are created fixed.
    size:
        Abstract size; migration duration may scale with it (the paper
        keeps M fixed, so the default workloads use size 1).
    """

    __slots__ = (
        "env",
        "object_id",
        "name",
        "kind",
        "fixed",
        "size",
        "_node_id",
        "_state",
        "reinstalled",
        "lock_holder",
        "migration_count",
        "invocation_count",
        "_transit_started",
        "transit_time",
    )

    def __init__(
        self,
        env: Environment,
        object_id: int,
        node_id: int,
        kind: ObjectKind = ObjectKind.SERVER,
        name: str = "",
        fixed: bool = False,
        size: float = 1.0,
    ):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.env = env
        self.object_id = object_id
        self.name = name or f"{kind.value}-{object_id}"
        self.kind = kind
        self.fixed = fixed
        self.size = size
        self._node_id = node_id
        self._state = MobilityState.RESIDENT
        #: Broadcast condition released every time the object is
        #: (re)installed; blocked calls and moves wait on it.
        self.reinstalled = Waiters(env)
        #: The move-block currently holding this object under the
        #: place-policy (None when unlocked).  See §3.2.
        self.lock_holder: Optional["MoveBlock"] = None
        # Lifetime accounting.
        self.migration_count = 0
        self.invocation_count = 0
        self._transit_started = 0.0
        self.transit_time = 0.0

    # -- location -------------------------------------------------------------

    @property
    def node_id(self) -> int:
        """Current (or, while in transit, destination-pending) node."""
        return self._node_id

    @property
    def state(self) -> MobilityState:
        """Mobility state."""
        return self._state

    @property
    def in_transit(self) -> bool:
        """True while the object is linearized on the wire."""
        return self._state is MobilityState.IN_TRANSIT

    @property
    def is_locked(self) -> bool:
        """True while a move-block holds the place-policy lock."""
        return self.lock_holder is not None

    def is_resident_on(self, node_id: int) -> bool:
        """The ``is_resident()`` primitive of §2.2."""
        return self._state is MobilityState.RESIDENT and self._node_id == node_id

    # -- mobility transitions ---------------------------------------------------

    def begin_transit(self) -> None:
        """Linearize the object and take it off its node.

        Only the migration service calls this.  The object keeps its
        old ``node_id`` until installation so in-flight bookkeeping can
        still attribute it somewhere, but ``in_transit`` is now true.
        """
        if self._state is MobilityState.IN_TRANSIT:
            raise MigrationInProgressError(
                f"{self.name} is already in transit"
            )
        self._state = MobilityState.IN_TRANSIT
        self._transit_started = self.env.now

    def install(self, node_id: int) -> None:
        """Reinstall the object at ``node_id`` and wake blocked callers."""
        if self._state is not MobilityState.IN_TRANSIT:
            raise MigrationInProgressError(
                f"{self.name} is not in transit; cannot install"
            )
        self._state = MobilityState.RESIDENT
        self._node_id = node_id
        self.migration_count += 1
        self.transit_time += self.env.now - self._transit_started
        self.reinstalled.notify_all(node_id)

    def __repr__(self) -> str:
        state = "transit" if self.in_transit else f"@{self._node_id}"
        lock = f" locked-by={self.lock_holder}" if self.lock_holder else ""
        return f"<{self.kind.value.capitalize()} {self.name} {state}{lock}>"

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributedObject):
            return NotImplemented
        return self.object_id == other.object_id
