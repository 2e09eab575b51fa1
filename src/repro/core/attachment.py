"""Attachments: keeping objects together across migrations (§2.2, §3.4).

``attach(a, b)`` tells the system that ``a`` must be kept with ``b``:
whenever one of them migrates, the whole *transitive closure* of
attachments migrates along.  That transitivity is exactly what goes
wrong in non-monolithic systems — independently issued attachments glue
the overlapping working sets of different applications into one big
cluster, so every application "continuously underestimates the effect
of an issued migrate()" (§2.4).

This module implements the attachment graph with the three closure
semantics the paper discusses:

``UNRESTRICTED``
    Conventional semantics: the closure is the weakly connected
    component over *all* attachment edges.
``A_TRANSITIVE``
    Alliance-restricted semantics (§3.4): the closure follows only
    edges tagged with the alliance in which the migration primitive was
    invoked.
``EXCLUSIVE``
    First-come-first-served semantics (§3.4, last paragraph): an object
    may be attached *to* at most one other object; later attachments of
    the same object are ignored.  No new construct is needed, at the
    price of dropping some sensible attachments.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import AttachmentError
from repro.runtime.objects import DistributedObject

#: Tag used for edges not scoped to any alliance.
GLOBAL_CONTEXT: Optional[int] = None


class AttachmentMode(Enum):
    """Closure semantics applied when a migration drags attachments."""

    UNRESTRICTED = "unrestricted"
    A_TRANSITIVE = "a-transitive"
    EXCLUSIVE = "exclusive"


class AttachmentManager:
    """The attachment graph and its closure algebra.

    Edges are directed at the API level (``attach(a, b)`` reads "a is
    attached to b") because the EXCLUSIVE rule constrains the *source*
    of an edge, but closures always treat edges as undirected: objects
    that must stay together form a weakly connected component.

    Every edge carries a context tag: ``GLOBAL_CONTEXT`` (``None``) for
    plain attachments or an alliance id for alliance-scoped ones.
    """

    def __init__(self, mode: AttachmentMode = AttachmentMode.UNRESTRICTED):
        self.mode = mode
        #: adjacency: object id -> set of (neighbor id, context) pairs.
        self._adjacency: Dict[int, Set[Tuple[int, Optional[int]]]] = {}
        #: outgoing attachment (for EXCLUSIVE bookkeeping): src -> dst.
        self._attached_to: Dict[int, int] = {}
        #: id -> object, for returning object sets from closures.
        self._objects: Dict[int, DistributedObject] = {}
        #: Count of attach calls ignored by the EXCLUSIVE rule.
        self.ignored_attachments = 0
        #: closure memo: (object id, context, restrict) -> members.
        #: Workload graphs are static while every move-block asks for
        #: the same closure; any edge mutation clears it.
        self._closures: Dict[
            Tuple[int, Optional[int], bool], Tuple[DistributedObject, ...]
        ] = {}

    # -- mutation ----------------------------------------------------------------

    def attach(
        self,
        a: DistributedObject,
        b: DistributedObject,
        context: Optional[int] = GLOBAL_CONTEXT,
    ) -> bool:
        """Attach ``a`` to ``b`` in the given context.

        Returns True if the attachment took effect, False if it was
        ignored (only possible in EXCLUSIVE mode).  Re-attaching an
        existing edge is idempotent.
        """
        if a is b or a.object_id == b.object_id:
            raise AttachmentError(f"cannot attach {a.name} to itself")

        if self.mode is AttachmentMode.EXCLUSIVE:
            existing = self._attached_to.get(a.object_id)
            if existing is not None and existing != b.object_id:
                # "All additional attachments for this object are
                # ignored" — first come, first served.
                self.ignored_attachments += 1
                return False

        self._closures.clear()
        self._objects[a.object_id] = a
        self._objects[b.object_id] = b
        self._adjacency.setdefault(a.object_id, set()).add((b.object_id, context))
        self._adjacency.setdefault(b.object_id, set()).add((a.object_id, context))
        self._attached_to[a.object_id] = b.object_id
        return True

    def detach(
        self,
        a: DistributedObject,
        b: DistributedObject,
        context: Optional[int] = GLOBAL_CONTEXT,
    ) -> bool:
        """Remove the a–b attachment in ``context``; True if it existed."""
        removed = False
        edges_a = self._adjacency.get(a.object_id, set())
        edges_b = self._adjacency.get(b.object_id, set())
        if (b.object_id, context) in edges_a:
            self._closures.clear()
            edges_a.discard((b.object_id, context))
            edges_b.discard((a.object_id, context))
            removed = True
        if removed and self._attached_to.get(a.object_id) == b.object_id:
            # Only clear the exclusive slot if no other context still
            # links a to b.
            if not any(nbr == b.object_id for nbr, _ in edges_a):
                del self._attached_to[a.object_id]
        return removed

    def detach_all(self, obj: DistributedObject) -> int:
        """Remove every attachment involving ``obj``; returns the count."""
        self._closures.clear()
        edges = self._adjacency.get(obj.object_id, set())
        count = len(edges)
        for nbr, context in list(edges):
            self._adjacency[nbr].discard((obj.object_id, context))
            if self._attached_to.get(nbr) == obj.object_id and not any(
                n == obj.object_id for n, _ in self._adjacency[nbr]
            ):
                del self._attached_to[nbr]
        self._adjacency[obj.object_id] = set()
        self._attached_to.pop(obj.object_id, None)
        return count

    # -- queries ------------------------------------------------------------------

    def neighbors(
        self, obj: DistributedObject, context: Optional[int] = None
    ) -> List[DistributedObject]:
        """Directly attached partners; filtered to ``context`` if given.

        With ``context=None`` *all* edges count (unrestricted view).
        """
        out = []
        for nbr, ctx in sorted(self._adjacency.get(obj.object_id, set())):
            if context is None or ctx == context:
                out.append(self._objects[nbr])
        return out

    def is_attached(self, a: DistributedObject, b: DistributedObject) -> bool:
        """True if any edge (any context) links a and b directly."""
        return any(
            nbr == b.object_id for nbr, _ in self._adjacency.get(a.object_id, set())
        )

    def edge_count(self) -> int:
        """Number of undirected (pair, context) edges in the graph."""
        total = sum(len(edges) for edges in self._adjacency.values())
        return total // 2

    def closure(
        self,
        obj: DistributedObject,
        context: Optional[int] = None,
    ) -> List[DistributedObject]:
        """The set of objects that must migrate together with ``obj``.

        Parameters
        ----------
        obj:
            The object a migration primitive was invoked on.
        context:
            * ``None`` — unrestricted semantics: follow every edge
              (this is also what EXCLUSIVE mode uses; exclusivity
              already bounded the graph at attach time).
            * an alliance id — A-transitive semantics: follow only
              edges tagged with that alliance (§3.4).

        Returns the closure *including* ``obj`` itself, ordered by
        object id for determinism; the list is the caller's to keep.
        """
        if obj.object_id not in self._objects:
            # Never attached: nothing to follow, and nothing to memoize
            # against an object the graph has not seen.
            return [obj]
        restrict = context is not None and self.mode is AttachmentMode.A_TRANSITIVE
        key = (obj.object_id, context, restrict)
        members = self._closures.get(key)
        if members is None:
            seen: Set[int] = {obj.object_id}
            frontier = deque([obj.object_id])
            while frontier:
                current = frontier.popleft()
                for nbr, ctx in self._adjacency.get(current, set()):
                    if restrict and ctx != context:
                        continue
                    if nbr not in seen:
                        seen.add(nbr)
                        frontier.append(nbr)
            members = self._closures[key] = tuple(
                self._objects[oid] for oid in sorted(seen)
            )
        return list(members)

    def components(self) -> List[List[DistributedObject]]:
        """All weakly connected components (unrestricted view)."""
        seen: Set[int] = set()
        out: List[List[DistributedObject]] = []
        for oid in sorted(self._adjacency):
            if oid in seen or not self._adjacency[oid]:
                continue
            comp = self.closure(self._objects[oid])
            seen.update(o.object_id for o in comp)
            out.append(comp)
        return out

    def __repr__(self) -> str:
        return (
            f"<AttachmentManager mode={self.mode.value} "
            f"edges={self.edge_count()} ignored={self.ignored_attachments}>"
        )
