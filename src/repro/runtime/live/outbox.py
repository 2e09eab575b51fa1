"""Settlement outbox: acknowledged delivery of transfer verdicts.

A transfer's verdict must reach the node holding the source's copy:
``EVICT`` after a commit, ``RESTORE`` after a rollback; a home also
mirrors each commit to the supervisor (``PLACE_NOTICE``).  The
supervisor and every home send all three through a
:class:`SettlementOutbox`: each is a request, retried on the
transport's backoff until acknowledged, or dropped by :meth:`fence`
once its addressee's incarnation is dead (a successor never holds its
predecessor's copy).  All three handlers are idempotent by transfer id.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConnectionLostError, TimeoutError


class SettlementOutbox:
    """Every unacknowledged verdict of one sender.

    ``incarnations`` maps node id -> current incarnation; a verdict is
    addressed to the incarnation its node has when it is posted.
    ``timeout`` bounds each delivery attempt.
    """

    def __init__(self, transport, incarnations: Dict[int, int], timeout: float):
        self.transport = transport
        self.incarnations = incarnations
        self.timeout = timeout
        #: delivery task -> (node, incarnation) it is addressed to.
        self._pending: Dict[asyncio.Task, Tuple[int, int]] = {}
        self._errors: List[BaseException] = []
        self.dropped = 0

    def post(
        self,
        node: int,
        kind: str,
        payload: Dict[str, Any],
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Send ``kind`` to ``node`` until it is acknowledged or fenced."""
        task = asyncio.ensure_future(self._deliver(node, kind, payload, trace))
        self._pending[task] = (node, self.incarnations.get(node, 0))
        task.add_done_callback(self._finished)

    async def _deliver(self, node, kind, payload, trace) -> None:
        retries = 0
        while True:
            try:
                await self.transport.request(
                    node, kind, payload, timeout=self.timeout, trace=trace
                )
                return
            except (TimeoutError, ConnectionLostError):
                await asyncio.sleep(self.transport.backoff(retries))
                retries += 1

    def _finished(self, task: asyncio.Task) -> None:
        self._pending.pop(task, None)
        if task.cancelled():
            self.dropped += 1
        elif task.exception() is not None:
            self._errors.append(task.exception())

    def fence(self) -> None:
        """Drop every verdict addressed to an incarnation that is dead."""
        for task, (node, incarnation) in list(self._pending.items()):
            if self.incarnations.get(node, incarnation) > incarnation:
                task.cancel()

    async def drained(self, timeout: float) -> None:
        """Wait, at most ``timeout`` seconds, until no verdict is pending.

        A verdict still pending at the deadline stays pending.  Raises
        the first error a delivery died of other than a timeout or a
        lost connection, which are retried.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._pending and loop.time() < deadline:
            await asyncio.wait(
                list(self._pending), timeout=deadline - loop.time()
            )
        if self._errors:
            raise self._errors[0]


__all__ = ["SettlementOutbox"]
