"""Crash-tolerant asyncio transport: real sockets, real failures.

:class:`AsyncioTransport` is the live backend of the
:class:`~repro.runtime.transport.Transport` seam.  One instance runs
inside each OS process (worker node or supervisor) and provides:

* a listening endpoint (Unix socket by default, TCP loopback where
  ``AF_UNIX`` is unavailable) accepting length-prefixed pickled
  :class:`~repro.runtime.live.wire.Envelope` frames;
* lazy outbound connections with **connection-level retry**: connect
  and send failures back off with jitter under the same
  :class:`~repro.runtime.retry.RetryPolicy` recipe the sim's
  invocation layer uses, and exhaust into
  :class:`~repro.errors.ConnectionLostError`;
* **idempotent redelivery**: a send that dies mid-frame is re-sent on
  the fresh connection with the *same* ``msg_id``; the receiver's
  :class:`~repro.runtime.live.wire.DedupIndex` suppresses the
  duplicate, so retry never double-executes a handler;
* **request/reply with wall-clock deadlines**: ``request()`` correlates
  a response future by msg id and raises the shared
  :class:`repro.errors.TimeoutError` when the deadline passes — the
  same ambiguity (lost? slow? dead?) the sim's retry layer models;
* **at-most-once request retransmission**: while a reply is
  outstanding the request is re-sent, same ``msg_id``, on the ``retry``
  backoff schedule — but only on the connection it first went out on,
  so a retransmit can never reach a successor process bound to the
  same address.  When that connection dies the request fails at once
  with :class:`~repro.errors.ConnectionLostError`.  The receiver
  caches its replies by request id and answers a retransmitted
  request from the cache, so a lost frame in either direction costs
  one backoff step instead of the whole deadline and every handler
  still runs at most once.

:class:`FaultyTransport` wraps a transport and injects the sim fault
vocabulary at the live layer — drops, fixed/jittered delays,
duplicates, and partitions — so the chaos campaigns' scenarios drive
real processes.  Control-plane traffic (anything to or from the
supervisor) always bypasses injected faults: chaos must break the data
plane, not the experiment harness.
"""

from __future__ import annotations

import asyncio
import random
import socket
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    TimeoutError,
    TransportClosedError,
    TransportError,
)
from repro.runtime.clock import Clock, WallClock
from repro.runtime.live.framing import (
    DEFAULT_MAX_PAYLOAD,
    FrameDecoder,
    encode_frame,
)
from repro.runtime.live.wire import (
    DedupIndex,
    Envelope,
    EnvelopeFactory,
    SUPERVISOR,
)
from repro.runtime.retry import RandomJitter, RetryPolicy
from repro.runtime.transport import Transport

#: Address forms: ("unix", path) or ("tcp", host, port).
Address = Tuple

#: Default connect/send retry recipe: quick, capped, jittered —
#: wall-clock seconds, not sim units.
DEFAULT_CONNECT_RETRY = RetryPolicy(
    max_attempts=5, timeout=2.0, base=0.05, cap=1.0, multiplier=2.0,
    jitter=0.5,
)


def unix_supported() -> bool:
    """Whether this platform offers AF_UNIX stream sockets."""
    return hasattr(socket, "AF_UNIX")


class _Outstanding:
    """A request awaiting its reply: what to resend, on which wire, until when."""

    __slots__ = ("envelope", "future", "deadline", "writer", "retries", "timer")

    def __init__(self, envelope: Envelope, future: asyncio.Future):
        self.envelope = envelope
        self.future = future
        #: Event-loop time at which the request times out.
        self.deadline = 0.0
        #: The outbound connection the request first went out on.
        self.writer: Optional[asyncio.StreamWriter] = None
        #: Retransmissions so far; indexes the backoff schedule.
        self.retries = 0
        #: The one timer of the request: next retransmit or the deadline.
        self.timer: Optional[asyncio.TimerHandle] = None

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)

    def connection_lost(self) -> None:
        dst = self.envelope.dst
        self.fail(
            ConnectionLostError(
                f"connection to node {dst} lost with "
                f"{self.envelope.kind!r} outstanding",
                peer=dst,
            )
        )


class AsyncioTransport(Transport):
    """Live message transport for one OS process.

    Parameters
    ----------
    node_id:
        This endpoint's id (:data:`~repro.runtime.live.wire.SUPERVISOR`
        for the control plane).
    listen:
        Address to accept peers on.
    peers:
        node id -> address of every endpoint (self included).
    clock:
        Wall clock used for deadlines and latency accounting.
    retry:
        Connect/send retry policy (wall-clock seconds); its backoff
        schedule also paces request retransmission.
    jitter_seed:
        Seed for the backoff jitter stream (reproducible reconnects).
    max_payload:
        Frame size bound, both directions.
    """

    def __init__(
        self,
        node_id: int,
        listen: Address,
        peers: Dict[int, Address],
        clock: Optional[Clock] = None,
        retry: RetryPolicy = DEFAULT_CONNECT_RETRY,
        jitter_seed: int = 0,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        incarnation: int = 0,
    ):
        self.node_id = node_id
        self.listen_addr = listen
        self.peers = dict(peers)
        self.clock = clock or WallClock()
        self.retry = retry
        self.max_payload = max_payload
        # Restarted nodes mint in a fresh sequence band so peers' dedup
        # floors from the previous incarnation don't swallow them.
        self.incarnation = incarnation
        self.factory = EnvelopeFactory(node_id, incarnation)
        self.dedup = DedupIndex()
        self._jitter = RandomJitter(jitter_seed)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._write_locks: Dict[int, asyncio.Lock] = {}
        self._pending: Dict[Tuple[int, int], _Outstanding] = {}
        #: request msg_id -> the reply sent for it, oldest first, at
        #: most ``dedup.window`` entries: a retransmitted request is
        #: answered from here instead of running its handler again.
        self._replies: "OrderedDict[Tuple[int, int], Envelope]" = OrderedDict()
        self._reader_tasks: set = set()
        self._side_tasks: set = set()
        self._closed = False
        #: Async handler called for every non-reply inbound envelope.
        self.handler: Optional[Callable[[Envelope], Awaitable[None]]] = None
        #: Optional outbound fault filter (see :class:`FaultyTransport`).
        self.outbound_filter = None
        #: Optional envelope observer (the crash flight recorder): an
        #: object with ``on_send(envelope)`` / ``on_receive(envelope,
        #: duplicate)`` methods, called synchronously from the hot
        #: paths.  ``None`` (the default) costs one attribute read and
        #: a branch per frame — the same fast-path discipline as
        #: :class:`~repro.telemetry.NullTelemetry`.
        self.observer = None
        # The seam's shared accounting, plus live-only counters.
        self.remote_messages = 0
        self.local_messages = 0
        self.total_latency = 0.0
        self.dropped_messages = 0
        self.reconnects = 0
        self.frames_received = 0
        self.frames_sent = 0
        self.retransmits = 0
        self.replies_resent = 0

    # -- seam contract --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.peers)

    def transmit(self, src: int, dst: int, **kwargs):
        """Seam-named alias: a coroutine sending one data envelope."""
        if src != self.node_id:
            raise ValueError(
                f"live transport of node {self.node_id} cannot send as {src}"
            )
        kind = kwargs.pop("kind", "data")
        payload = kwargs.pop("payload", None)
        return self.send(dst, kind, payload)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Begin accepting peer connections on the listen address."""
        if self.listen_addr[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.listen_addr[1]
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection,
                host=self.listen_addr[1],
                port=self.listen_addr[2],
            )

    async def close(self) -> None:
        """Stop serving, drop every connection, fail pending requests."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for outstanding in self._pending.values():
            outstanding.fail(
                TransportClosedError("transport closed with request pending")
            )
        self._pending.clear()
        for task in list(self._reader_tasks) + list(self._side_tasks):
            task.cancel()

    # -- inbound --------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        decoder = FrameDecoder(self.max_payload)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for blob in decoder.feed(chunk):
                    await self._dispatch(Envelope.decode(blob))
        except (FrameTooLargeError, ConnectionError, asyncio.IncompleteReadError):
            pass  # drop this connection; the peer will reconnect
        except asyncio.CancelledError:
            pass  # transport closing; exit the reader quietly
        except Exception:
            if not self._closed:
                raise
        finally:
            self._reader_tasks.discard(task)
            writer.close()

    async def _dispatch(self, envelope: Envelope) -> None:
        self.frames_received += 1
        duplicate = self.dedup.seen(envelope.msg_id)
        observer = self.observer
        if observer is not None:
            # Pre-dedup so the flight recorder shows redeliveries too.
            observer.on_receive(envelope, duplicate)
        if duplicate:
            # Already processed.  A retransmitted request whose reply
            # is cached gets that reply again; one still being handled
            # is answered when its handler replies.
            if envelope.reply_to is None:
                cached = self._replies.get(envelope.msg_id)
                if cached is not None:
                    self.replies_resent += 1
                    self._spawn(self._resend_reply(cached))
            return
        if envelope.reply_to is not None:
            outstanding = self._pending.pop(envelope.reply_to, None)
            if outstanding is not None and not outstanding.future.done():
                outstanding.future.set_result(envelope)
            return
        if self.handler is not None:
            # Handlers run as tasks so a slow handler (e.g. a drain
            # waiting for the workload) never blocks this connection's
            # read loop — replies the handler is itself waiting on may
            # arrive on the very same connection.
            self._spawn(self._run_handler(envelope))

    async def _run_handler(self, envelope: Envelope) -> None:
        try:
            await self.handler(envelope)
        except (TransportError, TimeoutError):
            pass  # peer vanished mid-handling; its retry will return

    # -- outbound -------------------------------------------------------------

    async def _connect(self, dst: int) -> asyncio.StreamWriter:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        address = self.peers[dst]
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt > 0:
                self.reconnects += 1
                await asyncio.sleep(self.backoff(attempt - 1))
            if self._closed:
                raise TransportClosedError("transport closed during connect")
            try:
                if address[0] == "unix":
                    reader, writer = await asyncio.open_unix_connection(
                        path=address[1]
                    )
                else:
                    reader, writer = await asyncio.open_connection(
                        host=address[1], port=address[2]
                    )
                self._writers[dst] = writer
                self._write_locks.setdefault(dst, asyncio.Lock())
                self._spawn(self._watch(reader, writer))
                return writer
            except (ConnectionError, OSError) as exc:
                last_error = exc
        raise ConnectionLostError(
            f"could not connect to node {dst} after "
            f"{self.retry.max_attempts} attempts: {last_error}",
            peer=dst,
        ) from last_error

    async def _watch(self, reader, writer) -> None:
        """Fail the requests pinned to an outbound connection when it dies.

        Peers never write on a connection this side opened, so the
        first thing the read returns is end-of-file.
        """
        try:
            await reader.read()
        except (ConnectionError, OSError):
            pass
        writer.close()
        for outstanding in list(self._pending.values()):
            if outstanding.writer is writer:
                outstanding.connection_lost()

    async def _raw_send(self, envelope: Envelope) -> None:
        """Frame + write one envelope, reconnecting on a dead pipe.

        Redelivery keeps the envelope's ``msg_id``, so a frame that
        actually arrived before the connection died is suppressed by
        the receiver's dedup index — at-most-once handling on top of
        at-least-one-delivery retries.
        """
        if self._closed:
            raise TransportClosedError(
                f"send of {envelope.kind!r} on closed transport"
            )
        dst = envelope.dst
        if dst == self.node_id:
            # Loopback: no wire, no frame — matches the sim's free
            # local messages.
            self.local_messages += 1
            await self._dispatch(envelope)
            return
        frame = encode_frame(envelope.encode(), self.max_payload)
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt > 0:
                await asyncio.sleep(self.backoff(attempt - 1))
            try:
                writer = await self._connect(dst)
                # _connect registered this writer's lock.
                async with self._write_locks[dst]:
                    writer.write(frame)
                    await writer.drain()
                self.remote_messages += 1
                self.frames_sent += 1
                return
            except ConnectionLostError:
                raise
            except (ConnectionError, OSError) as exc:
                last_error = exc
                stale = self._writers.pop(dst, None)
                if stale is not None:
                    stale.close()
        raise ConnectionLostError(
            f"send of {envelope.kind!r} to node {dst} failed after "
            f"{self.retry.max_attempts} attempts: {last_error}",
            peer=dst,
        ) from last_error

    def _plan(self, envelope: Envelope):
        """Observe one outbound envelope; its (delay, copy) deliveries.

        The fault filter, if installed, may drop (no deliveries),
        delay or duplicate it.
        """
        observer = self.observer
        if observer is not None:
            observer.on_send(envelope)
        fault_filter = self.outbound_filter
        if fault_filter is None:
            return ((0.0, envelope),)
        deliveries = fault_filter.plan(envelope)
        if not deliveries:
            self.dropped_messages += 1
        return deliveries

    async def _send_envelope(self, envelope: Envelope) -> None:
        """Send one envelope through the fault filter, if installed."""
        for delay, copy_ in self._plan(envelope):
            if delay <= 0:
                await self._raw_send(copy_)
            else:
                self._spawn(self._delayed_send(delay, copy_))

    async def _delayed_send(self, delay: float, envelope: Envelope) -> None:
        await asyncio.sleep(delay)
        try:
            await self._raw_send(envelope)
        except (ConnectionLostError, TransportClosedError):
            pass  # a delayed copy racing shutdown is just a lost message

    async def _resend_reply(self, reply: Envelope) -> None:
        try:
            await self._send_envelope(reply)
        except (ConnectionLostError, TransportClosedError):
            pass  # the requester is gone; nobody awaits this reply

    def _arm(self, outstanding: _Outstanding, wait: float) -> None:
        """Wake the request after ``wait`` seconds, or at its deadline."""
        loop = asyncio.get_running_loop()
        outstanding.timer = loop.call_at(
            min(loop.time() + wait, outstanding.deadline),
            self._on_timer,
            outstanding,
        )

    def _on_timer(self, outstanding: _Outstanding) -> None:
        """Time a request out, or resend it on its pinned connection.

        Never reconnects: a new connection to the same address may
        reach a respawned successor, which must not see its
        predecessor's requests.  A dead pinned connection fails the
        request instead.
        """
        future = outstanding.future
        if future.done():
            return
        loop = asyncio.get_running_loop()
        if loop.time() >= outstanding.deadline:
            future.set_exception(asyncio.TimeoutError())
            return
        writer = outstanding.writer
        if writer.is_closing():
            outstanding.connection_lost()
            return
        self.retransmits += 1
        for delay, copy_ in self._plan(outstanding.envelope):
            if delay <= 0:
                self._write_pinned(writer, copy_)
            else:
                loop.call_later(delay, self._write_pinned, writer, copy_)
        outstanding.retries += 1
        self._arm(outstanding, self.backoff(outstanding.retries))

    def _write_pinned(self, writer, envelope: Envelope) -> None:
        """Write one whole frame without waiting (a retransmit)."""
        if writer.is_closing():
            return
        writer.write(encode_frame(envelope.encode(), self.max_payload))
        self.remote_messages += 1
        self.frames_sent += 1

    def backoff(self, retry_index: int) -> float:
        """Jittered delay before retry ``retry_index`` (0-based)."""
        return self.retry.backoff(retry_index, self._jitter)

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._side_tasks.add(task)
        task.add_done_callback(self._side_tasks.discard)

    # -- public API -----------------------------------------------------------

    async def send(
        self,
        dst: int,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Envelope:
        """Fire one envelope at ``dst``; returns the sent envelope."""
        envelope = self.factory.make(kind, dst, payload, trace=trace)
        await self._send_envelope(envelope)
        return envelope

    async def reply(
        self,
        request: Envelope,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Envelope:
        """Answer a request envelope (correlated via ``reply_to``).

        The request's trace context (if any) is echoed on the reply so
        flight-recorder dumps show both directions of an exchange under
        the same trace.  The reply is cached by request id, so a
        retransmission of the request is answered without re-running
        its handler.
        """
        envelope = self.factory.make(
            "reply", request.src, payload, reply_to=request.msg_id,
            trace=request.trace,
        )
        replies = self._replies
        replies[request.msg_id] = envelope
        if len(replies) > self.dedup.window:
            replies.popitem(last=False)
        await self._send_envelope(envelope)
        return envelope

    async def request(
        self,
        dst: int,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: float = 5.0,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Envelope:
        """Send and await the correlated reply under a deadline.

        Until the reply arrives the request is retransmitted on the
        connection it went out on (see :meth:`_on_timer`).  Raises
        the shared :class:`repro.errors.TimeoutError` when the
        wall-clock deadline passes — the caller cannot distinguish a
        peer that stayed silent from one that is slow, exactly the
        ambiguity the sim's retry layer models — and
        :class:`~repro.errors.ConnectionLostError` as soon as that
        connection dies.
        """
        envelope = self.factory.make(kind, dst, payload, trace=trace)
        loop = asyncio.get_running_loop()
        outstanding = _Outstanding(envelope, loop.create_future())
        self._pending[envelope.msg_id] = outstanding
        started = self.clock.now()
        try:
            await self._send_envelope(envelope)
            outstanding.deadline = loop.time() + timeout
            if not outstanding.future.done():
                if dst == self.node_id:
                    self._arm(outstanding, timeout)
                else:
                    # The connection the frame went out on (opened now
                    # if the fault filter dropped the frame before any
                    # was).
                    outstanding.writer = await self._connect(dst)
                    self._arm(outstanding, self.backoff(0))
            reply = await outstanding.future
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"{kind!r} request to node {dst} timed out after "
                f"{timeout}s"
            ) from None
        finally:
            self._pending.pop(envelope.msg_id, None)
            if outstanding.timer is not None:
                outstanding.timer.cancel()
        self.total_latency += self.clock.now() - started
        return reply

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            reconnects=self.reconnects,
            frames_received=self.frames_received,
            frames_sent=self.frames_sent,
            duplicates_suppressed=self.dedup.duplicates,
            retransmits=self.retransmits,
            replies_resent=self.replies_resent,
        )
        return base

    def __repr__(self) -> str:
        return (
            f"<AsyncioTransport node={self.node_id} "
            f"peers={len(self.peers)} "
            f"msgs={self.remote_messages}r/{self.local_messages}l>"
        )


class FaultyTransport:
    """Live-layer fault injector: drops, delays, duplicates, partitions.

    Wraps an :class:`AsyncioTransport` by installing itself as the
    transport's outbound filter; the transport's own API is unchanged,
    so protocol code cannot tell whether its wire is clean or hostile —
    the same property the sim gets from
    :class:`~repro.network.faults.LinkFaultModel` inside
    ``Network.transmit``.

    All knobs apply to *data-plane* envelopes only: control traffic to
    or from the supervisor passes clean, so the harness can always
    reconfigure, drain, and collect results mid-chaos.
    """

    def __init__(self, transport: AsyncioTransport, seed: int = 0):
        self.transport = transport
        self._rng = random.Random(seed)
        self.drop_rate = 0.0
        self.duplicate_rate = 0.0
        #: (min, max) extra seconds per message; (0, 0) = no delay.
        self.delay_range: Tuple[float, float] = (0.0, 0.0)
        #: Groups of node ids; messages crossing group boundaries drop.
        self.partitions: List[frozenset] = []
        self.injected_drops = 0
        self.injected_duplicates = 0
        self.injected_delays = 0
        transport.outbound_filter = self

    # -- configuration (applied instantly, also via SET_FAULTS) ---------------

    def configure(
        self,
        drop_rate: Optional[float] = None,
        duplicate_rate: Optional[float] = None,
        delay_range: Optional[Tuple[float, float]] = None,
        partitions: Optional[List] = None,
    ) -> None:
        """Bulk-update knobs; ``None`` leaves a knob unchanged."""
        if drop_rate is not None:
            if not 0.0 <= drop_rate < 1.0:
                raise ValueError(f"drop_rate must be in [0,1), got {drop_rate}")
            self.drop_rate = drop_rate
        if duplicate_rate is not None:
            if not 0.0 <= duplicate_rate < 1.0:
                raise ValueError(
                    f"duplicate_rate must be in [0,1), got {duplicate_rate}"
                )
            self.duplicate_rate = duplicate_rate
        if delay_range is not None:
            low, high = delay_range
            if low < 0 or high < low:
                raise ValueError(f"bad delay_range {delay_range}")
            self.delay_range = (low, high)
        if partitions is not None:
            self.partitions = [frozenset(group) for group in partitions]

    def partition(self, *groups) -> None:
        """Split the data plane into isolated groups of node ids."""
        self.configure(partitions=list(groups))

    def heal(self) -> None:
        """Remove every partition (other knobs unchanged)."""
        self.partitions = []

    def snapshot(self) -> Dict[str, Any]:
        """Picklable config (for SET_FAULTS control messages)."""
        return {
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_range": self.delay_range,
            "partitions": [sorted(g) for g in self.partitions],
        }

    def apply_snapshot(self, config: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`."""
        self.configure(
            drop_rate=config.get("drop_rate"),
            duplicate_rate=config.get("duplicate_rate"),
            delay_range=tuple(config["delay_range"])
            if config.get("delay_range") is not None
            else None,
            partitions=config.get("partitions"),
        )

    # -- the filter hook ------------------------------------------------------

    def _partitioned(self, src: int, dst: int) -> bool:
        if not self.partitions:
            return False
        for group in self.partitions:
            if src in group:
                return dst not in group
        # src in no group: cut off from every grouped node.
        return any(dst in group for group in self.partitions)

    def plan(self, envelope: Envelope) -> List[Tuple[float, Envelope]]:
        """Deliveries for one envelope: [] = dropped; may duplicate."""
        src, dst = envelope.src, envelope.dst
        if src == SUPERVISOR or dst == SUPERVISOR or src == dst:
            return [(0.0, envelope)]  # control plane / loopback: clean
        if self._partitioned(src, dst):
            self.injected_drops += 1
            return []
        if self.drop_rate > 0 and self._rng.random() < self.drop_rate:
            self.injected_drops += 1
            return []
        delay = 0.0
        low, high = self.delay_range
        if high > 0:
            delay = self._rng.uniform(low, high)
            if delay > 0:
                self.injected_delays += 1
        deliveries = [(delay, envelope)]
        if self.duplicate_rate > 0 and self._rng.random() < self.duplicate_rate:
            self.injected_duplicates += 1
            deliveries.append((delay, envelope))
        return deliveries

    def stats(self) -> Dict[str, int]:
        """Counters for every fault this filter has injected."""
        return {
            "injected_drops": self.injected_drops,
            "injected_duplicates": self.injected_duplicates,
            "injected_delays": self.injected_delays,
        }

    def __repr__(self) -> str:
        return (
            f"<FaultyTransport drop={self.drop_rate} "
            f"dup={self.duplicate_rate} delay={self.delay_range} "
            f"partitions={len(self.partitions)}>"
        )


__all__ = [
    "Address",
    "AsyncioTransport",
    "DEFAULT_CONNECT_RETRY",
    "FaultyTransport",
    "unix_supported",
]
