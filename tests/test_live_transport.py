"""Integration tests: AsyncioTransport over real sockets, in-process.

Every test runs multiple transports inside one event loop (one process)
over Unix sockets in a tmp dir — real framing, real connects, real
reconnects — and wraps the whole scenario in a hard wall-clock timeout
so a wedged transport fails fast instead of hanging CI.

Cross-process traffic is exercised by the supervisor smoke test in
``tests/test_live_supervisor.py``; this file pins the transport-level
contracts: request/reply correlation, deadline behaviour, connect
retry, idempotent redelivery, request retransmission, and fault
injection.
"""

import asyncio

import pytest

from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    TimeoutError,
    TransportClosedError,
)
from repro.runtime.live.transport import (
    AsyncioTransport,
    FaultyTransport,
    unix_supported,
)
from repro.runtime.live.wire import SUPERVISOR, DedupIndex
from repro.runtime.retry import RetryPolicy

#: Hard ceiling on any single scenario — generous next to the
#: sub-second work each does, tiny next to a CI hang.
SCENARIO_TIMEOUT = 20.0

#: Fast retry recipe so failure paths resolve in milliseconds.
FAST_RETRY = RetryPolicy(
    max_attempts=3, timeout=1.0, base=0.01, cap=0.05, multiplier=2.0,
    jitter=0.5,
)

#: Patient recipe whose total backoff budget (~3s) comfortably spans a
#: listener that comes up late.
PATIENT_RETRY = RetryPolicy(
    max_attempts=10, timeout=1.0, base=0.02, cap=0.5, multiplier=2.0,
    jitter=0.5,
)


def run(coro):
    """Drive one scenario under the hard timeout."""
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT)

    return asyncio.run(bounded())


def make_peers(tmp_path, node_ids):
    """Unix-socket (or TCP fallback) address map for the given nodes."""
    if unix_supported():
        return {
            node: ("unix", str(tmp_path / f"node{node}.sock"))
            for node in node_ids
        }
    base = 42000
    return {node: ("tcp", "127.0.0.1", base + node) for node in node_ids}


async def start_mesh(tmp_path, node_ids, **kwargs):
    peers = make_peers(tmp_path, node_ids)
    transports = {
        node: AsyncioTransport(node, peers[node], peers, **kwargs)
        for node in node_ids
    }
    for transport in transports.values():
        await transport.start()
    return transports


async def stop_mesh(transports):
    for transport in transports.values():
        await transport.close()


class TestRequestReply:
    def test_echo_round_trip(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])

            async def echo(envelope):
                await mesh[1].reply(envelope, dict(envelope.payload))

            mesh[1].handler = echo
            reply = await mesh[0].request(1, "invoke", {"x": 41}, timeout=5.0)
            await stop_mesh(mesh)
            return reply

        reply = run(scenario())
        assert reply.payload == {"x": 41}
        assert reply.reply_to == (0, 1)

    def test_timeout_raises_shared_repro_error(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            mesh[1].handler = None  # peer is up but mute
            with pytest.raises(TimeoutError):
                await mesh[0].request(1, "invoke", timeout=0.2)
            await stop_mesh(mesh)

        run(scenario())

    def test_loopback_counts_as_local(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0])
            received = []

            async def record(envelope):
                received.append(envelope)

            mesh[0].handler = record
            await mesh[0].send(0, "heartbeat")
            # Handlers run as spawned tasks; yield so the loopback
            # delivery lands before the mesh shuts down.
            await asyncio.sleep(0)
            stats = mesh[0].stats()
            await stop_mesh(mesh)
            return received, stats

        received, stats = run(scenario())
        assert len(received) == 1
        assert stats["local_messages"] == 1
        assert stats["remote_messages"] == 0


class TestConnectRetry:
    def test_connect_retries_until_late_listener_appears(self, tmp_path):
        async def scenario():
            peers = make_peers(tmp_path, [0, 1])
            early = AsyncioTransport(0, peers[0], peers, retry=PATIENT_RETRY)
            late = AsyncioTransport(1, peers[1], peers, retry=PATIENT_RETRY)
            await early.start()
            got = asyncio.get_running_loop().create_future()

            async def receive(envelope):
                if not got.done():
                    got.set_result(envelope)

            late.handler = receive

            async def start_late():
                await asyncio.sleep(0.05)  # inside early's retry budget
                await late.start()

            starter = asyncio.ensure_future(start_late())
            await early.send(1, "heartbeat", {"n": 1})
            envelope = await asyncio.wait_for(got, 5.0)
            await starter
            stats = early.stats()
            await early.close()
            await late.close()
            return envelope, stats

        envelope, stats = run(scenario())
        assert envelope.payload == {"n": 1}
        assert stats["reconnects"] >= 1

    def test_connect_exhaustion_raises_connection_lost(self, tmp_path):
        async def scenario():
            peers = make_peers(tmp_path, [0, 1])
            lonely = AsyncioTransport(0, peers[0], peers, retry=FAST_RETRY)
            await lonely.start()
            with pytest.raises(ConnectionLostError) as excinfo:
                await lonely.send(1, "heartbeat")
            await lonely.close()
            return excinfo.value

        error = run(scenario())
        assert error.peer == 1


class TestIdempotentRedelivery:
    def test_duplicate_msg_id_handled_once(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            handled = []

            async def record(envelope):
                handled.append(envelope.msg_id)

            mesh[1].handler = record
            envelope = await mesh[0].send(1, "invoke", {"op": "inc"})
            # A reconnecting sender resends the identical envelope.
            await mesh[0]._raw_send(envelope)
            await asyncio.sleep(0.2)
            duplicates = mesh[1].dedup.duplicates
            await stop_mesh(mesh)
            return handled, duplicates

        handled, duplicates = run(scenario())
        assert handled == [(0, 1)], "handler must run exactly once"
        assert duplicates == 1


class DropOne:
    """Outbound filter dropping exactly the ``nth`` envelope of ``kind``."""

    def __init__(self, transport, kind, nth=1):
        self.kind = kind
        self.nth = nth
        self.seen = 0
        self.dropped = []
        transport.outbound_filter = self

    def plan(self, envelope):
        if envelope.kind == self.kind:
            self.seen += 1
            if self.seen == self.nth:
                self.dropped.append(envelope.msg_id)
                return []
        return [(0.0, envelope)]


class TestRetransmission:
    """A lost frame costs one backoff step, not the request deadline,
    and no handler runs twice (the transport's default retry policy
    paces the retransmissions)."""

    @staticmethod
    def counting_echo(transport, calls):
        async def echo(envelope):
            calls.append(envelope.msg_id)
            await transport.reply(envelope, {"n": len(calls)})

        return echo

    def test_dropped_request_is_retransmitted(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            drops = DropOne(mesh[0], "invoke")
            calls = []
            mesh[1].handler = self.counting_echo(mesh[1], calls)
            loop = asyncio.get_running_loop()
            started = loop.time()
            reply = await mesh[0].request(1, "invoke", timeout=3.0)
            elapsed = loop.time() - started
            stats = mesh[0].stats()
            await stop_mesh(mesh)
            return reply, elapsed, calls, drops.dropped, stats

        reply, elapsed, calls, dropped, stats = run(scenario())
        assert dropped == [(0, 1)]
        assert elapsed < 0.5
        assert calls == [(0, 1)], "handler must run exactly once"
        assert reply.payload == {"n": 1}
        assert stats["retransmits"] >= 1
        assert stats["dropped_messages"] == 1

    def test_dropped_reply_is_served_from_cache(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            drops = DropOne(mesh[1], "reply")
            calls = []
            mesh[1].handler = self.counting_echo(mesh[1], calls)
            loop = asyncio.get_running_loop()
            started = loop.time()
            reply = await mesh[0].request(1, "invoke", timeout=3.0)
            elapsed = loop.time() - started
            stats = mesh[1].stats()
            await stop_mesh(mesh)
            return reply, elapsed, calls, drops.dropped, stats

        reply, elapsed, calls, dropped, stats = run(scenario())
        assert len(dropped) == 1
        assert elapsed < 0.5
        assert calls == [(0, 1)], "handler must run exactly once"
        assert reply.msg_id == dropped[0], "the cached reply, resent"
        assert stats["replies_resent"] == 1

    def test_dead_peer_fails_request_and_successor_sees_nothing(
        self, tmp_path
    ):
        async def scenario():
            peers = make_peers(tmp_path, [0, 1])
            client = AsyncioTransport(0, peers[0], peers)
            first = AsyncioTransport(1, peers[1], peers)
            await client.start()
            await first.start()
            first.handler = self.counting_echo(first, [])
            await client.request(1, "invoke", timeout=3.0)  # connect
            DropOne(client, "invoke")
            loop = asyncio.get_running_loop()
            started = loop.time()
            pending = asyncio.ensure_future(
                client.request(1, "invoke", timeout=3.0)
            )
            await asyncio.sleep(0.01)
            await first.close()  # the peer dies with the request out
            successor = AsyncioTransport(1, peers[1], peers, incarnation=1)
            calls = []
            successor.handler = self.counting_echo(successor, calls)
            await successor.start()
            with pytest.raises(ConnectionLostError):
                await pending
            elapsed = loop.time() - started
            # Several backoff steps: a reconnecting retransmit would
            # have reached the successor by now.
            await asyncio.sleep(0.4)
            await client.close()
            await successor.close()
            return elapsed, calls

        elapsed, calls = run(scenario())
        assert elapsed < 0.5
        assert calls == []

    def test_reply_cache_is_bounded_by_dedup_window(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            mesh[1].dedup = DedupIndex(window=4)
            DropOne(mesh[1], "reply")
            calls = []
            mesh[1].handler = self.counting_echo(mesh[1], calls)
            sizes = []
            for _ in range(10):
                await mesh[0].request(1, "invoke", timeout=3.0)
                sizes.append(len(mesh[1]._replies))
            await stop_mesh(mesh)
            return sizes, calls

        sizes, calls = run(scenario())
        assert len(calls) == 10
        assert max(sizes) <= 4
        assert sizes[-1] == 4


class TestBounds:
    def test_oversized_send_refused(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1], max_payload=128)
            with pytest.raises(FrameTooLargeError):
                await mesh[0].send(1, "object.transfer", {"blob": b"x" * 1024})
            await stop_mesh(mesh)

        run(scenario())

    def test_closed_transport_refuses_sends(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [0, 1])
            await stop_mesh(mesh)
            with pytest.raises(TransportClosedError):
                await mesh[0].send(1, "heartbeat")

        run(scenario())


class TestFaultyTransport:
    def test_total_drop_makes_requests_time_out(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [1, 2])
            faults = FaultyTransport(mesh[1], seed=1)
            faults.configure(drop_rate=0.999999)

            async def echo(envelope):
                await mesh[2].reply(envelope)

            mesh[2].handler = echo
            with pytest.raises(TimeoutError):
                await mesh[1].request(2, "invoke", timeout=0.2)
            stats = faults.stats()
            dropped = mesh[1].stats()["dropped_messages"]
            await stop_mesh(mesh)
            return stats, dropped

        stats, dropped = run(scenario())
        assert stats["injected_drops"] >= 1
        assert dropped >= 1

    def test_partition_blocks_data_plane_not_control_plane(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [SUPERVISOR, 1, 2])
            faults = FaultyTransport(mesh[1], seed=2)
            faults.partition({1}, {2})

            async def echo_sup(envelope):
                await mesh[SUPERVISOR].reply(envelope, {"ok": True})

            mesh[SUPERVISOR].handler = echo_sup
            # Data plane 1 -> 2 is cut...
            with pytest.raises(TimeoutError):
                await mesh[1].request(2, "invoke", timeout=0.2)
            # ...but the control plane still answers through the chaos.
            reply = await mesh[1].request(
                SUPERVISOR, "heartbeat", timeout=5.0
            )
            faults.heal()
            # After healing, the data plane works again.
            async def echo(envelope):
                await mesh[2].reply(envelope)

            mesh[2].handler = echo
            healed = await mesh[1].request(2, "invoke", timeout=5.0)
            await stop_mesh(mesh)
            return reply, healed

        reply, healed = run(scenario())
        assert reply.payload == {"ok": True}
        assert healed is not None

    def test_duplicates_injected_but_suppressed_by_dedup(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [1, 2])
            faults = FaultyTransport(mesh[1], seed=3)
            faults.configure(duplicate_rate=0.999999)
            handled = []

            async def record(envelope):
                handled.append(envelope.msg_id)

            mesh[2].handler = record
            for _ in range(5):
                await mesh[1].send(2, "invoke")
            await asyncio.sleep(0.3)
            injected = faults.injected_duplicates
            suppressed = mesh[2].dedup.duplicates
            await stop_mesh(mesh)
            return handled, injected, suppressed

        handled, injected, suppressed = run(scenario())
        assert sorted(handled) == [(1, s) for s in range(1, 6)]
        assert injected == 5
        assert suppressed == 5

    def test_delay_range_defers_but_delivers(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [1, 2])
            faults = FaultyTransport(mesh[1], seed=4)
            faults.configure(delay_range=(0.05, 0.1))
            got = asyncio.get_running_loop().create_future()

            async def receive(envelope):
                if not got.done():
                    got.set_result(envelope)

            mesh[2].handler = receive
            await mesh[1].send(2, "invoke", {"slow": True})
            envelope = await asyncio.wait_for(got, 5.0)
            delays = faults.injected_delays
            await stop_mesh(mesh)
            return envelope, delays

        envelope, delays = run(scenario())
        assert envelope.payload == {"slow": True}
        assert delays == 1

    def test_snapshot_roundtrip(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [1, 2])
            a = FaultyTransport(mesh[1], seed=5)
            a.configure(
                drop_rate=0.25,
                duplicate_rate=0.1,
                delay_range=(0.01, 0.02),
                partitions=[{1}, {2}],
            )
            b = FaultyTransport(mesh[2], seed=5)
            b.apply_snapshot(a.snapshot())
            result = (a.snapshot(), b.snapshot())
            await stop_mesh(mesh)
            return result

        a_snap, b_snap = run(scenario())
        assert a_snap == b_snap

    def test_knob_validation(self, tmp_path):
        async def scenario():
            mesh = await start_mesh(tmp_path, [1, 2])
            faults = FaultyTransport(mesh[1])
            with pytest.raises(ValueError):
                faults.configure(drop_rate=1.5)
            with pytest.raises(ValueError):
                faults.configure(delay_range=(0.5, 0.1))
            await stop_mesh(mesh)

        run(scenario())
