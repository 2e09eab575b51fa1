"""Integration tests: AsyncioTransport over real sockets, in-process.

Every test runs multiple transports inside one event loop (one process)
over Unix sockets in a tmp dir — real framing, real connects, real
reconnects — and wraps the whole scenario in a hard wall-clock timeout
so a wedged transport fails fast instead of hanging CI.

Cross-process traffic is exercised by the supervisor smoke test in
``tests/test_live_supervisor.py``; this file pins the transport-level
contracts: request/reply correlation, deadline behaviour, connect
retry, idempotent redelivery, and fault injection.
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
from repro.runtime.live.wire import SUPERVISOR
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

    def test_send_to_dead_peer_backs_off_within_reconnect_horizon(
        self, tmp_path
    ):
        # The supervisor respawns a dead home-mode worker only after
        # this horizon, so no send addressed to the dead incarnation
        # can still be reconnecting when the successor binds.
        waits = []

        class Recording(RetryPolicy):
            def backoff(self, retry_index, stream):
                delay = super().backoff(retry_index, stream)
                waits.append(delay)
                return delay

        async def scenario():
            peers = make_peers(tmp_path, [0, 1])
            lonely = AsyncioTransport(
                0, peers[0], peers,
                retry=Recording(max_attempts=4, timeout=1.0, base=0.01,
                                cap=0.02, jitter=0.5),
            )
            await lonely.start()
            with pytest.raises(ConnectionLostError):
                await lonely.send(1, "heartbeat")
            await lonely.close()
            return lonely.reconnect_horizon

        horizon = run(scenario())
        assert len(waits) == 3
        assert sum(waits) <= horizon


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
