"""Unit tests for the invocation service (deterministic latency)."""

import pytest

from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem
from repro.sim.trace import Tracer


@pytest.fixture
def system():
    """3 nodes, deterministic unit latency, M=6, tracing enabled."""
    return DistributedSystem(
        nodes=3,
        seed=0,
        migration_duration=6.0,
        latency=DeterministicLatency(1.0),
        tracer=Tracer(),
    )


def run_invocation(system, caller_node, obj, body=None):
    def proc(env):
        result = yield from system.invocations.invoke(caller_node, obj, body=body)
        return result

    p = system.env.process(proc(system.env))
    system.env.run()
    return p.value


class TestBasicInvocation:
    def test_local_call_is_free(self, system):
        server = system.create_server(node=1)
        result = run_invocation(system, 1, server)
        assert result.duration == 0.0
        assert result.was_local
        assert system.invocations.local_calls == 1

    def test_remote_call_costs_round_trip(self, system):
        server = system.create_server(node=2)
        result = run_invocation(system, 0, server)
        assert result.duration == pytest.approx(2.0)  # call + result
        assert not result.was_local
        assert system.invocations.remote_calls == 1

    def test_invocation_count_incremented(self, system):
        server = system.create_server(node=0)
        run_invocation(system, 1, server)
        assert server.invocation_count == 1

    def test_durations_aggregated(self, system):
        server = system.create_server(node=2)

        def proc(env):
            yield from system.invocations.invoke(0, server)
            yield from system.invocations.invoke(2, server)

        system.env.process(proc(system.env))
        system.env.run()
        assert system.invocations.durations.count == 2
        assert system.invocations.durations.total == pytest.approx(2.0)

    def test_result_rejects_attribute_assignment(self, system):
        server = system.create_server(node=2)
        result = run_invocation(system, 0, server)
        with pytest.raises(AttributeError):
            result.duration = 0.0
        with pytest.raises(AttributeError):
            result.note = "results carry no extra state"

    def test_trace_records_request_and_reply(self, system):
        server = system.create_server(node=1)
        run_invocation(system, 0, server)
        tracer = system.tracer
        assert tracer.count("invocation.request") == 1
        assert tracer.count("invocation.reply") == 1


class TestBlockingOnTransit:
    def test_call_blocks_until_reinstalled(self, system):
        server = system.create_server(node=1)

        def migrator(env):
            yield from system.migrations.migrate([server], 2)

        def caller(env):
            yield env.timeout(1)  # migration is mid-flight (M=6)
            result = yield from system.invocations.invoke(2, server)
            return (env.now, result)

        system.env.process(migrator(system.env))
        p = system.env.process(caller(system.env))
        system.env.run()
        end_time, result = p.value
        # Blocked from t=1 until install at t=6, then local call at node 2.
        assert end_time == pytest.approx(6.0)
        assert result.blocked_time == pytest.approx(5.0)
        assert result.duration == pytest.approx(5.0)
        assert system.invocations.blocked_calls == 1

    def test_midflight_departure_redirects_reply(self, system):
        """Callee leaves while the request is on the wire: the request
        waits and is served at the new location."""
        server = system.create_server(node=1)

        def caller(env):
            result = yield from system.invocations.invoke(0, server)
            return (env.now, result)

        def migrator(env):
            yield env.timeout(0.5)  # request sent at t=0, in flight
            yield from system.migrations.migrate([server], 2)

        p = system.env.process(caller(system.env))
        system.env.process(migrator(system.env))
        system.env.run()
        end_time, result = p.value
        # Request arrives t=1 (object left at 0.5, lands at 6.5), then
        # reply from node 2 costs 1: done at 7.5.
        assert end_time == pytest.approx(7.5)
        assert result.blocked_time == pytest.approx(5.5)


class TestNestedInvocation:
    def test_body_runs_at_callee_and_adds_time(self, system):
        outer = system.create_server(node=1)
        inner = system.create_server(node=2)

        def body(callee_node):
            yield from system.invocations.invoke(callee_node, inner)

        result = run_invocation(system, 0, outer, body=body)
        # outer round trip 2 + inner round trip 2 (node 1 <-> node 2).
        assert result.duration == pytest.approx(4.0)
        assert inner.invocation_count == 1

    def test_colocated_nested_call_is_free(self, system):
        outer = system.create_server(node=1)
        inner = system.create_server(node=1)

        def body(callee_node):
            yield from system.invocations.invoke(callee_node, inner)

        result = run_invocation(system, 0, outer, body=body)
        assert result.duration == pytest.approx(2.0)
