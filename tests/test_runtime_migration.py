"""Unit tests for the migration service."""

import pytest

from repro.errors import ObjectFixedError, ProcessError, UnknownNodeError
from repro.network.faults import LinkFaultModel
from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem
from repro.sim.trace import Tracer
from repro.telemetry import Telemetry
from tests.test_runtime_migration_abort import StubHealth


@pytest.fixture
def system():
    return DistributedSystem(
        nodes=4,
        seed=0,
        migration_duration=6.0,
        latency=DeterministicLatency(1.0),
        tracer=Tracer(),
    )


def migrate(system, objects, target):
    def proc(env):
        outcome = yield from system.migrations.migrate(objects, target)
        return outcome

    p = system.env.process(proc(system.env))
    system.env.run()
    return p.value


def root_cause(exc):
    """Unwrap nested ProcessError chains to the original exception."""
    while isinstance(exc, ProcessError) and exc.__cause__ is not None:
        exc = exc.__cause__
    return exc


class TestSingleObject:
    def test_transfer_takes_m(self, system):
        server = system.create_server(node=0)
        outcome = migrate(system, [server], 3)
        assert system.env.now == pytest.approx(6.0)
        assert outcome.elapsed == pytest.approx(6.0)
        assert outcome.transfer_time == pytest.approx(6.0)
        assert outcome.moved == [server]
        assert server.node_id == 3
        system.registry.check_consistency()

    def test_already_at_target_is_free(self, system):
        server = system.create_server(node=2)
        outcome = migrate(system, [server], 2)
        assert system.env.now == 0.0
        assert outcome.moved == []
        assert outcome.already_there == [server]

    def test_size_scales_duration(self, system):
        big = system.create_server(node=0, size=2.0)
        outcome = migrate(system, [big], 1)
        assert outcome.transfer_time == pytest.approx(12.0)

    def test_fixed_object_rejected(self, system):
        client = system.create_client(node=0)
        with pytest.raises(ProcessError) as exc_info:
            migrate(system, [client], 1)
        assert isinstance(root_cause(exc_info.value), ObjectFixedError)

    def test_unknown_target_node(self, system):
        server = system.create_server(node=0)
        with pytest.raises(ProcessError) as exc_info:
            migrate(system, [server], 42)
        assert isinstance(root_cause(exc_info.value), UnknownNodeError)

    def test_accounting(self, system):
        a = system.create_server(node=0)
        b = system.create_server(node=1)
        migrate(system, [a, b], 2)
        assert system.migrations.migration_count == 2
        assert system.migrations.total_transfer_time == pytest.approx(12.0)


class TestSetMigration:
    def test_parallel_transfer_elapsed_is_max(self, system):
        objs = [system.create_server(node=i) for i in range(3)]
        outcome = migrate(system, objs, 3)
        # All transfer concurrently: elapsed M, work 3*M.
        assert outcome.elapsed == pytest.approx(6.0)
        assert outcome.transfer_time == pytest.approx(18.0)
        assert outcome.moved_count == 3
        assert all(o.node_id == 3 for o in objs)

    def test_mixed_set_skips_residents(self, system):
        here = system.create_server(node=3)
        away = system.create_server(node=0)
        outcome = migrate(system, [here, away], 3)
        assert outcome.moved == [away]
        assert outcome.already_there == [here]


class TestConcurrentMigrations:
    def test_second_migration_waits_then_steals(self, system):
        server = system.create_server(node=0)

        def first(env):
            yield from system.migrations.migrate([server], 1)

        def second(env):
            yield env.timeout(2)
            outcome = yield from system.migrations.migrate([server], 2)
            return (env.now, outcome)

        system.env.process(first(system.env))
        p = system.env.process(second(system.env))
        system.env.run()
        end, outcome = p.value
        # Second waits for install at t=6, then transfers 6 more.
        assert end == pytest.approx(12.0)
        assert server.node_id == 2
        assert server.migration_count == 2
        system.registry.check_consistency()

    def test_waiter_that_finds_object_at_target_skips(self, system):
        server = system.create_server(node=0)

        def first(env):
            yield from system.migrations.migrate([server], 1)

        def second(env):
            yield env.timeout(2)
            outcome = yield from system.migrations.migrate([server], 1)
            return (env.now, outcome)

        system.env.process(first(system.env))
        p = system.env.process(second(system.env))
        system.env.run()
        end, outcome = p.value
        assert end == pytest.approx(6.0)  # waited, then nothing to do
        assert outcome.moved == []
        assert server.migration_count == 1

    def test_simultaneous_migrations_serialize(self, system):
        server = system.create_server(node=0)
        results = []

        def mover(env, target):
            outcome = yield from system.migrations.migrate([server], target)
            results.append((env.now, target, outcome.moved_count))

        system.env.process(mover(system.env, 1))
        system.env.process(mover(system.env, 2))
        system.env.run()
        assert results == [(6.0, 1, 1), (12.0, 2, 1)]
        assert server.node_id == 2

    def test_trace_records_start_and_done(self, system):
        server = system.create_server(node=0)
        migrate(system, [server], 1)
        assert system.tracer.count("migration.start") == 1
        assert system.tracer.count("migration.done") == 1


class TestZeroDuration:
    def test_m_zero_still_moves(self):
        system = DistributedSystem(
            nodes=2, migration_duration=0.0, latency=DeterministicLatency(1.0)
        )
        server = system.create_server(node=0)

        def proc(env):
            outcome = yield from system.migrations.migrate([server], 1)
            return outcome

        p = system.env.process(proc(system.env))
        system.env.run()
        assert p.value.moved == [server]
        assert server.node_id == 1
        assert p.value.transfer_time == 0.0


def overlapping_movers(system):
    """Two movers with overlapping sets, a third that re-parks behind
    the second, and one caller blocked on a shared member."""
    a = system.create_server(node=0, name="a")
    b = system.create_server(node=1, name="b")
    c = system.create_server(node=2, name="c", size=2.0)
    d = system.create_server(node=0, name="d")
    env = system.env
    log = []

    def mover(name, delay, objects, target):
        yield env.timeout(delay)
        outcome = yield from system.migrations.migrate(objects, target)
        log.append(
            (
                env.now,
                name,
                [o.name for o in outcome.moved],
                [o.name for o in outcome.already_there],
                outcome.elapsed,
                outcome.transfer_time,
            )
        )

    def caller():
        yield env.timeout(1.0)
        result = yield from system.invocations.invoke(1, b)
        log.append((env.now, "caller", result.blocked_time, b.node_id))

    env.process(mover("m1", 0.0, [a, b, c], 3))
    env.process(mover("m2", 2.0, [b, c, d], 0))
    env.process(mover("m3", 3.0, [b], 2))
    env.process(caller())
    system.run()
    return log


class TestSetTransferOrdering:
    """The kernel-visible order of a set transfer, recorded at the
    commit that still ran one process per closure member."""

    def test_overlapping_movers_trace_matches_recording(self, system):
        log = overlapping_movers(system)
        trace = [
            (r.time, r.kind, r.detail.get("object_id"))
            for r in system.tracer.records
        ]
        assert trace == RECORDED_TRACE
        assert log == RECORDED_LOG
        system.registry.check_consistency()

    def test_idle_set_costs_four_kernel_events(self, system):
        members = [system.create_server(node=i % 3) for i in range(12)]
        env = system.env

        def proc():
            before = env.scheduled_events
            yield from system.migrations.migrate(members, 3)
            return env.scheduled_events - before

        p = env.process(proc())
        system.run()
        # One start event, one shared timer, the last finisher's
        # completion event and the event the caller waits on (37 with a
        # process per member).
        assert p.value <= 4
        assert all(o.node_id == 3 for o in members)

    def test_active_transfers_tracks_outbound_leg_only(self):
        model = LinkFaultModel()
        model.fail_link(0, 2)
        system = DistributedSystem(
            nodes=3, seed=3, migration_duration=6.0, fault_model=model
        )
        doomed = system.create_server(node=0, name="doomed")
        fine = system.create_server(node=1, name="fine")
        home = system.create_server(node=2, name="home")
        env = system.env
        active = system.migrations.active_transfers
        samples = []

        def mover():
            yield from system.migrations.migrate([doomed, fine, home], 2)

        def sampler():
            for _ in range(5):
                samples.append(
                    (
                        env.now,
                        dict(active),
                        [o.name for o in (doomed, fine, home) if o.in_transit],
                    )
                )
                yield env.timeout(3.0)

        env.process(mover())
        env.process(sampler())
        system.run()
        assert samples == [
            # The sampler's first step runs before the transfers start.
            (0.0, {}, []),
            (3.0, {0: (0, 2), 1: (1, 2)}, ["doomed", "fine"]),
            # Arrival at t=6: `fine` installs, `doomed` turns back and
            # is in transit without being an active (outbound) transfer.
            (6.0, {}, ["doomed"]),
            (9.0, {}, ["doomed"]),
            (12.0, {}, []),
        ]

    def test_fixed_member_error_names_the_transfer(self, system):
        client = system.create_client(node=0, name="pinned")
        server = system.create_server(node=0, name="free")

        def proc():
            try:
                yield from system.migrations.migrate([server, client], 1)
            except ProcessError as exc:
                return exc
            return None

        p = system.env.process(proc())
        system.run()
        error = p.value
        assert type(error) is ProcessError
        assert str(error) == (
            "process 'transfer-pinned' failed: "
            "ObjectFixedError('pinned is fixed and cannot migrate')"
        )
        assert type(error.__cause__) is ObjectFixedError
        assert str(error.__cause__) == "pinned is fixed and cannot migrate"
        # The other member's transfer is not cancelled by the failure.
        assert server.node_id == 1 and not server.in_transit

    def test_span_tree_and_id_order_match_recording(self):
        telemetry = Telemetry()
        model = LinkFaultModel()
        model.fail_link(0, 2)
        system = DistributedSystem(
            nodes=4,
            seed=0,
            migration_duration=6.0,
            latency=DeterministicLatency(1.0),
            fault_model=model,
            telemetry=telemetry,
        )
        doomed = system.create_server(node=0, name="doomed")
        fine = system.create_server(node=1, name="fine")
        home = system.create_server(node=2, name="home")
        health = StubHealth()
        system.migrations.health = health
        env = system.env

        def mover(delay, objects, target):
            yield env.timeout(delay)
            yield from system.migrations.migrate(objects, target)

        def crash():
            yield env.timeout(14.0)
            health.down.add(3)

        env.process(mover(0.0, [doomed, fine, home], 2))
        # Parks behind the first mover, then runs into a target that
        # dies mid-transfer (rollback) and a dead target (fast abort).
        env.process(mover(1.0, [fine, doomed], 3))
        env.process(mover(15.0, [home], 3))
        env.process(crash())
        system.run()
        spans = [
            (
                s.span_id,
                s.parent_id,
                s.trace_id,
                s.name,
                s.node,
                s.start,
                s.end,
                s.status,
                s.tags.get("object"),
                s.tags.get("reason"),
            )
            for s in telemetry.spans
        ]
        assert spans == RECORDED_SPANS


#: ``(time, kind, object id)`` of every tracer record of
#: ``overlapping_movers``; the third mover and the caller both park on
#: ``b`` and wake in arrival order at t=6.
RECORDED_TRACE = [
    (0.0, "migration.start", 0),
    (0.0, "migration.start", 1),
    (0.0, "migration.start", 2),
    (6.0, "migration.done", 0),
    (6.0, "migration.done", 1),
    (6.0, "migration.start", 1),
    (7.0, "invocation.request", 1),
    (12.0, "migration.done", 2),
    (12.0, "migration.done", 1),
    (12.0, "migration.start", 2),
    (12.0, "migration.start", 1),
    (12.0, "object.transfer", None),
    (18.0, "migration.done", 1),
    (18.0, "object.transfer", None),
    (19.0, "invocation.reply", 1),
    (24.0, "migration.done", 2),
    (24.0, "object.transfer", None),
]
RECORDED_LOG = [
    (12.0, "m1", ["a", "b", "c"], [], 12.0, 24.0),
    (18.0, "m3", ["b"], [], 15.0, 6.0),
    (19.0, "caller", 16.0, 2),
    (24.0, "m2", ["b", "c"], ["d"], 22.0, 18.0),
]
#: (span id, parent id, trace id, name, node, start, end, status,
#: object, reason) in span-id order.
RECORDED_SPANS = [
    (1, None, 1, "migration", 2, 0.0, 12.0, "ok", None, None),
    (2, 1, 1, "transfer", 0, 0.0, 12.0, "error", "doomed", "transfer-lost"),
    (3, 1, 1, "transfer", 1, 0.0, 6.0, "ok", "fine", None),
    (4, None, 2, "migration", 3, 1.0, 24.0, "ok", None, None),
    (5, 2, 1, "rollback", 0, 6.0, 12.0, "ok", "doomed", "transfer-lost"),
    (6, 4, 2, "transfer", 2, 6.0, 12.0, "ok", "fine", None),
    (7, 4, 2, "transfer", 0, 12.0, 24.0, "error", "doomed", "node-down"),
    (8, None, 3, "migration", 3, 15.0, 15.0, "ok", None, None),
    (9, 8, 3, "transfer", 2, 15.0, 15.0, "error", "home", "node-down"),
    (10, 7, 2, "rollback", 0, 18.0, 24.0, "ok", "doomed", "node-down"),
]
