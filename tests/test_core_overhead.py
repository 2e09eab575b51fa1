"""Unit tests for the dynamic policies' overhead accounting (§3.3)."""

import pytest

from repro.core.moveblock import MoveBlock
from repro.core.policies.comparing import ComparingNodes
from repro.core.policies.reinstantiation import ComparingReinstantiation
from repro.experiments.figures import FIG14_BASE
from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem
from repro.workload.clientserver import ClientServerWorkload


@pytest.fixture
def system():
    return DistributedSystem(
        nodes=4,
        seed=0,
        migration_duration=6.0,
        latency=DeterministicLatency(1.0),
    )


def do(system, fragment):
    def proc(env):
        result = yield from fragment
        return result

    p = system.env.process(proc(system.env))
    system.env.run()
    return p.value


class TestValidation:
    def test_negative_record_time_rejected(self, system):
        with pytest.raises(ValueError):
            ComparingNodes(system, record_transfer_time=-1.0)


class TestEndForwarding:
    def test_free_mode_end_sends_nothing(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        block = MoveBlock(0, server)
        do(system, policy.move(block))
        before = system.network.remote_messages
        do(system, policy.end(block))
        assert system.network.remote_messages == before
        assert policy.overhead_messages == 0

    def test_charged_mode_remote_end_costs_one_message(self, system):
        policy = ComparingNodes(system, charge_overhead=True)
        server = system.create_server(node=2)
        # A rejected-at-distance block: object stays at node 2, the
        # requester at node 0 must forward its end-request.
        winner = MoveBlock(2, server)
        do(system, policy.move(winner))  # local grant, stays at 2
        loser = MoveBlock(0, server)
        do(system, policy.move(loser))
        before = system.network.remote_messages
        cost_before = loser.migration_cost
        do(system, policy.end(loser))
        assert system.network.remote_messages == before + 1
        assert policy.overhead_messages == 1
        assert loser.migration_cost == pytest.approx(cost_before + 1.0)

    def test_charged_mode_local_end_is_free(self, system):
        policy = ComparingNodes(system, charge_overhead=True)
        server = system.create_server(node=2)
        block = MoveBlock(0, server)
        do(system, policy.move(block))  # granted: object now at node 0
        before = system.network.remote_messages
        do(system, policy.end(block))
        assert system.network.remote_messages == before
        assert policy.overhead_messages == 0


class TestRecordPayload:
    def test_migration_carries_records(self, system):
        policy = ComparingNodes(
            system, charge_overhead=True, record_transfer_time=0.5
        )
        server = system.create_server(node=2)
        # Two open (rejected) requests pile up records at node 1.
        w = MoveBlock(2, server)
        do(system, policy.move(w))
        do(system, policy.move(MoveBlock(1, server)))
        do(system, policy.move(MoveBlock(1, server)))
        do(system, policy.end(w))
        # Node 1 now has the plurality: the next request registers
        # itself (3 open records total) and migrates with the records'
        # payload: M + 3*0.5 = 7.5 transfer time.
        granted = MoveBlock(1, server)
        do(system, policy.move(granted))
        assert granted.granted
        # request message (1) + transfer (7.5).
        assert granted.migration_cost == pytest.approx(8.5)

    def test_free_mode_payload_zero(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        do(system, policy.move(MoveBlock(1, server)))
        assert policy._record_payload(server) == 0.0


class TestReinstantiationOverhead:
    def test_charged_end_migration_includes_payload(self, system):
        policy = ComparingReinstantiation(
            system,
            majority_margin=2,
            charge_overhead=True,
            record_transfer_time=0.5,
        )
        server = system.create_server(node=2)
        winner = MoveBlock(0, server)
        do(system, policy.move(winner))
        for _ in range(2):
            do(system, policy.move(MoveBlock(1, server)))
        do(system, policy.end(winner))
        system.env.run()
        # Reinstantiated towards node 1 with 2 open records (the
        # winner's was deregistered): M + 2*0.5 = 7 transfer.
        assert server.node_id == 1
        assert policy.system_migration_cost == pytest.approx(7.0)

    def test_inherits_overhead_flags(self, system):
        policy = ComparingReinstantiation(
            system, charge_overhead=True, record_transfer_time=0.125
        )
        assert policy.charge_overhead
        assert policy.record_transfer_time == 0.125


def test_charged_overhead_erases_dynamic_policy_gains(bench_stopping):
    """§4.3: "the improvement would be even smaller in real
    applications".  Charging §3.3's two costs on Fig 14's cells turns
    the dynamic policies' minor gains into losses against conservative
    placement at high concurrency (C = 25), where the overhead scales
    with the number of concurrent users; at low concurrency the effect
    is within seed noise.
    """
    stop = bench_stopping(20_000)

    def run(policy, overhead=False):
        workload = ClientServerWorkload(
            FIG14_BASE.with_overrides(policy=policy, clients=25, seed=0),
            stopping=stop,
        )
        if policy != "placement":
            workload.policy.charge_overhead = overhead
        return workload.run().mean_communication_time_per_call

    placement = run("placement")
    for policy in ("comparing", "reinstantiation"):
        charged = run(policy, overhead=True)
        assert charged > 1.05 * run(policy)
        assert charged > placement
