"""Unit tests for replication policies and the replication workload."""

import pytest

from repro.errors import ConfigurationError
from repro.network.latency import DeterministicLatency
from repro.replication.policies import (
    REPLICATION_POLICIES,
    EagerReplication,
    NoReplication,
    ThresholdReplication,
    make_replication_policy,
)
from repro.replication.service import ReplicationService
from repro.replication.workload import (
    ReplicationParameters,
    ReplicationWorkload,
)
from repro.runtime.system import DistributedSystem
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import run_cell

TINY = StoppingConfig(
    relative_precision=0.2,
    confidence=0.9,
    batch_size=50,
    warmup=50,
    min_batches=3,
    max_observations=3_000,
)


@pytest.fixture
def system():
    return DistributedSystem(nodes=4, seed=0, latency=DeterministicLatency(1.0))


@pytest.fixture
def service(system):
    return ReplicationService(system.env, system.network, copy_duration=6.0)


def run(system, fragment):
    def proc(env):
        result = yield from fragment
        return result

    p = system.env.process(proc(system.env))
    system.env.run()
    return p.value


class TestPolicies:
    def test_registry(self, service):
        assert set(REPLICATION_POLICIES) == {"none", "eager", "threshold"}
        for name in REPLICATION_POLICIES:
            assert make_replication_policy(name, service).name == name
        with pytest.raises(ValueError):
            make_replication_policy("quorum", service)

    def test_none_never_replicates(self, system, service):
        policy = NoReplication(service)
        obj = system.create_server(node=0)
        for _ in range(5):
            run(system, policy.read(2, obj))
        assert service.replica_count(obj) == 0

    def test_eager_replicates_on_first_remote_read(self, system, service):
        policy = EagerReplication(service)
        obj = system.create_server(node=0)
        result = run(system, policy.read(2, obj))
        assert service.has_copy(obj, 2)
        assert result.was_local  # served from the fresh replica

    def test_eager_does_not_replicate_locally(self, system, service):
        policy = EagerReplication(service)
        obj = system.create_server(node=0)
        run(system, policy.read(0, obj))
        assert service.replica_count(obj) == 0

    def test_threshold_requires_k_remote_reads(self, system, service):
        policy = ThresholdReplication(service, threshold=2, max_replicas=4)
        obj = system.create_server(node=0)
        run(system, policy.read(2, obj))  # remote #1
        assert service.replica_count(obj) == 0
        run(system, policy.read(2, obj))  # remote #2 -> earned
        run(system, policy.read(2, obj))  # replicates, then local
        assert service.has_copy(obj, 2)

    def test_threshold_cap(self, system, service):
        policy = ThresholdReplication(service, threshold=1, max_replicas=1)
        obj = system.create_server(node=0)
        for node in (1, 2):
            run(system, policy.read(node, obj))
            run(system, policy.read(node, obj))
        assert service.replica_count(obj) == 1

    def test_write_resets_threshold_claims(self, system, service):
        policy = ThresholdReplication(service, threshold=2, max_replicas=4)
        obj = system.create_server(node=0)
        run(system, policy.read(2, obj))
        run(system, policy.read(2, obj))
        run(system, policy.write(0, obj))  # resets claims
        run(system, policy.read(2, obj))  # remote again, count 1 < 2
        assert not service.has_copy(obj, 2)

    def test_threshold_validation(self, service):
        with pytest.raises(ValueError):
            ThresholdReplication(service, threshold=0)
        with pytest.raises(ValueError):
            ThresholdReplication(service, max_replicas=-1)


class TestWorkload:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicationParameters(read_ratio=1.5).validate()
        with pytest.raises(ConfigurationError):
            ReplicationParameters(clients=0).validate()
        ReplicationParameters().validate()

    def test_cell_runs_and_reports(self):
        result = run_cell(
            ReplicationParameters(policy="eager", read_ratio=0.9, seed=1),
            stopping=TINY,
        )
        assert result.mean_op_time > 0
        assert result.raw["operations"] > 0
        assert result.raw["service"]["replications"] > 0

    def test_reproducible(self):
        params = ReplicationParameters(policy="threshold", seed=5)
        a = run_cell(params, stopping=TINY)
        b = run_cell(params, stopping=TINY)
        assert a.mean_op_time == b.mean_op_time

    def test_outlook_shape_read_heavy(self):
        """Eager replication beats no-replication when reads dominate."""
        eager = run_cell(
            ReplicationParameters(policy="eager", read_ratio=0.99, seed=2),
            stopping=TINY,
        )
        none = run_cell(
            ReplicationParameters(policy="none", read_ratio=0.99, seed=2),
            stopping=TINY,
        )
        assert eager.mean_op_time < none.mean_op_time

    def test_outlook_shape_write_heavy(self):
        """The §5 hazard: eager replication LOSES to no replication
        under write-heavy sharing (invalidation thrash)."""
        eager = run_cell(
            ReplicationParameters(policy="eager", read_ratio=0.5, seed=2),
            stopping=TINY,
        )
        none = run_cell(
            ReplicationParameters(policy="none", read_ratio=0.5, seed=2),
            stopping=TINY,
        )
        assert eager.mean_op_time > none.mean_op_time
