"""Bit-identical determinism guards for the fast-path kernel.

The golden metric tuples below were produced by the heap-only kernel on
the pre-fast-path main branch.  The fast-path kernel (URGENT deque,
pooled ``env.sleep``, inlined run loop) must reproduce them *exactly*
— equality is ``==`` on floats, not ``approx`` — and results must not
depend on whether the cell cache or the process pool is in the loop.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.availability.faulttolerance import FaultToleranceParameters
from repro.core.attachment import AttachmentManager, AttachmentMode
from repro.errors import TimeoutError
from repro.experiments.cache import CellCache
from repro.experiments.executor import ParallelExecutor
from repro.experiments.figures import FIG16_BASE
from repro.experiments.persistence import params_to_dict
from repro.network.faults import LinkFaultModel
from repro.replication.workload import ReplicationParameters
from repro.runtime.system import DistributedSystem
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import Tracer
from repro.workload.clientserver import run_cell
from repro.workload.params import SimulationParameters
from tests.test_runtime_migration_abort import StubHealth

#: (policy, clients, seed) -> (mean_communication_time_per_call,
#: mean_call_duration, mean_migration_time_per_call, simulated_time)
#: under StoppingConfig.fast(), recorded on the heap-only kernel.
GOLDEN_CELLS = {
    ("placement", 5, 3): (
        0.8292332162257126,
        0.4038685880806477,
        0.4253646281450649,
        24000.0,
    ),
    ("sedentary", 5, 3): (
        1.3569436330042595,
        1.3569436330042595,
        0.0,
        16000.0,
    ),
}

#: SHA-256 of ``_fingerprint`` under StoppingConfig.fast(), recorded at
#: the commit before the per-call fast path (block-prefetched draws,
#: merged attempt loop, trimmed transmit) for the shapes it serves and
#: GOLDEN_CELLS does not: set migration with attachments, the two
#: locators that charge for a lookup.
GOLDEN_FINGERPRINTS = {
    "layered-unrestricted-migration": (
        FIG16_BASE.with_overrides(
            clients=12,
            policy="migration",
            attachment_mode=AttachmentMode.UNRESTRICTED,
            seed=5,
        ),
        "282381f681cc934b9eaef32e18c2dded8da85d53356e727eccfda77b204ba8a9",
    ),
    "nameserver-locator": (
        SimulationParameters(
            policy="migration", clients=5, seed=3, locator="nameserver"
        ),
        "5d7ffb4ee4b06dcb91a6dba6d20d933967cc4c922c126b73bc9e6397fa3e6c33",
    ),
    "forwarding-locator": (
        SimulationParameters(
            policy="migration", clients=5, seed=3, locator="forwarding"
        ),
        "8bd59385910ec98a4825674fd1799d95dde7da2921b660f8049f5ea09b5b4184",
    ),
}

#: Same, over ``_record_fingerprint``: a lossy-link cell whose calls time
#: out and retry, and a replication cell whose client streams mix
#: exponential, choice and uniform draws.
GOLDEN_FT_LOSSY = (
    "e3a789fd5662738538db26491ea8a8f805cd58af6cf4774504299e26109f44e1"
)
GOLDEN_REPLICATION = (
    "a4c6062ee3c078ebae766a7b85078671abe0e01e758e368b0a2297b36db0a0c6"
)

#: SHA-256 over ``_set_migration_under_faults``, recorded at the commit
#: that still ran one kernel process per closure member.
GOLDEN_SET_MIGRATION_FAULTS = (
    "f8883d0f346a28efd564c57635cfd4cfc606882f7f0689caac13a8ca1b92f7d3"
)

#: Loose-but-quick stopping rule for the multi-cell determinism tests.
TINY = StoppingConfig(
    relative_precision=0.3,
    confidence=0.9,
    batch_size=40,
    warmup=40,
    min_batches=2,
    max_observations=1_200,
)


def _metrics(result):
    return (
        result.mean_communication_time_per_call,
        result.mean_call_duration,
        result.mean_migration_time_per_call,
        result.simulated_time,
    )


def _fingerprint(result):
    """Canonical serialization — catches drift in *any* field."""
    document = {
        "params": params_to_dict(result.params),
        "mean_communication_time_per_call": (
            result.mean_communication_time_per_call
        ),
        "mean_call_duration": result.mean_call_duration,
        "mean_migration_time_per_call": result.mean_migration_time_per_call,
        "simulated_time": result.simulated_time,
        "raw": result.raw,
    }
    return json.dumps(document, sort_keys=True)


def _record_fingerprint(result):
    """``_fingerprint`` for the studies with their own named metrics: the
    document their result dataclasses serialized to, one key per
    metric beside ``params`` and ``raw``."""
    document = {
        "params": dataclasses.asdict(result.params),
        **result.metrics,
        "raw": result.raw,
    }
    return json.dumps(document, sort_keys=True, default=repr)


def _set_migration_under_faults():
    """Movers dragging a five-member closure between four nodes over
    lossy links while node 3 flaps, with callers blocking on members:
    every record the tracer saw plus every outcome, as one document."""
    tracer = Tracer()
    system = DistributedSystem(
        nodes=4,
        seed=11,
        fault_model=LinkFaultModel(loss_probability=0.25),
        tracer=tracer,
    )
    env = system.env
    health = StubHealth()
    system.migrations.health = health
    servers = [
        system.create_server(node=i % 3, name=f"s{i}", size=1.0 + (i == 2))
        for i in range(5)
    ]
    attachments = AttachmentManager(AttachmentMode.UNRESTRICTED)
    for left, right in zip(servers, servers[1:]):
        attachments.attach(left, right)
    log = []

    def flapper():
        # Down for 9 of every 30 time units: longer than one transfer,
        # so some members leave for a live target and arrive at a dead
        # one (rollback) and later sets are refused outright.
        while True:
            yield env.timeout(21.0)
            health.down.add(3)
            yield env.timeout(9.0)
            health.down.discard(3)

    def mover(index, think):
        stream = system.streams.stream(f"golden.mover.{index}")
        while True:
            yield env.timeout(stream.exponential(think))
            members = attachments.closure(servers[index])
            target = (index + int(env.now)) % 4
            outcome = yield from system.migrations.migrate(members, target)
            log.append(
                (
                    env.now,
                    index,
                    target,
                    [o.name for o in outcome.moved],
                    [o.name for o in outcome.already_there],
                    [o.name for o in outcome.aborted],
                    outcome.elapsed,
                    outcome.transfer_time,
                    outcome.wasted_transfer_time,
                )
            )

    def caller(node):
        stream = system.streams.stream(f"golden.caller.{node}")
        while True:
            yield env.timeout(stream.exponential(3.0))
            callee = servers[int(env.now) % 5]
            try:
                result = yield from system.invocations.invoke(node, callee)
            except TimeoutError as exc:
                log.append((env.now, "timeout", node, str(exc)))
            else:
                log.append(
                    (env.now, "call", node, result.duration, result.blocked_time)
                )

    env.process(flapper())
    for index, think in ((0, 5.0), (2, 8.0), (4, 13.0)):
        env.process(mover(index, think))
    for node in range(3):
        env.process(caller(node))
    system.run(until=400.0)
    migrations = system.migrations
    assert migrations.migration_count > 50
    assert migrations.migrations_aborted > 10
    reasons = {
        r.detail["reason"] for r in tracer.records if r.kind == "migration.abort"
    }
    assert reasons == {"transfer-lost", "node-down"}
    document = {
        "trace": [(r.time, r.kind, r.detail) for r in tracer.records],
        "log": log,
        "placement": [(o.name, o.node_id, o.migration_count) for o in servers],
        "counters": [
            migrations.migration_count,
            migrations.total_transfer_time,
            migrations.migrations_aborted,
            migrations.wasted_transfer_time,
            env.now,
        ],
    }
    return json.dumps(document, sort_keys=True)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenMetrics:
    def test_seeded_cells_bit_identical_to_pre_fastpath_kernel(self):
        for (policy, clients, seed), expected in GOLDEN_CELLS.items():
            params = SimulationParameters(
                policy=policy, clients=clients, seed=seed
            )
            result = run_cell(params, stopping=StoppingConfig.fast())
            assert _metrics(result) == expected, (policy, clients, seed)

    @pytest.mark.parametrize("shape", sorted(GOLDEN_FINGERPRINTS))
    def test_fingerprint_bit_identical_to_pre_fastpath_layers(self, shape):
        params, expected = GOLDEN_FINGERPRINTS[shape]
        result = run_cell(params, stopping=StoppingConfig.fast())
        assert _sha(_fingerprint(result)) == expected

    def test_lossy_link_retry_cell_bit_identical(self):
        result = run_cell(
            FaultToleranceParameters(
                policy="placement", loss=0.1, sim_time=1500.0, seed=4
            )
        )
        assert result.timeouts > 0 and result.retries > 0
        assert _sha(_record_fingerprint(result)) == GOLDEN_FT_LOSSY

    def test_mixed_draw_stream_cell_bit_identical(self):
        result = run_cell(
            ReplicationParameters(seed=2), stopping=StoppingConfig.fast()
        )
        assert _sha(_record_fingerprint(result)) == GOLDEN_REPLICATION

    def test_set_migration_under_faults_bit_identical(self):
        assert (
            _sha(_set_migration_under_faults()) == GOLDEN_SET_MIGRATION_FAULTS
        )

    def test_repeated_runs_identical(self):
        params = SimulationParameters(policy="placement", clients=5, seed=3)
        a = run_cell(params, stopping=StoppingConfig.fast())
        b = run_cell(params, stopping=StoppingConfig.fast())
        assert _fingerprint(a) == _fingerprint(b)


class TestCacheDeterminism:
    def test_warm_cache_runs_zero_simulations_and_matches_cold(
        self, tmp_path
    ):
        jobs = [
            (
                SimulationParameters(policy=policy, clients=5, seed=seed),
                TINY,
            )
            for policy in ("placement", "sedentary")
            for seed in (1, 2)
        ]

        cold = ParallelExecutor(workers=1, cache=CellCache(root=tmp_path))
        cold_results = cold.run_cells(jobs)
        assert cold.cache_misses == len(jobs)
        assert cold.cells_executed == len(jobs)

        warm = ParallelExecutor(workers=1, cache=CellCache(root=tmp_path))
        warm_results = warm.run_cells(jobs)
        assert warm.cells_executed == 0
        assert warm.cache_hits == len(jobs)
        assert warm.cache_misses == 0

        uncached = ParallelExecutor(workers=1).run_cells(jobs)

        for cold_r, warm_r, plain_r in zip(
            cold_results, warm_results, uncached
        ):
            assert _fingerprint(cold_r) == _fingerprint(warm_r)
            assert _fingerprint(cold_r) == _fingerprint(plain_r)


class TestWorkerDeterminism:
    def test_workers_1_vs_4_identical(self):
        jobs = [
            (
                SimulationParameters(policy=policy, clients=3, seed=seed),
                TINY,
            )
            for policy in ("placement", "sedentary")
            for seed in (0, 1)
        ]
        serial = ParallelExecutor(workers=1).run_cells(jobs)
        pooled = ParallelExecutor(workers=4).run_cells(jobs)
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in pooled
        ]
