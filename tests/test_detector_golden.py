"""Golden bit-identity: the heartbeat detector must be free when idle.

Enabling failure detection on a fault-free run must not change a single
metric relative to the ground-truth oracle path.  The mechanism is the
named-RNG-stream discipline: heartbeats draw latency from their own
``failure.heartbeat.<id>`` streams, so the workload's draw sequence is
untouched.  Any perturbation — an extra draw, a reordered event that
matters, a spurious suspicion-triggered failover — shows up here as an
exact-equality failure.
"""

import pytest

from repro.availability import FaultToleranceParameters
from repro.workload.clientserver import run_cell

#: Metrics that must match bit-for-bit between oracle and heartbeat.
COMPARED_FIELDS = [
    "mean_call_duration",
    "throughput",
    "completed_blocks",
    "abandoned_blocks",
    "failed_calls",
    "retries",
    "timeouts",
    "migrations_aborted",
    "locks_expired",
    "locks_broken",
    "node_failures",
]


def run_pair(seed, **kw):
    base = dict(
        policy="placement",
        lease_duration=30.0,
        sim_time=1500.0,
        seed=seed,
    )
    base.update(kw)
    oracle = run_cell(
        FaultToleranceParameters(detection="oracle", **base)
    )
    heartbeat = run_cell(
        FaultToleranceParameters(detection="heartbeat", **base)
    )
    return oracle, heartbeat


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestFaultFreeBitIdentity:
    def test_metrics_identical_to_oracle(self, seed):
        oracle, heartbeat = run_pair(seed)
        for name in COMPARED_FIELDS:
            assert getattr(heartbeat, name) == getattr(oracle, name), name

    def test_detector_stays_silent(self, seed):
        _, heartbeat = run_pair(seed)
        assert heartbeat.suspicions == 0
        assert heartbeat.false_suspicions == 0
        assert heartbeat.failovers == 0
        # The detector was really there, just quiet.
        assert heartbeat.raw["detector"]["heartbeats_received"] > 0
        assert heartbeat.raw["detector"]["heartbeats_lost"] == 0


class TestOracleFieldsUnchanged:
    def test_oracle_reports_no_detector_activity(self):
        oracle, _ = run_pair(seed=0)
        assert oracle.suspicions == 0
        assert oracle.false_suspicions == 0
        assert oracle.failovers == 0
        assert oracle.raw["detector"] == {}

    def test_result_fields_are_a_superset_of_golden(self):
        # Guard the comparison list against metric renames.
        names = set(run_pair(seed=0)[0].metrics)
        assert set(COMPARED_FIELDS) <= names
