"""Replication in non-monolithic systems — the §5 outlook, implemented.

The paper ends by asking whether replication suffers the same
non-monolithic conflicts as migration.  This subpackage answers it with
the same methodology: a write-invalidate replication mechanism, a
continuum of policies (none / eager / threshold), and a read-write
workload whose read ratio is swept by
``repro-experiment replication --check``.
"""

from repro.replication.policies import (
    REPLICATION_POLICIES,
    EagerReplication,
    NoReplication,
    ReplicationPolicy,
    ThresholdReplication,
    make_replication_policy,
)
from repro.replication.service import OpResult, ReplicationService
from repro.replication.workload import (
    ReplicationParameters,
    ReplicationWorkload,
)

__all__ = [
    "EagerReplication",
    "NoReplication",
    "OpResult",
    "REPLICATION_POLICIES",
    "ReplicationParameters",
    "ReplicationPolicy",
    "ReplicationService",
    "ReplicationWorkload",
    "ThresholdReplication",
    "make_replication_policy",
]
