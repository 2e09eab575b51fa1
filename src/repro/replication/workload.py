"""Read/write workload over a shared replicated object population.

Mirrors the migration study's structure: C autonomous clients on D
nodes share S objects; each client loops issuing operations with a
configurable read ratio.  The metric is the mean operation time —
reads, writes, and the amortized replica-copy time all included, so
replication thrash is visible exactly the way migration thrash is in
the main study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.replication.policies import make_replication_policy
from repro.replication.service import ReplicationService
from repro.sim.stats import RunningStats
from repro.workload.clientserver import CellWorkload


@dataclass(frozen=True)
class ReplicationParameters:
    """Configuration of one replication-study cell."""

    nodes: int = 12
    clients: int = 8
    objects: int = 3
    #: Probability an operation is a read.
    read_ratio: float = 0.9
    #: Mean gap between a client's operations (exponential).
    mean_interop_time: float = 3.0
    #: Copy (replication) duration for a size-1 object.
    copy_duration: float = 6.0
    policy: str = "threshold"
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.objects < 1:
            raise ConfigurationError("need at least one object")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigurationError("read_ratio must be in [0, 1]")
        if self.mean_interop_time < 0:
            raise ConfigurationError("mean_interop_time must be >= 0")
        if self.copy_duration < 0:
            raise ConfigurationError("copy_duration must be >= 0")

    @property
    def workload(self) -> type:
        """The workload class that simulates this cell."""
        return ReplicationWorkload


class ReplicationWorkload(CellWorkload):
    """Builds and runs one replication-study cell."""

    MAX_TIME = 2_000_000.0

    def __init__(self, params: ReplicationParameters, **kwargs):
        super().__init__(params, **kwargs)
        self.service = ReplicationService(
            self.system.env,
            self.system.network,
            copy_duration=params.copy_duration,
        )
        self.policy = make_replication_policy(params.policy, self.service)
        self.objects = [
            self.system.create_server(node=i % params.nodes, name=f"obj-{i}")
            for i in range(params.objects)
        ]
        self.op_times = RunningStats()

    def client_process(self, index: int):
        """One autonomous component's endless read/write loop."""
        node = index % self.params.nodes
        stream = self.system.streams.stream(f"repl.client.{index}")
        while True:
            gap = stream.exponential(self.params.mean_interop_time)
            if gap > 0:
                yield self.system.env.timeout(gap)
            obj = stream.choice(self.objects)
            start = self.system.env.now
            if stream.uniform() < self.params.read_ratio:
                yield from self.policy.read(node, obj)
            else:
                yield from self.policy.write(node, obj)
            elapsed = self.system.env.now - start
            self.op_times.add(elapsed)
            self.stopping.add(elapsed)

    def measure(self) -> Tuple[Dict[str, float], Dict]:
        """Mean operation, read and write time, and copy time per op.

        Replication happens inside reads, so the copy time is already
        in the operation times; it is reported separately too.
        """
        stats = self.service.stats()
        metrics = {
            "mean_op_time": self.op_times.mean if self.op_times.count else 0.0,
            "mean_read_time": stats["mean_read"],
            "mean_write_time": stats["mean_write"],
            "copy_time_per_op": (
                self.service.total_copy_time / max(1, self.op_times.count)
            ),
        }
        return metrics, {
            "service": stats,
            "operations": self.op_times.count,
            "stopping": self.stopping.summary(),
        }
