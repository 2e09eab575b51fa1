"""Fault-tolerance study: migration policies on a failure-prone system.

The paper compares no-migration, conventional migration and the §3.2
place-policy on a *perfectly reliable* system.  This workload re-runs
that comparison under the fault layer:

* messages are lost with probability ``loss``
  (:class:`~repro.network.faults.LinkFaultModel` + the invocation
  :class:`~repro.runtime.retry.RetryPolicy`);
* nodes crash and recover (Exp(``mttf``)/Exp(``mttr``),
  :class:`~repro.availability.faults.FaultInjector`), which also makes
  migrations towards dead nodes abort and roll back;
* a client whose node crashes mid-move-block *abandons* the block —
  it never issues ``end``, so under the plain place-policy its locks
  are held forever and every later mover is starved into permanent
  remote invocation.  With ``lease_duration`` set, the lock manager
  grants expiring leases and a :class:`~repro.core.locking.LeaseSweeper`
  reclaims locks of crashed holders, restoring the place-policy's
  benefit (the graceful-degradation story of §3.2 extended to crashes).

The measured metric is the paper's §4.2.1 "mean duration of one call":
per-call durations with each block's migration cost distributed evenly
over its calls.  Throughput is completed calls per unit of simulated
time.  All parameters default to the paper's Table 1 values where one
exists (M = 6, N = 6 calls per block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.availability.faults import FaultInjector
from repro.core.locking import LeaseSweeper, LockManager
from repro.core.moveblock import MoveBlock
from repro.core.policies.conventional import ConventionalMigration
from repro.core.policies.placement import TransientPlacement
from repro.core.policies.sedentary import SedentaryPolicy
from repro.errors import (
    ConfigurationError,
    MessageLostError,
    NodeDownError,
    TimeoutError,
)
from repro.network.faults import LinkFaultModel
from repro.runtime.failure import FailureDetector
from repro.runtime.retry import RetryPolicy
from repro.runtime.system import DistributedSystem
from repro.sim.stats import RunningStats
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import NULL_TRACER, Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.workload.clientserver import CellWorkload, WorkloadResult

#: Policies the study compares (registry names as in the paper study).
FT_POLICIES = ("sedentary", "migration", "placement")

#: How crashed lock holders are detected: the ground-truth oracle of
#: PR 1, or the heartbeat failure detector (suspicion can be wrong).
FT_DETECTION_MODES = ("oracle", "heartbeat")


@dataclass(frozen=True)
class FaultToleranceParameters:
    """Configuration of one fault-tolerance cell."""

    nodes: int = 8
    clients: int = 6
    servers: int = 3
    #: "sedentary" (no migration), "migration" (conventional) or
    #: "placement" (§3.2 place-policy).
    policy: str = "placement"
    #: Lease length for place-policy locks; None = plain §3.2 locks
    #: that a crashed holder keeps forever.
    lease_duration: Optional[float] = None
    #: Period of the lease sweeper (only with leases enabled).
    sweep_interval: float = 10.0
    #: Message loss probability on every remote link.
    loss: float = 0.0
    #: Mean node up-time; 0 disables crashes entirely.
    mttf: float = 0.0
    #: Mean node repair time.
    mttr: float = 50.0
    #: Build the fault injector even with ``mttf == 0`` so scripted
    #: (chaos-campaign) crashes can be injected.
    scripted_faults: bool = False
    #: "oracle" = ground-truth health provider (PR 1 behaviour);
    #: "heartbeat" = heartbeat failure detector with possible false
    #: suspicion drives lock breaking, failover and chain repair.
    detection: str = "oracle"
    #: Heartbeat period (heartbeat detection only).
    heartbeat_interval: float = 1.0
    #: Silence threshold before a node is suspected (timeout mode).
    heartbeat_timeout: float = 15.0
    #: When set, the detector runs in phi-accrual mode instead.
    phi_threshold: Optional[float] = None
    #: Mean gap between a client's move-blocks.
    mean_think_time: float = 4.0
    #: Mean calls per move-block (the paper's N).
    mean_block_calls: float = 6.0
    #: Transfer time of one object (the paper's M).
    migration_duration: float = 6.0
    #: Invocation timeout/retry policy.
    retry: RetryPolicy = RetryPolicy()
    #: Fixed simulation horizon (no stopping rule: degraded cells must
    #: not terminate early just because they produce few observations).
    sim_time: float = 5_000.0
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.nodes < 2:
            raise ConfigurationError("need at least two nodes")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.servers < 1:
            raise ConfigurationError("need at least one server")
        if self.policy not in FT_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {FT_POLICIES}, got {self.policy!r}"
            )
        if self.lease_duration is not None and self.lease_duration <= 0:
            raise ConfigurationError("lease_duration must be positive")
        if self.lease_duration is not None and self.policy != "placement":
            raise ConfigurationError(
                "lease_duration only applies to the placement policy"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError("loss must be in [0, 1)")
        if self.mttf < 0 or self.mttr <= 0:
            raise ConfigurationError(
                "mttf must be >= 0 (0 = no crashes) and mttr positive"
            )
        if self.detection not in FT_DETECTION_MODES:
            raise ConfigurationError(
                f"detection must be one of {FT_DETECTION_MODES}, "
                f"got {self.detection!r}"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ConfigurationError(
                "heartbeat_interval and heartbeat_timeout must be positive"
            )
        if self.phi_threshold is not None and self.phi_threshold <= 0:
            raise ConfigurationError("phi_threshold must be positive")
        if self.mean_think_time < 0:
            raise ConfigurationError("mean_think_time must be >= 0")
        if self.mean_block_calls <= 0:
            raise ConfigurationError("mean_block_calls must be positive")
        if self.sim_time <= 0:
            raise ConfigurationError("sim_time must be positive")

    @property
    def workload(self) -> type:
        """The workload class that simulates this cell."""
        return FaultToleranceWorkload


class FaultToleranceWorkload(CellWorkload):
    """Builds and runs one fault-tolerance cell.

    ``telemetry`` (default NULL) threads a
    :class:`~repro.telemetry.core.Telemetry` sink through the whole
    stack — network, invocations, migrations, locks — and starts the
    kernel sampler alongside the clients.  The cell runs a fixed
    horizon, so ``stopping`` is accepted for :func:`run_cell` and
    unused: a degraded cell must not end early just because it
    produces few observations.
    """

    def __init__(
        self,
        params: FaultToleranceParameters,
        tracer: Tracer = NULL_TRACER,
        telemetry: Telemetry = NULL_TELEMETRY,
        stopping: Optional[StoppingConfig] = None,
    ):
        self.telemetry = telemetry
        super().__init__(params, tracer=tracer)
        # Servers round-robin from the far end of the node range so most
        # clients (which sit at the low end) start remote from them.
        self.servers = [
            self.system.create_server(
                node=(params.nodes - 1 - i) % params.nodes, name=f"server-{i}"
            )
            for i in range(params.servers)
        ]
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.system, mttf=params.mttf, mttr=params.mttr)
            if params.mttf > 0 or params.scripted_faults
            else None
        )
        # With heartbeat detection, lock breaking / failover run on
        # *suspicion*: the detector replaces the ground-truth oracle
        # everywhere a decision (rather than physics) is made.
        self.detector: Optional[FailureDetector] = None
        health = self.faults
        if params.detection == "heartbeat":
            self.detector = FailureDetector(
                self.system,
                faults=self.faults,
                interval=params.heartbeat_interval,
                timeout=params.heartbeat_timeout,
                phi_threshold=params.phi_threshold,
            )
            self.system.invocations.failure_detector = self.detector
            health = self.detector
        self.locks: Optional[LockManager] = None
        self.sweeper: Optional[LeaseSweeper] = None
        if params.policy == "placement":
            self.locks = LockManager(
                env=self.system.env,
                lease_duration=params.lease_duration,
                telemetry=telemetry,
            )
            self.policy = TransientPlacement(self.system, locks=self.locks)
            if params.lease_duration is not None:
                self.sweeper = LeaseSweeper(
                    self.system.env,
                    self.locks,
                    health=health,
                    interval=params.sweep_interval,
                )
        elif params.policy == "migration":
            self.policy = ConventionalMigration(self.system)
        else:
            self.policy = SedentaryPolicy(self.system)
        self.call_durations = RunningStats()
        self.completed_blocks = 0
        self.abandoned_blocks = 0
        self.failed_calls = 0
        self.failed_over_calls = 0
        self.lost_move_requests = 0

    def _build_system(self, params, tracer) -> DistributedSystem:
        fault_model = (
            LinkFaultModel(loss_probability=params.loss)
            if params.loss > 0
            else None
        )
        return DistributedSystem(
            nodes=params.nodes,
            seed=params.seed,
            migration_duration=params.migration_duration,
            fault_model=fault_model,
            retry=params.retry,
            tracer=tracer,
            telemetry=self.telemetry,
        )

    # -- helpers --------------------------------------------------------------

    def _crashed(self, node: int) -> bool:
        return self.faults is not None and self.faults.is_down(node)

    def _invoke(self, node: int, server) -> Generator:
        """Issue one call; returns the caller-observed duration.

        Time spent blocked on a crashed node counts into the duration —
        that is precisely how unavailability shows up as latency.
        """
        if self.faults is not None:
            result, blocked = yield from self.faults.invoke(node, server)
            return result.duration + blocked
        result = yield from self.system.invocations.invoke(node, server)
        return result.duration

    def _finish_block(self, block: MoveBlock) -> None:
        for observation in block.per_call_observations():
            self.call_durations.add(observation)

    # -- the client -----------------------------------------------------------

    def client_process(self, index: int) -> Generator:
        """One client's endless move-block loop under faults."""
        params = self.params
        node = index % params.nodes
        stream = self.system.streams.stream(f"ft.client.{index}")
        env = self.system.env
        while True:
            gap = stream.exponential(params.mean_think_time)
            if gap > 0:
                yield env.timeout(gap)
            if self._crashed(node):
                # The client's own node is down: it does nothing until
                # recovery (crash-recover with stable state).
                yield from self.faults.wait_until_up(node)
            server = stream.choice(self.servers)
            block = MoveBlock(node, server)
            try:
                yield from self.policy.move(block)
            except MessageLostError:
                # The move request itself was lost.  Moves are
                # best-effort advice, not calls: the client just works
                # remotely, exactly like a §3.2 rejected mover.
                self.lost_move_requests += 1
            abandoned = self._crashed(node)
            if not abandoned:
                calls = stream.geometric_at_least_one(params.mean_block_calls)
                for _ in range(calls):
                    if self._crashed(node):
                        # Crash mid-block: the block is abandoned and
                        # ``end`` is never issued — under the plain
                        # place-policy its locks leak forever.
                        abandoned = True
                        break
                    try:
                        duration = yield from self._invoke(node, server)
                    except NodeDownError:
                        # The callee is *suspected* crashed (heartbeat
                        # detection): fail over to another server for
                        # the rest of the block instead of retrying
                        # into the void.
                        self.failed_over_calls += 1
                        others = [s for s in self.servers if s is not server]
                        if others:
                            server = stream.choice(others)
                        continue
                    except TimeoutError:
                        self.failed_calls += 1
                        continue
                    block.record_call(duration)
            if abandoned:
                self.abandoned_blocks += 1
            else:
                yield from self.policy.end(block)
                self.completed_blocks += 1
            # Calls that did complete count either way (their durations
            # were really observed), with the block's migration cost
            # amortized over them per §4.2.1.
            self._finish_block(block)

    # -- lifecycle ------------------------------------------------------------

    def _start_services(self) -> None:
        if self.telemetry.enabled:
            # Safe here: the workload always runs to a fixed horizon,
            # so the self-rescheduling sampler cannot keep it alive.
            self.telemetry.start_kernel_sampler(self.system.env)
        if self.faults is not None:
            self.faults.start()
        if self.detector is not None:
            self.detector.start()
        if self.sweeper is not None:
            self.sweeper.start()

    def measure(self) -> Tuple[Dict[str, float], Dict]:
        """The §4.2.1 call duration, throughput and the fault counters.

        :meth:`collect_result` may be called at any time, so harnesses
        that drive the clock themselves (chaos campaigns interleaving
        scripted faults and invariant checks) get the same result.
        """
        invocations = self.system.invocations
        migrations = self.system.migrations
        detector = self.detector
        metrics = {
            # §4.2.1 metric: per-call duration with amortized migration.
            "mean_call_duration": (
                self.call_durations.mean if self.call_durations.count else 0.0
            ),
            # Completed calls per unit of simulated time.
            "throughput": self.call_durations.count / self.params.sim_time,
            "completed_blocks": self.completed_blocks,
            "abandoned_blocks": self.abandoned_blocks,
            # Calls that exhausted their retry budget.
            "failed_calls": self.failed_calls,
            "retries": invocations.retries,
            "timeouts": invocations.timeouts,
            "migrations_aborted": migrations.migrations_aborted,
            "locks_expired": self.locks.leases_expired if self.locks else 0,
            "locks_broken": self.locks.leases_broken if self.locks else 0,
            "node_failures": self.faults.failures if self.faults else 0,
            # Heartbeat-detector suspicions, and those of nodes that
            # were up (both 0 with the oracle).
            "suspicions": detector.suspicions if detector else 0,
            "false_suspicions": detector.false_suspicions if detector else 0,
            # Calls abandoned early because the callee was suspected.
            "failovers": self.failed_over_calls,
        }
        return metrics, {
            "calls": self.call_durations.count,
            "lost_move_requests": self.lost_move_requests,
            "invocations": invocations.stats(),
            "policy": self.policy.stats(),
            "dropped_messages": self.system.network.dropped_messages,
            "detector": detector.stats() if detector else {},
        }

    def run(self) -> WorkloadResult:
        """Simulate the fixed horizon and return the metrics."""
        self.start()
        self.system.run(until=self.params.sim_time)
        return self.collect_result()
