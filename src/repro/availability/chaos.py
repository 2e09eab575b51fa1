"""Chaos campaigns: scripted fault scenarios under invariant monitoring.

The fault-tolerance study answers "how much does performance degrade
under random failures?".  A chaos campaign answers the harder question
"does the system stay *safe* under adversarial failure timing?" — crash
storms that take out several nodes at once, partitions that roll across
the cluster silencing one node after another, links that flap faster
than the failure detector's timeout, and crashes aimed precisely at
nodes with a migration in flight.

A campaign is declarative: a :class:`ChaosScenario` is a named tuple of
frozen action records (:class:`CrashStorm`, :class:`RollingPartition`,
:class:`FlappingLink`, :class:`CrashDuringMigration`).  The
:class:`ChaosOrchestrator` turns each action into a simulation process
whose randomness (victim choice, link choice) comes from dedicated
``"chaos.<scenario>.<idx>"`` streams — the same seed replays the same
havoc, and adding chaos never perturbs the workload's own draws.

Safety is checked *during* the run, not after: a
:class:`~repro.sim.monitor.InvariantMonitor` re-evaluates the core
invariants every few simulated time units —

* every object has exactly one home (registry consistency);
* no object is lost: anything in transit reinstalls (possibly back at
  its origin) within the bounded transfer-plus-rollback window;
* lock bookkeeping is consistent and no broken block still holds locks;
* no invocation ever executes on a crashed node.

On violation the campaign fails with an
:class:`~repro.errors.InvariantViolationError` carrying the tail of a
:class:`~repro.sim.trace.RingTracer` — enough recent events to diagnose
the failure without re-running.

Run one from the CLI::

    repro-experiment chaos --scenario mayhem --seed 3
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple, Union

from repro.availability.faulttolerance import (
    FaultToleranceParameters,
    FaultToleranceWorkload,
)
from repro.errors import (
    ConfigurationError,
    InvariantViolationError,
    ProcessError,
)
from repro.network.faults import LinkFaultModel
from repro.runtime.retry import RetryPolicy
from repro.sim.monitor import InvariantMonitor
from repro.sim.rng import Stream
from repro.sim.trace import RingTracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.workload.clientserver import WorkloadResult


# ---------------------------------------------------------------------------
# Scenario actions (frozen, declarative)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashStorm:
    """Crash several nodes near-simultaneously, in repeated waves."""

    #: Simulated time of the first wave.
    at: float = 100.0
    #: Nodes taken down per wave (capped so at least the monitor node
    #: and one other node stay up).
    victims: int = 2
    #: How long each victim stays down.
    down_for: float = 60.0
    #: Number of waves.
    waves: int = 3
    #: Gap between wave starts.
    wave_gap: float = 400.0


@dataclass(frozen=True)
class RollingPartition:
    """Cut one node after another off the rest of the network.

    Each round isolates a single node for ``hold`` time units (its
    heartbeats are silenced, so the detector *falsely* suspects it),
    then restores exactly the links it cut — never a blanket heal, so
    concurrently flapping links stay down.
    """

    #: Simulated time of the first round.
    start: float = 150.0
    #: How long each node stays isolated.
    hold: float = 40.0
    #: Gap between the end of one round and the start of the next.
    gap: float = 120.0
    #: Number of nodes isolated, one after the other.
    rounds: int = 4


@dataclass(frozen=True)
class FlappingLink:
    """One link going down and up faster than detection settles."""

    #: Simulated time the flapping starts.
    start: float = 50.0
    #: Up-time between flaps.
    up_for: float = 30.0
    #: Down-time of each flap.
    down_for: float = 15.0
    #: Number of down/up cycles.
    flaps: int = 6
    #: The (a, b) node pair; None = drawn from the chaos stream.
    link: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class CrashDuringMigration:
    """Crash a migration participant while the object is on the wire.

    Polls :attr:`~repro.runtime.migration.MigrationService.
    active_transfers` and, the moment a transfer appears, crashes the
    chosen participant — the abort-and-rollback path must reinstall the
    object at its origin with nothing lost.
    """

    #: Simulated time the watcher arms itself.
    arm_at: float = 50.0
    #: How long the crashed participant stays down.
    down_for: float = 60.0
    #: How many transfers to ambush.
    times: int = 2
    #: Polling period while armed.
    poll: float = 1.0
    #: Which participant to crash: "target", "origin" or "either".
    victim: str = "target"


Action = Union[
    CrashStorm,
    RollingPartition,
    FlappingLink,
    CrashDuringMigration,
]


@dataclass(frozen=True)
class ChaosScenario:
    """A named bundle of chaos actions injected into one run."""

    name: str
    actions: Tuple[Action, ...]

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on a malformed scenario."""
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        if not self.actions:
            raise ConfigurationError(
                f"scenario {self.name!r} has no actions"
            )
        for action in self.actions:
            if isinstance(action, CrashDuringMigration) and action.victim not in (
                "target",
                "origin",
                "either",
            ):
                raise ConfigurationError(
                    f"victim must be 'target', 'origin' or 'either', "
                    f"got {action.victim!r}"
                )


#: Built-in scenarios, keyed by CLI name.
SCENARIOS: Dict[str, ChaosScenario] = {
    "crash-storm": ChaosScenario(
        "crash-storm", (CrashStorm(),)
    ),
    "rolling-partition": ChaosScenario(
        "rolling-partition", (RollingPartition(),)
    ),
    "flapping-links": ChaosScenario(
        "flapping-links",
        (FlappingLink(), FlappingLink(start=420.0, flaps=4)),
    ),
    "crash-during-migration": ChaosScenario(
        "crash-during-migration", (CrashDuringMigration(),)
    ),
    "mayhem": ChaosScenario(
        "mayhem",
        (
            CrashStorm(at=200.0, victims=1, waves=2, wave_gap=600.0),
            RollingPartition(start=350.0, rounds=3),
            FlappingLink(start=100.0, flaps=4),
            CrashDuringMigration(arm_at=80.0, times=1),
        ),
    ),
}


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------


class ChaosOrchestrator:
    """Turns a declarative scenario into scheduled fault injections.

    Each action becomes one simulation process drawing from its own
    ``"chaos.<scenario>.<idx>"`` stream, so the havoc is reproducible
    per seed and independent of the workload's randomness.
    """

    def __init__(
        self,
        workload: FaultToleranceWorkload,
        scenario: ChaosScenario,
    ):
        scenario.validate()
        if workload.faults is None:
            raise ConfigurationError(
                "chaos needs a fault injector: build the workload with "
                "scripted_faults=True (or mttf > 0)"
            )
        self.workload = workload
        self.scenario = scenario
        self.system = workload.system
        self.faults = workload.faults
        # Partitions and flaps act on the link fault model; install a
        # zero-loss one when the workload did not configure losses (it
        # never draws randomness until a link actually goes down).
        if self.system.network.faults is None:
            self.system.network.install_faults(LinkFaultModel())
        self.links = self.system.network.faults
        self._started = False
        # Accounting.
        self.crashes_injected = 0
        self.partitions_injected = 0
        self.link_flaps = 0
        self.migration_crashes = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Launch one injection process per scenario action (idempotent)."""
        if self._started:
            return
        self._started = True
        for idx, action in enumerate(self.scenario.actions):
            stream = self.system.streams.stream(
                f"chaos.{self.scenario.name}.{idx}"
            )
            self.system.env.process(
                self._dispatch(action, stream),
                name=f"chaos-{self.scenario.name}-{idx}",
            )

    def _dispatch(self, action: Action, stream: Stream) -> Generator:
        if isinstance(action, CrashStorm):
            yield from self._crash_storm(action, stream)
        elif isinstance(action, RollingPartition):
            yield from self._rolling_partition(action, stream)
        elif isinstance(action, FlappingLink):
            yield from self._flapping_link(action, stream)
        elif isinstance(action, CrashDuringMigration):
            yield from self._crash_during_migration(action, stream)
        else:  # pragma: no cover - the Union is exhaustive
            raise ConfigurationError(f"unknown chaos action {action!r}")

    # -- individual actions ----------------------------------------------------

    def _up_candidates(self) -> List[int]:
        """Nodes eligible as crash victims: up, and not the monitor.

        The detector's monitor node is spared so failure detection
        itself keeps running through the storm (crashing the observer
        is a different experiment — partition it instead).
        """
        monitor = (
            self.workload.detector.monitor_node
            if self.workload.detector is not None
            else 0
        )
        return [
            node.node_id
            for node in self.system.registry.nodes
            if node.node_id != monitor and not self.faults.is_down(node.node_id)
        ]

    def _crash_storm(self, storm: CrashStorm, stream: Stream) -> Generator:
        env = self.system.env
        if storm.at > 0:
            yield env.timeout(storm.at)
        for wave in range(storm.waves):
            if wave > 0:
                yield env.timeout(storm.wave_gap)
            candidates = self._up_candidates()
            # Leave at least one non-monitor node standing.
            count = min(storm.victims, max(len(candidates) - 1, 0))
            if count <= 0:
                continue
            stream.shuffle(candidates)
            for victim in candidates[:count]:
                if self.faults.crash(victim, duration=storm.down_for):
                    self.crashes_injected += 1

    def _rolling_partition(
        self, part: RollingPartition, stream: Stream
    ) -> Generator:
        env = self.system.env
        if part.start > 0:
            yield env.timeout(part.start)
        node_ids = [n.node_id for n in self.system.registry.nodes]
        first = stream.integer(0, len(node_ids))
        for round_no in range(part.rounds):
            if round_no > 0:
                yield env.timeout(part.gap)
            isolated = node_ids[(first + round_no) % len(node_ids)]
            cut = [
                (isolated, other) for other in node_ids if other != isolated
            ]
            for a, b in cut:
                self.links.fail_link(a, b)
            self.partitions_injected += 1
            yield env.timeout(part.hold)
            # Restore exactly the links this round cut — a blanket
            # heal() would also resurrect links a concurrent flapping
            # action is holding down.
            for a, b in cut:
                self.links.restore_link(a, b)

    def _flapping_link(self, flap: FlappingLink, stream: Stream) -> Generator:
        env = self.system.env
        if flap.start > 0:
            yield env.timeout(flap.start)
        if flap.link is not None:
            a, b = flap.link
        else:
            node_ids = [n.node_id for n in self.system.registry.nodes]
            count = len(node_ids)
            ai = stream.integer(0, count)
            bi = stream.integer(0, count - 1)
            if bi >= ai:
                bi += 1
            a, b = node_ids[ai], node_ids[bi]
        for flap_no in range(flap.flaps):
            if flap_no > 0:
                yield env.timeout(flap.up_for)
            self.links.fail_link(a, b)
            self.link_flaps += 1
            yield env.timeout(flap.down_for)
            self.links.restore_link(a, b)

    def _crash_during_migration(
        self, ambush: CrashDuringMigration, stream: Stream
    ) -> Generator:
        env = self.system.env
        migrations = self.system.migrations
        if ambush.arm_at > 0:
            yield env.timeout(ambush.arm_at)
        remaining = ambush.times
        while remaining > 0:
            if not migrations.active_transfers:
                yield env.timeout(ambush.poll)
                continue
            # Deterministic pick: the in-flight transfer with the
            # smallest object id.
            object_id = min(migrations.active_transfers)
            origin, target = migrations.active_transfers[object_id]
            if ambush.victim == "origin":
                victim = origin
            elif ambush.victim == "target":
                victim = target
            else:
                victim = origin if stream.uniform() < 0.5 else target
            if self.faults.crash(victim, duration=ambush.down_for):
                self.crashes_injected += 1
                self.migration_crashes += 1
                remaining -= 1
            # Let this transfer resolve before ambushing the next one.
            yield env.timeout(ambush.down_for)

    def stats(self) -> dict:
        """Injection counters for reports and tests."""
        return {
            "crashes_injected": self.crashes_injected,
            "partitions_injected": self.partitions_injected,
            "link_flaps": self.link_flaps,
            "migration_crashes": self.migration_crashes,
        }


# ---------------------------------------------------------------------------
# The campaign harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCampaignParameters:
    """Configuration of one chaos campaign run."""

    #: Name of a built-in scenario (key of :data:`SCENARIOS`).
    scenario: str = "mayhem"
    nodes: int = 8
    clients: int = 6
    servers: int = 3
    #: Background message loss on every link (partitions come on top).
    loss: float = 0.02
    lease_duration: float = 30.0
    sweep_interval: float = 5.0
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 8.0
    #: None = timeout mode; set to run the detector in phi-accrual mode.
    phi_threshold: Optional[float] = None
    #: How often the invariant monitor re-checks safety.
    check_interval: float = 5.0
    #: Trace records retained for violation diagnostics.
    trace_capacity: int = 256
    sim_time: float = 2_000.0
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; "
                f"choose one of {sorted(SCENARIOS)}"
            )
        if self.check_interval <= 0:
            raise ConfigurationError("check_interval must be positive")
        if self.trace_capacity < 1:
            raise ConfigurationError("trace_capacity must be >= 1")
        self.to_ft().validate()

    def to_ft(self) -> FaultToleranceParameters:
        """The underlying fault-tolerance cell this campaign runs.

        Always the place-policy with leases and heartbeat detection —
        the configuration with the most safety machinery to violate —
        with ``mttf = 0``: every crash is scripted by the scenario, so
        the run is fully reproducible from the seed.
        """
        return FaultToleranceParameters(
            nodes=self.nodes,
            clients=self.clients,
            servers=self.servers,
            policy="placement",
            lease_duration=self.lease_duration,
            sweep_interval=self.sweep_interval,
            loss=self.loss,
            mttf=0.0,
            scripted_faults=True,
            detection="heartbeat",
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            phi_threshold=self.phi_threshold,
            retry=RetryPolicy(),
            sim_time=self.sim_time,
            seed=self.seed,
        )


@dataclass
class ChaosCampaignResult:
    """Outcome of one chaos campaign."""

    params: ChaosCampaignParameters
    #: The standard fault-tolerance metrics of the underlying cell.
    ft: WorkloadResult
    #: Injection counters from the orchestrator.
    injections: Dict[str, int]
    #: Invariant evaluation rounds performed.
    invariant_checks: int
    #: Violations recorded (the run raises on the first one, so this is
    #: non-empty only when the caller caught the error).
    violations: List[str] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        """True when every invariant held for the whole run."""
        return not self.violations


class ChaosCampaign:
    """One scenario run under full invariant monitoring.

    Wires together the fault-tolerance workload (place-policy, leases,
    heartbeat detection), the scenario orchestrator, a bounded ring
    trace and the invariant monitor.  :meth:`run` raises
    :class:`~repro.errors.InvariantViolationError` on the first safety
    violation; a clean return means the system survived the scenario.
    """

    def __init__(
        self,
        params: ChaosCampaignParameters,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        params.validate()
        self.params = params
        self.telemetry = telemetry
        self.tracer = RingTracer(capacity=params.trace_capacity)
        self.workload = FaultToleranceWorkload(
            params.to_ft(), tracer=self.tracer, telemetry=telemetry
        )
        self.scenario = SCENARIOS[params.scenario]
        self.orchestrator = ChaosOrchestrator(self.workload, self.scenario)
        # Physical liveness guard: a call must never *execute* on a
        # node that is really down, no matter what the detector thinks.
        self.workload.system.invocations.liveness = self.workload.faults
        self.monitor = InvariantMonitor(
            self.workload.system.env,
            interval=params.check_interval,
            tracer=self.tracer,
            trace_limit=min(50, params.trace_capacity),
        )
        self._register_invariants()

    # -- the invariants ---------------------------------------------------------

    def _register_invariants(self) -> None:
        system = self.workload.system
        locks = self.workload.locks
        invocations = system.invocations
        migrations = system.migrations
        env = system.env

        # 1. Exactly one home per object: the registry's residency sets
        #    mirror object state (raises AssertionError on violation).
        self.monitor.invariant("unique-home", system.registry.check_consistency)

        # 2. No object lost: anything in transit reinstalls — possibly
        #    back at its origin via rollback — within the outbound +
        #    rollback window.  A crash mid-transfer must not strand the
        #    object on the wire forever.
        def no_object_lost():
            for obj in system.registry.objects:
                if not obj.in_transit:
                    continue
                elapsed = env.now - obj._transit_started
                # Outbound leg + rollback leg, plus scheduling slack.
                bound = 2.0 * migrations.duration_for(obj) + 4.0 * max(
                    migrations.default_duration, 1.0
                )
                if elapsed > bound:
                    return (
                        False,
                        f"{obj.name} in transit for {elapsed:.1f} "
                        f"(bound {bound:.1f}) — object lost on the wire",
                    )
            return True

        self.monitor.invariant("no-object-lost", no_object_lost)

        # 3. Lock/lease bookkeeping consistent: every lock held by
        #    exactly one live block, no broken block still holding.
        if locks is not None:
            self.monitor.invariant("locks-consistent", locks.check_invariant)

        # 4. No invocation ever executes on a physically crashed node.
        def no_exec_on_crashed():
            count = invocations.executions_on_crashed
            if count:
                return (
                    False,
                    f"{count} invocation(s) executed on a crashed node",
                )
            return True

        self.monitor.invariant("no-exec-on-crashed", no_exec_on_crashed)

    # -- lifecycle --------------------------------------------------------------

    def run(self) -> ChaosCampaignResult:
        """Run the campaign; raises on the first invariant violation."""
        self.workload.start()
        self.orchestrator.start()
        self.monitor.start()
        try:
            self.workload.system.run(until=self.params.sim_time)
        except ProcessError as exc:
            # The periodic checker runs as a simulation process, so its
            # violation arrives wrapped; unwrap to keep the documented
            # contract (and the diagnostic trace) intact.
            cause = exc.__cause__
            if isinstance(cause, InvariantViolationError):
                raise cause from None
            raise
        # One final check after the horizon so a violation in the last
        # interval cannot slip through.
        self.monitor.check_now()
        return self.collect_result()

    def collect_result(self) -> ChaosCampaignResult:
        """Assemble the result record from the current state."""
        return ChaosCampaignResult(
            params=self.params,
            ft=self.workload.collect_result(),
            injections=self.orchestrator.stats(),
            invariant_checks=self.monitor.checks,
            violations=list(self.monitor.violations),
        )


def run_chaos_campaign(params: ChaosCampaignParameters) -> ChaosCampaignResult:
    """Convenience one-shot wrapper."""
    return ChaosCampaign(params).run()
