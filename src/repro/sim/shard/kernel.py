"""One shard's kernel instance: services bundle + workload slice.

A :class:`ShardKernel` is everything the monolithic run used to hold as
process-wide singletons, instantiated once per shard: its own
:class:`~repro.sim.kernel.Environment` (clock + calendar), its own
:class:`~repro.sim.rng.RandomStreams` family (seeded per shard), its
own :class:`~repro.sim.trace.Tracer`, and a full
:class:`~repro.runtime.system.DistributedSystem` running the paper's
client–server workload over the shard's slice of nodes, clients and
servers.  Nothing in here touches global state, which is what lets N
kernels advance side by side in one process.

Cross-shard traffic enters and leaves through the shard's
:class:`~repro.network.shardrouter.ShardRouter`: clients occasionally
direct a move-block at another shard's hot object (remote lane), and
inbound remote calls are served by a lightweight server process that
samples the paper's Exp(1) call duration and sends the reply back
through the router.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.metrics import MetricsCollector
from repro.network.shardrouter import ShardRouter
from repro.sim.kernel import Environment, _SLEEP_POOL_MAX
from repro.sim.shard.messages import RemoteCall
from repro.sim.shard.partition import ShardPlan
from repro.sim.stats import RunningStats
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.workload.clientserver import ClientServerWorkload
from repro.workload.generator import BlockTimingGenerator
from repro.workload.params import SimulationParameters


@dataclass
class ShardOutcome:
    """Everything one shard reports back at finalization.

    Pure data (picklable): a sharded cell run on the executor's process
    pool carries its outcomes back inside the merged result.
    """

    shard_id: int
    params: SimulationParameters
    simulated_time: float
    metrics: MetricsCollector
    policy_stats: dict
    network: dict
    migrations: int
    router_stats: dict
    remote_stats: RunningStats
    remote_blocks: int
    trace_records: List[TraceRecord] = field(default_factory=list)


class ShardClientServerWorkload(ClientServerWorkload):
    """The client–server workload restricted to one shard's slice.

    Identical to the base workload except that each client, before
    opening a move-block, may redirect it at a remote shard's hot
    object with probability ``plan.remote_fraction`` (drawn from the
    client's private ``remote`` stream).  Local blocks run the full
    policy/locking/migration machinery unchanged.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_id: int,
        stopping: Optional[StoppingConfig] = None,
        tracer: Tracer = NULL_TRACER,
        env: Optional[Environment] = None,
    ):
        self.plan = plan
        self.shard_id = shard_id
        self._env_override = env
        #: Installed by :class:`ShardKernel` before the run starts.
        self.router: Optional[ShardRouter] = None
        #: Round-trip durations of completed remote calls.
        self.remote_stats = RunningStats()
        self.remote_blocks = 0
        super().__init__(
            plan.shard_params(shard_id), stopping=stopping, tracer=tracer
        )

    def _build_system(self, params, tracer):
        system = super()._build_system(params, tracer)
        if self._env_override is not None:  # pragma: no cover - reserved
            raise NotImplementedError(
                "external environments are not supported; the shard "
                "owns its kernel"
            )
        return system

    # -- the sharded client behaviour ---------------------------------------

    def client_process(self, index: int):
        """Client loop with the remote-block branch (§4.1 otherwise).

        The base loop's call-by-visit branch is intentionally absent:
        :class:`~repro.sim.shard.partition.ShardPlan` rejects
        ``block_style != "move"`` for sharded cells.
        """
        env = self.system.env
        client = self.clients[index]
        timing = BlockTimingGenerator(
            self.params, self.system.streams.stream(f"client.{index}.timing")
        )
        picker = self.system.streams.stream(f"client.{index}.pick")
        remote_fraction = self.plan.remote_fraction
        go_remote = remote_fraction > 0 and self.plan.shards > 1
        rstream = (
            self.system.streams.stream(f"client.{index}.remote")
            if go_remote
            else None
        )
        while True:
            plan = timing.next_plan()
            if plan.lead_time > 0:
                yield env.sleep(plan.lead_time)
            if go_remote and rstream.uniform() < remote_fraction:
                yield from self._remote_block(plan, rstream)
                continue
            target = self._pick_server(picker)
            block = self._make_block(client, target)
            yield from self.policy.move(block)
            yield from self._block_body(client, block, plan)
            yield from self.policy.end(block)
            self.metrics.record_block(block)

    def _remote_block(self, plan, rstream):
        """One move-block's worth of calls against a remote hot object."""
        router = self.router
        if router is None:
            raise RuntimeError(
                f"shard {self.shard_id} client went remote before the "
                "router was installed"
            )
        dst = rstream.integer(0, self.plan.shards - 1)
        if dst >= self.shard_id:
            dst += 1
        env = self.system.env
        for gap in plan.intercall_times:
            if gap > 0:
                yield env.sleep(gap)
            duration = yield router.send_call(dst)
            self._record_remote_call(duration)
        self.remote_blocks += 1

    def _record_remote_call(self, duration: float) -> None:
        # Remote calls migrate nothing, so the §4.2.1 observation is
        # the bare round-trip: it feeds the same headline accumulators
        # (and the stopping rule) as local calls.
        self.remote_stats.add(duration)
        metrics = self.metrics
        metrics.call_durations.add(duration)
        metrics.per_call.add(duration)
        metrics.stopping.add(duration)


class ShardKernel:
    """One shard: environment, streams, tracer, system, workload, router.

    Parameters
    ----------
    plan / shard_id:
        The run's :class:`ShardPlan` and this kernel's slot in it.
    stopping:
        Stopping rule evaluated shard-locally (the coordinator stops
        the run once *every* shard's rule fires).
    trace:
        Record a per-shard golden trace (merged after the run).
    sleep_pool_cap:
        Per-shard recycled-sleep cap; defaults to the single-kernel
        cap divided by the shard count (floor 16) so N shards do not
        retain N full pools.
    telemetry:
        :class:`~repro.telemetry.core.Telemetry` handed to the router
        for per-shard batch metrics.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_id: int,
        stopping: Optional[StoppingConfig] = None,
        trace: bool = False,
        sleep_pool_cap: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.plan = plan
        self.shard_id = shard_id
        if sleep_pool_cap is None:
            sleep_pool_cap = max(16, _SLEEP_POOL_MAX // plan.shards)
        self.tracer = Tracer() if trace else NULL_TRACER
        self.workload = ShardClientServerWorkload(
            plan, shard_id, stopping=stopping, tracer=self.tracer
        )
        self.system = self.workload.system
        self.env = self.system.env
        # Swap in the shard-local sleep-pool cap (the workload built
        # the environment with the default; no sleeps happened yet).
        self.env._sleep_pool_cap = sleep_pool_cap
        self.router = ShardRouter(
            self.env,
            shard_id=shard_id,
            shards=plan.shards,
            base_latency=plan.base_latency,
            mean_latency=plan.remote_latency_mean,
            stream=self.system.streams.stream("shard.link"),
            on_call=self._handle_call,
            telemetry=telemetry,
        )
        self.workload.router = self.router
        self._service_stream = self.system.streams.stream("shard.service")
        self._started = False

    # -- server side of the remote lane -------------------------------------

    def _handle_call(self, call: RemoteCall) -> None:
        self.env.process(
            self._serve(call), name=f"serve-{call.src_shard}-{call.seq}"
        )

    def _serve(self, call: RemoteCall):
        # The paper's remote-call duration: Exp(1), server-side draw.
        service = self._service_stream.exponential(1.0)
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now,
                "shard.serve",
                src_shard=call.src_shard,
                seq=call.seq,
                service=service,
            )
        if service > 0:
            yield self.env.sleep(service)
        self.router.send_reply(call, service)

    # -- window protocol -----------------------------------------------------

    def start(self) -> None:
        """Launch the shard's client processes (idempotent)."""
        if self._started:
            return
        self._started = True
        self.workload.start()

    def advance(self, until: float) -> None:
        """Run the kernel up to the next barrier time."""
        self.env.run(until=until)

    def drain(self) -> list:
        """This window's outbound cross-shard messages."""
        return self.router.drain()

    def deliver(self, messages: list) -> None:
        """Schedule inbound messages (already in merge order)."""
        if messages:
            self.router.deliver(messages)

    def should_stop(self) -> bool:
        """Shard-local stopping-rule verdict."""
        return self.workload.metrics.should_stop()

    # -- finalization --------------------------------------------------------

    def outcome(self) -> ShardOutcome:
        """Freeze this shard's results into a picklable record."""
        w = self.workload
        w.metrics.finalize(w.policy)
        return ShardOutcome(
            shard_id=self.shard_id,
            params=w.params,
            simulated_time=self.env.now,
            metrics=w.metrics,
            policy_stats=w.policy.stats(),
            network={
                "remote_messages": self.system.network.remote_messages,
                "local_messages": self.system.network.local_messages,
                "total_latency": self.system.network.total_latency,
            },
            migrations=self.system.migrations.migration_count,
            router_stats=self.router.stats(),
            remote_stats=w.remote_stats,
            remote_blocks=w.remote_blocks,
            trace_records=list(self.tracer.records)
            if self.tracer.enabled
            else [],
        )

    def __repr__(self) -> str:
        return (
            f"<ShardKernel {self.shard_id}/{self.plan.shards} "
            f"t={self.env.now:.2f} clients={len(self.workload.clients)}>"
        )
