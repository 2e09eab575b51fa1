"""The cell runner and the basic client–server workload (Fig 6).

C sedentary clients share S1 movable servers.  Each client loops
forever: wait t_m, pick a server uniformly, open a move-block (move →
N invocations spaced t_i → end).  "Concurrency and the rate of
conflicting move-policies between different clients is incremented
through two parameters: in incrementing the number of clients [C] or in
decrementing the time between the move-blocks inside each client t_m"
(§4.1) — exactly the two sweeps of Figs 8 and 12.

:class:`CellWorkload` is the §4.1 method every study shares: build the
system, start the clients, run the simulation in chunks until the
stopping rule fires, and report a :class:`WorkloadResult` of named
metrics.  :func:`run_cell` runs any parameter cell on the workload
its parameter class names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.core.moveblock import MoveBlock
from repro.core.policies.base import MigrationPolicy
from repro.core.policies.registry import make_policy
from repro.network.latency import NormalizedExponentialLatency
from repro.network.topology import make_topology
from repro.runtime.locator import make_locator
from repro.runtime.objects import DistributedObject
from repro.runtime.system import DistributedSystem
from repro.sim.stopping import PrecisionStopping, StoppingConfig
from repro.sim.trace import NULL_TRACER, Tracer
from repro.workload.generator import BlockTimingGenerator
from repro.workload.params import SimulationParameters


@dataclass
class WorkloadResult:
    """Outcome of one simulated cell.

    ``metrics`` holds the study's named metrics, each also readable as
    an attribute (``result.mean_call_duration``); ``raw`` keeps the
    full summary for EXPERIMENTS.md.
    """

    params: Any
    metrics: Dict[str, float]
    simulated_time: float
    raw: Dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        # Reached only for names that are not fields; ``__dict__`` is
        # read directly so a half-built (unpickling) instance raises.
        try:
            return self.__dict__["metrics"][name]
        except KeyError:
            raise AttributeError(name) from None


class CellWorkload:
    """One cell of a study: system, clients, chunked stop loop, result.

    A subclass builds its objects after ``super().__init__``, defines
    ``client_process(i)`` and :meth:`measure`, and may start background
    processes in :meth:`_start_services`.  The chunk size decides where
    the stopping rule fires, so each study keeps its own ``CHUNK`` and
    ``MAX_TIME``.
    """

    #: Simulated time per chunk between stopping-rule polls.
    CHUNK = 2_000.0
    #: Absolute ceiling on simulated time (secondary safety net; the
    #: primary bound is the stopping config's max_observations).
    MAX_TIME = 5_000_000.0

    def __init__(
        self,
        params,
        stopping: Optional[StoppingConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        params.validate()
        self.params = params
        self.stopping = PrecisionStopping(stopping)
        self.system = self._build_system(params, tracer)
        self._started = False

    def _build_system(self, params, tracer: Tracer) -> DistributedSystem:
        return DistributedSystem(
            nodes=params.nodes, seed=params.seed, tracer=tracer
        )

    def _start_services(self) -> None:
        """Background processes launched before the clients (none)."""

    def start(self) -> None:
        """Launch the services and every client's process (idempotent)."""
        if self._started:
            return
        self._started = True
        self._start_services()
        for i in range(self.params.clients):
            self.system.env.process(self.client_process(i), name=f"client-{i}")

    def measure(self) -> Tuple[Dict[str, float], Dict]:
        """The cell's ``(metrics, raw)`` at the current simulated time."""
        raise NotImplementedError

    def collect_result(self) -> WorkloadResult:
        """Assemble the result from the current simulation state."""
        metrics, raw = self.measure()
        return WorkloadResult(self.params, metrics, self.system.env.now, raw)

    def run(self) -> WorkloadResult:
        """Simulate until the stopping rule fires; return the metrics."""
        env = self.system.env
        self.start()
        while True:
            env.run(until=env.now + self.CHUNK)
            if self.stopping.should_stop() or env.now >= self.MAX_TIME:
                break
        return self.collect_result()


class ClientServerWorkload(CellWorkload):
    """Builds and runs the Fig 6 structure for one parameter cell."""

    #: RNG stream names of client i's block timing and server picks.
    TIMING_STREAM = "client.{}.timing"
    PICK_STREAM = "client.{}.pick"

    def __init__(
        self,
        params: SimulationParameters,
        stopping: Optional[StoppingConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        super().__init__(params, stopping=stopping, tracer=tracer)
        self.metrics = MetricsCollector(stopping)
        # The per-call observations feed the stopping rule.
        self.stopping = self.metrics.stopping
        self.servers = self._place_servers()
        self.clients = self._place_clients()
        self.policy = self._build_policy()

    # -- construction -----------------------------------------------------------

    def _build_system(
        self, params: SimulationParameters, tracer: Tracer
    ) -> DistributedSystem:
        topology = make_topology(params.topology, params.nodes)
        system = DistributedSystem(
            nodes=params.nodes,
            seed=params.seed,
            migration_duration=params.migration_duration,
            topology=topology,
            latency=NormalizedExponentialLatency(params.mean_message_latency),
            tracer=tracer,
        )
        if params.locator != "immediate":
            locator = make_locator(params.locator, system.env, system.network)
            system.locator = locator
            system.invocations.locator = locator
            system.migrations.locator = locator
        return system

    def _place_servers(self) -> List[DistributedObject]:
        return [
            self.system.create_server(
                node=self.params.server_node(j), name=f"server-{j}"
            )
            for j in range(self.params.servers_layer1)
        ]

    def _place_clients(self) -> List[DistributedObject]:
        return [
            self.system.create_client(
                node=self.params.client_node(i), name=f"client-{i}"
            )
            for i in range(self.params.clients)
        ]

    def _build_policy(self) -> MigrationPolicy:
        return make_policy(self.params.policy, self.system)

    # -- the client behaviour --------------------------------------------------------

    def _pick_server(self, picker) -> DistributedObject:
        """Uniform server choice; override point for subclasses."""
        return picker.choice(self.servers)

    def _block_body(self, client: DistributedObject, block: MoveBlock, plan):
        """Process fragment: the N invocations of one block."""
        for gap in plan.intercall_times:
            if gap > 0:
                yield self.system.env.sleep(gap)
            result = yield from self.system.invocations.invoke(
                client.node_id, block.target
            )
            block.record_call(result.duration)

    def _make_block(
        self, client: DistributedObject, target: DistributedObject
    ) -> MoveBlock:
        """Create the block; layered subclass attaches the alliance."""
        return MoveBlock(client.node_id, target)

    def _move_block(self, client: DistributedObject, picker, plan):
        """One move-block: move, the N calls, end.  Returns the block
        whose calls and migration cost the metrics record."""
        target = self._pick_server(picker)
        origin = target.node_id
        block = self._make_block(client, target)
        yield from self.policy.move(block)
        yield from self._block_body(client, block, plan)
        yield from self.policy.end(block)
        if (
            self.params.block_style == "visit"
            and block.granted
            and target.node_id != origin
            and not target.is_locked
        ):
            # Call-by-visit (§2.3): "a move and a migrate back".
            # The return transfer is part of the block's migration
            # cost, amortized over its calls like the outbound one.
            t0 = self.system.env.now
            yield from self.system.migrations.migrate([target], origin)
            block.migration_cost += self.system.env.now - t0
        return block

    def client_process(self, index: int):
        """The endless move-block loop of client ``index`` (§4.1)."""
        client = self.clients[index]
        streams = self.system.streams
        timing = BlockTimingGenerator(
            self.params, streams.stream(self.TIMING_STREAM.format(index))
        )
        picker = streams.stream(self.PICK_STREAM.format(index))
        while True:
            plan = timing.next_plan()
            if plan.lead_time > 0:
                yield self.system.env.sleep(plan.lead_time)
            block = yield from self._move_block(client, picker, plan)
            self.metrics.record_block(block)

    # -- result -----------------------------------------------------------------------

    def measure(self) -> Tuple[Dict[str, float], Dict]:
        """The three §4.2.1 means, plus the metric, policy, network and
        migration summaries."""
        m = self.metrics
        m.finalize(self.policy)
        network = self.system.network
        metrics = {
            "mean_communication_time_per_call": (
                m.mean_communication_time_per_call
            ),
            "mean_call_duration": m.mean_call_duration,
            "mean_migration_time_per_call": m.mean_migration_time_per_call,
        }
        return metrics, {
            "metrics": m.summary(),
            "policy": self.policy.stats(),
            "network": {
                "remote_messages": network.remote_messages,
                "local_messages": network.local_messages,
            },
            "migrations": self.system.migrations.migration_count,
        }


def run_cell(
    params,
    stopping: Optional[StoppingConfig] = None,
    tracer: Tracer = NULL_TRACER,
) -> WorkloadResult:
    """Build and run the workload ``params`` names (``params.workload``):
    the one dispatch for every study's cells."""
    return params.workload(params, stopping=stopping, tracer=tracer).run()
