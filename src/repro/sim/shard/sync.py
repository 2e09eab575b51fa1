"""Conservative time-window synchronization across shard kernels.

The coordinator advances every shard in lock-step windows of length
``plan.window`` (the lookahead).  One window is a four-step protocol,
executed per shard by its host:

1. **deliver** — schedule the inbound cross-shard messages collected at
   the previous barrier (all due at or after the current clock, by the
   lookahead argument in :mod:`repro.sim.shard.partition`);
2. **advance** — run the shard's kernel to the next barrier time;
3. **drain** — collect the messages the shard produced this window;
4. **exchange** — the coordinator routes all drained batches to their
   destination shards in deterministic merge order, ready for step 1 of
   the next window.

Hosts abstract *where* shards run: :class:`LocalShardHost` executes its
kernels inline in the coordinator process (deterministic baseline, zero
IPC); :class:`~repro.sim.shard.mp.ProcessShardHost` runs the identical
protocol in a worker process.  Both speak the same two-phase
``dispatch``/``collect`` interface so the coordinator can overlap all
hosts' windows and measure the true barrier wait.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.sim.shard.kernel import ShardKernel, ShardOutcome
from repro.sim.shard.messages import WindowBatch, route_batches
from repro.sim.shard.partition import ShardPlan
from repro.sim.stopping import StoppingConfig
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.workload.clientserver import ClientServerWorkload


class _WindowClock:
    """Stand-in environment so coordinator telemetry can ``bind()``.

    The coordinator has no simulation kernel of its own; its metric
    timestamps are the barrier times, and there is never an active
    simulation process on its side.
    """

    __slots__ = ("now", "active_process")

    def __init__(self):
        self.now = 0.0
        self.active_process = None


class LocalShardHost:
    """Runs a group of shard kernels inline, in the caller's process.

    The deterministic reference backend: no pickling, no processes —
    each window executes the shards sequentially in shard-id order.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_ids: Sequence[int],
        stopping: Optional[StoppingConfig] = None,
        trace: bool = False,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.shard_ids = list(shard_ids)
        self.kernels = [
            ShardKernel(
                plan, sid, stopping=stopping, trace=trace, telemetry=telemetry
            )
            for sid in self.shard_ids
        ]
        self._result = None

    def start(self) -> None:
        """Launch every hosted shard's client processes."""
        for kernel in self.kernels:
            kernel.start()

    def dispatch(
        self, window: int, t_next: float, inbound: List[list], poll: bool
    ) -> None:
        """Run one window for every hosted shard (inline: synchronous).

        ``inbound`` is aligned with ``shard_ids``.
        """
        batches = []
        for kernel, messages in zip(self.kernels, inbound):
            kernel.deliver(messages)
            kernel.advance(t_next)
            batches.append(
                WindowBatch(
                    window=window,
                    src_shard=kernel.shard_id,
                    messages=tuple(kernel.drain()),
                )
            )
        stops = [k.should_stop() for k in self.kernels] if poll else None
        self._result = (batches, stops)

    def collect(self):
        """Return this window's ``(batches, stop_flags_or_None)``."""
        result, self._result = self._result, None
        if result is None:
            raise RuntimeError("collect() without a dispatched window")
        return result

    def finalize(self) -> List[ShardOutcome]:
        """Freeze and return every hosted shard's outcome."""
        return [kernel.outcome() for kernel in self.kernels]

    def close(self) -> None:
        """Nothing to release for the inline backend."""


class ConservativeWindowSync:
    """The window-barrier coordinator driving a set of shard hosts.

    Runs windows until every shard's stopping rule has fired (polled
    every ``poll_interval`` of simulated time, mirroring the monolithic
    driver's chunked polling) or the ``max_time`` horizon is reached.

    Telemetry (coordinator-side, wall-clock):

    * ``shard.window.advance`` — counter, one per completed window;
    * ``shard.barrier.wait_s`` — histogram of the wall-clock time the
      coordinator spent at each barrier waiting for all hosts (for the
      inline backend this is the whole sequential window execution).
    """

    #: Buckets sized for barrier waits: sub-millisecond to seconds.
    WAIT_BUCKETS = (
        1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
    )

    def __init__(
        self,
        plan: ShardPlan,
        hosts: Sequence,
        telemetry: Telemetry = NULL_TELEMETRY,
        max_time: Optional[float] = None,
        poll_interval: Optional[float] = None,
    ):
        self.plan = plan
        self.hosts = list(hosts)
        hosted = sorted(sid for h in self.hosts for sid in h.shard_ids)
        if hosted != list(range(plan.shards)):
            raise ValueError(
                f"hosts cover shards {hosted}, plan needs "
                f"0..{plan.shards - 1} exactly once each"
            )
        self.max_time = max_time if max_time is not None else ClientServerWorkload.MAX_TIME
        poll = poll_interval if poll_interval is not None else ClientServerWorkload.CHUNK
        #: Stopping-rule poll cadence in windows (>= 1).
        self.poll_windows = max(1, round(poll / plan.window))
        self.windows_run = 0
        self.barrier_wait_s = 0.0
        self.messages_exchanged = 0
        self.telemetry = telemetry
        self._telemetry_on = telemetry.enabled
        if self._telemetry_on:
            self._clock = _WindowClock()
            telemetry.bind(self._clock)
            metrics = telemetry.metrics
            self._m_windows = metrics.counter("shard.window.advance")
            self._m_wait = metrics.histogram(
                "shard.barrier.wait_s", buckets=self.WAIT_BUCKETS
            )

    def run(self) -> List[ShardOutcome]:
        """Drive the window protocol to completion; return the outcomes.

        Outcomes are returned in shard-id order regardless of host
        grouping, so the merge step downstream is deterministic.
        """
        plan = self.plan
        hosts = self.hosts
        for host in hosts:
            host.start()
        inbound: List[list] = [[] for _ in range(plan.shards)]
        window = 0
        while True:
            window += 1
            t_next = window * plan.window
            poll = window % self.poll_windows == 0
            for host in hosts:
                host.dispatch(
                    window,
                    t_next,
                    [inbound[sid] for sid in host.shard_ids],
                    poll,
                )
            wait_start = time.perf_counter()
            batches: List[WindowBatch] = []
            stops: List[bool] = []
            for host in hosts:
                host_batches, host_stops = host.collect()
                batches.extend(host_batches)
                if host_stops is not None:
                    stops.extend(host_stops)
            waited = time.perf_counter() - wait_start
            self.barrier_wait_s += waited
            self.messages_exchanged += sum(len(b) for b in batches)
            inbound = route_batches(batches, plan.shards)
            self.windows_run = window
            if self._telemetry_on:
                self._clock.now = t_next
                self._m_windows.inc()
                self._m_wait.observe(waited)
            if poll and stops and all(stops):
                break
            if t_next >= self.max_time:
                break
        outcomes = [o for host in hosts for o in host.finalize()]
        outcomes.sort(key=lambda o: o.shard_id)
        return outcomes

    def stats(self) -> dict:
        """Coordinator counters for reports and benches."""
        return {
            "windows": self.windows_run,
            "window_length": self.plan.window,
            "poll_windows": self.poll_windows,
            "barrier_wait_s": self.barrier_wait_s,
            "messages_exchanged": self.messages_exchanged,
        }
