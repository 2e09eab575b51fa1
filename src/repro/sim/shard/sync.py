"""Conservative time-window synchronization across shard kernels.

The coordinator advances every shard in lock-step windows of length
``plan.window`` (the lookahead).  One window is a four-step protocol,
executed for each shard in shard-id order:

1. **deliver** — schedule the inbound cross-shard messages collected at
   the previous barrier (all due at or after the current clock, by the
   lookahead argument in :mod:`repro.sim.shard.partition`);
2. **advance** — run the shard's kernel to the next barrier time;
3. **drain** — collect the messages the shard produced this window;
4. **exchange** — the coordinator routes all drained batches to their
   destination shards in deterministic merge order, ready for step 1 of
   the next window.

The shards run inline, in the coordinator's process: a sharded run is a
deterministic function of its plan, and parallelism comes from running
whole cells on the experiment executor's process pool.
"""

from __future__ import annotations

import time
from typing import List, Optional

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


class ConservativeWindowSync:
    """The window-barrier coordinator driving one plan's shard kernels.

    Builds a :class:`ShardKernel` per shard and runs windows until
    every shard's stopping rule has fired (polled every
    ``poll_interval`` of simulated time, mirroring the monolithic
    driver's chunked polling) or the ``max_time`` horizon is reached.

    Telemetry (coordinator-side, wall-clock):

    * ``shard.window.advance`` — counter, one per completed window;
    * ``shard.barrier.wait_s`` — histogram of each window's wall-clock
      execution, every shard included;
    * ``shard.remote.batch_size`` — per shard, from its router.
    """

    #: Buckets sized for barrier waits: sub-millisecond to seconds.
    WAIT_BUCKETS = (
        1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
    )

    def __init__(
        self,
        plan: ShardPlan,
        stopping: Optional[StoppingConfig] = None,
        trace: bool = False,
        telemetry: Telemetry = NULL_TELEMETRY,
        max_time: Optional[float] = None,
        poll_interval: Optional[float] = None,
    ):
        self.plan = plan
        self.kernels = [
            ShardKernel(
                plan, sid, stopping=stopping, trace=trace, telemetry=telemetry
            )
            for sid in range(plan.shards)
        ]
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
        """Drive the window protocol to completion; return the outcomes
        in shard-id order."""
        plan = self.plan
        kernels = self.kernels
        for kernel in kernels:
            kernel.start()
        inbound: List[list] = [[] for _ in kernels]
        window = 0
        while True:
            window += 1
            t_next = window * plan.window
            poll = window % self.poll_windows == 0
            wait_start = time.perf_counter()
            batches: List[WindowBatch] = []
            for kernel, messages in zip(kernels, inbound):
                kernel.deliver(messages)
                kernel.advance(t_next)
                batches.append(
                    WindowBatch(
                        window=window,
                        src_shard=kernel.shard_id,
                        messages=tuple(kernel.drain()),
                    )
                )
            waited = time.perf_counter() - wait_start
            self.barrier_wait_s += waited
            self.messages_exchanged += sum(len(b) for b in batches)
            inbound = route_batches(batches, plan.shards)
            self.windows_run = window
            if self._telemetry_on:
                self._clock.now = t_next
                self._m_windows.inc()
                self._m_wait.observe(waited)
            if poll and all([k.should_stop() for k in kernels]):
                break
            if t_next >= self.max_time:
                break
        return [kernel.outcome() for kernel in kernels]

    def stats(self) -> dict:
        """Coordinator counters for reports and benches."""
        return {
            "windows": self.windows_run,
            "window_length": self.plan.window,
            "poll_windows": self.poll_windows,
            "barrier_wait_s": self.barrier_wait_s,
            "messages_exchanged": self.messages_exchanged,
        }
