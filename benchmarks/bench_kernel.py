"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the throughput of the pieces every
experiment rests on, so performance regressions in the kernel are
visible independently of the model.
"""

import time

import pytest

from repro.core.attachment import AttachmentMode
from repro.experiments.figures import FIG12_BASE, FIG16_BASE
from repro.network.network import Network
from repro.network.topology import FullyConnected
from repro.sim.events import AllOf
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.sim.stats import BatchMeans, RunningStats
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import ClientServerWorkload
from repro.workload.layered import LayeredWorkload


@pytest.mark.benchmark(group="kernel")
def test_timeout_throughput(benchmark):
    """Schedule-and-fire cost of 10k chained timeouts."""

    def run():
        env = Environment()

        def proc(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


@pytest.mark.benchmark(group="kernel")
def test_process_interleaving_throughput(benchmark):
    """100 processes x 100 wakeups through the shared calendar."""

    def run():
        env = Environment()

        def worker(env, period):
            for _ in range(100):
                yield env.timeout(period)

        for i in range(100):
            env.process(worker(env, 1.0 + i / 100.0))
        env.run()
        return env.now

    benchmark(run)


@pytest.mark.benchmark(group="kernel")
def test_network_transmit_throughput(benchmark):
    """Latency sampling + timeout per message."""

    def run():
        env = Environment()
        net = Network(
            env, topology=FullyConnected(8), streams=RandomStreams(0)
        )

        def proc(env):
            for i in range(5_000):
                yield from net.transmit(i % 8, (i + 1) % 8)

        env.process(proc(env))
        env.run()
        return net.remote_messages

    assert benchmark(run) == 5_000


@pytest.mark.benchmark(group="kernel")
def test_stream_exponential_throughput(benchmark):
    """100k Exp(1) draws from one stream (block-prefetched).

    Exactness against scalar numpy draws is the property test's job
    (``tests/test_sim_rng.py``); here the mean is a sanity check.
    """
    draws = 100_000

    def run():
        stream = RandomStreams(0).stream("bench")
        total = 0.0
        for _ in range(draws):
            total += stream.exponential(1.0)
        return total

    assert benchmark(run) == pytest.approx(draws, rel=0.02)


@pytest.mark.benchmark(group="kernel")
def test_invocation_throughput(benchmark):
    """The per-call layers composed: 25 sedentary clients, 10k calls.

    Kernel + ``Network.transmit`` + ``InvocationService.invoke`` with no
    migrations and no locks; the precision is unreachable, so the cell
    stops at the first chunk boundary past 10k calls on every run.
    """
    params = FIG12_BASE.with_overrides(clients=25, policy="sedentary", seed=0)
    stopping = StoppingConfig(
        relative_precision=1e-9,
        confidence=0.99,
        batch_size=400,
        warmup=500,
        min_batches=10,
        max_observations=10_000,
    )

    def run():
        result = ClientServerWorkload(params, stopping=stopping).run()
        return result.raw["metrics"]["calls"], result.raw["migrations"]

    calls, migrations = benchmark(run)
    assert calls >= 10_000
    assert migrations == 0


@pytest.mark.benchmark(group="kernel")
def test_set_migration_throughput(benchmark):
    """Set transfers: 12 clients dragging unrestricted closures, 5k calls.

    The mirror of ``test_invocation_throughput``: ``closure`` +
    ``MigrationService.migrate`` dominate (about two objects moved per
    call), most members parking behind another mover first.
    """
    params = FIG16_BASE.with_overrides(
        clients=12,
        policy="migration",
        attachment_mode=AttachmentMode.UNRESTRICTED,
        seed=0,
    )
    stopping = StoppingConfig(
        relative_precision=1e-9,
        confidence=0.99,
        batch_size=400,
        warmup=500,
        min_batches=10,
        max_observations=5_000,
    )

    def run():
        result = LayeredWorkload(params, stopping=stopping).run()
        return result.raw["metrics"]["calls"], result.raw["migrations"]

    calls, migrations = benchmark(run)
    assert calls >= 5_000
    assert migrations > calls


@pytest.mark.benchmark(group="kernel")
def test_stats_accumulator_throughput(benchmark):
    """Welford + batch-means ingestion of 100k observations."""

    def run():
        rs, bm = RunningStats(), BatchMeans(batch_size=400)
        for i in range(100_000):
            v = (i * 2654435761 % 1000) / 1000.0
            rs.add(v)
            bm.add(v)
        return rs.count

    assert benchmark(run) == 100_000


@pytest.mark.benchmark(group="kernel")
def test_sleep_throughput(benchmark):
    """10k chained waits through the pooled ``env.sleep`` fast path."""

    def run():
        env = Environment()

        def proc(env):
            for _ in range(10_000):
                yield env.sleep(1.0)

        env.process(proc(env))
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


class _PreTelemetryNetwork(Network):
    """The message path exactly as it was before telemetry existed.

    Baseline for the overhead guard below: the current path adds one
    cached-boolean branch per message; replicating the old bodies here
    lets the guard measure that delta in-process instead of against
    stored numbers from a different machine.
    """

    def sample_latency(self, src, dst, stream=None):
        delay = self.latency.sample(src, dst, stream or self._stream)
        if src == dst:
            self.local_messages += 1
        else:
            self.remote_messages += 1
        self.total_latency += delay
        return delay

    def transmit(self, src, dst, stream=None):
        delay = self.sample_latency(src, dst, stream)
        dropped = self.faults is not None and self.faults.should_drop(src, dst)
        if delay > 0:
            yield self.env.sleep(delay)
        if dropped:
            self.dropped_messages += 1
            raise RuntimeError("unreachable: no fault model installed")
        return delay


@pytest.mark.benchmark(group="kernel")
def test_telemetry_disabled_overhead(benchmark):
    """Guard: NULL-telemetry transmit must stay within 2% of baseline.

    Interleaved min-of-N wall-clock comparison between the current
    network (NULL telemetry) and the pre-telemetry bodies; the ratio is
    recorded into ``BENCH_kernel.json`` via ``extra_info`` so the CI
    history tracks it.
    """

    def run_with(cls):
        env = Environment()
        net = cls(env, topology=FullyConnected(8), streams=RandomStreams(0))

        def proc(env):
            for i in range(10_000):
                yield from net.transmit(i % 8, (i + 1) % 8)

        env.process(proc(env))
        env.run()
        return net.remote_messages

    # Warm both paths, then interleave timings so drift hits both
    # equally; min-of-N discards scheduler noise.  A noisy machine can
    # still skew one whole pass by several percent, so the guard takes
    # the best of up to three independent passes before judging.
    run_with(Network), run_with(_PreTelemetryNetwork)

    def measure() -> float:
        current, baseline = [], []
        for _ in range(9):
            t0 = time.perf_counter()
            assert run_with(Network) == 10_000
            current.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            assert run_with(_PreTelemetryNetwork) == 10_000
            baseline.append(time.perf_counter() - t0)
        return (min(current) / min(baseline) - 1.0) * 100.0, min(baseline)

    overhead_pct, baseline_best = measure()
    for _ in range(2):
        if overhead_pct < 2.0:
            break
        overhead_pct, baseline_best = min(
            (overhead_pct, baseline_best), measure()
        )
    benchmark.extra_info["telemetry_disabled_overhead_pct"] = round(
        overhead_pct, 3
    )
    benchmark.extra_info["baseline_best_s"] = round(baseline_best, 6)
    benchmark(lambda: run_with(Network))
    assert overhead_pct < 2.0, (
        f"disabled-telemetry transmit is {overhead_pct:.2f}% slower than "
        f"the pre-telemetry baseline (budget: 2%)"
    )


@pytest.mark.benchmark(group="kernel")
def test_condition_lookup_throughput(benchmark):
    """AllOf with wide fan-in plus per-member result lookups."""

    def run():
        env = Environment()
        matched = 0

        def proc(env):
            nonlocal matched
            for _ in range(50):
                waits = [env.timeout(1.0) for _ in range(100)]
                value = yield AllOf(env, waits)
                matched += sum(1 for w in waits if w in value)

        env.process(proc(env))
        env.run()
        return matched

    assert benchmark(run) == 5_000


@pytest.mark.benchmark(group="kernel")
def test_live_read_loop_telemetry_overhead(benchmark):
    """Guard: the idle observer hook must stay within 2% of baseline.

    The live transport's read loop gained an ``observer`` seam (the
    crash flight recorder) that costs one attribute read and a branch
    per frame when disabled.  This drives ``FrameDecoder.feed`` +
    ``_dispatch`` over pre-encoded envelopes against a subclass with
    the pre-observer dispatch body, interleaved min-of-N, and records
    the ratio into ``BENCH_kernel.json`` via ``extra_info``.
    """
    import asyncio

    from repro.runtime.live.framing import FrameDecoder, encode_frame
    from repro.runtime.live.transport import AsyncioTransport
    from repro.runtime.live.wire import Envelope, EnvelopeFactory

    class _PreObserverTransport(AsyncioTransport):
        async def _dispatch(self, envelope):
            self.frames_received += 1
            if self.dedup.seen(envelope.msg_id):
                return
            if envelope.reply_to is not None:
                future = self._pending.pop(envelope.reply_to, None)
                if future is not None and not future.done():
                    future.set_result(envelope)
                return
            if self.handler is not None:
                self._spawn(self._run_handler(envelope))

    factory = EnvelopeFactory(2)
    frames = b"".join(
        encode_frame(
            factory.make("bench", 1, {"object_id": i}).encode(), 1 << 20
        )
        for i in range(10_000)
    )
    peers = {1: ("tcp", "127.0.0.1", 1), 2: ("tcp", "127.0.0.1", 2)}

    def run_with(cls):
        transport = cls(1, peers[1], peers)

        async def drive():
            decoder = FrameDecoder(1 << 20)
            count = 0
            for blob in decoder.feed(frames):
                await transport._dispatch(Envelope.decode(blob))
                count += 1
            return count

        return asyncio.run(drive())

    run_with(AsyncioTransport), run_with(_PreObserverTransport)

    def measure() -> float:
        current, baseline = [], []
        for _ in range(9):
            t0 = time.perf_counter()
            assert run_with(AsyncioTransport) == 10_000
            current.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            assert run_with(_PreObserverTransport) == 10_000
            baseline.append(time.perf_counter() - t0)
        return (min(current) / min(baseline) - 1.0) * 100.0, min(baseline)

    # Best of up to three passes: one pass can be skewed by machine
    # noise larger than the effect being measured.
    overhead_pct, baseline_best = measure()
    for _ in range(2):
        if overhead_pct < 2.0:
            break
        overhead_pct, baseline_best = min(
            (overhead_pct, baseline_best), measure()
        )
    benchmark.extra_info["live_read_loop_overhead_pct"] = round(
        overhead_pct, 3
    )
    benchmark.extra_info["baseline_best_s"] = round(baseline_best, 6)
    benchmark(lambda: run_with(AsyncioTransport))
    assert overhead_pct < 2.0, (
        f"idle-observer read loop is {overhead_pct:.2f}% slower than "
        f"the pre-observer baseline (budget: 2%)"
    )
