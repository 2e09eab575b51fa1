"""Sharded-kernel benchmarks: window-sync scaling and hot-spot capacity.

Three benches:

* ``test_shard_window_throughput`` — one large Fig-12-style cell per
  shard count (1/2/4/8); wall time, window count and message volume go
  into ``BENCH_shard.json`` via ``extra_info``.
* ``test_shard_speedup_fig12_style`` — the acceptance measurement:
  4-shard vs 1-shard wall time on the same cell.  The >= 2.5x speedup
  assertion only applies on machines with >= 4 usable cores (the
  sharded run degrades to the inline backend on small boxes, which
  adds window overhead instead of removing wall time); the measured
  ratio and the core count are always recorded.
* ``test_hotspot_capacity`` — the >= 100k-client / >= 10k-object
  hot-spot scenario at 1 % scale, checked against the closed-form
  remote round-trip and a same-scale reference run on half the shard
  count.
"""

import os
from pathlib import Path

import pytest

from repro.sim.shard.hotspot import run_hotspot
from repro.sim.shard.partition import ShardPlan
from repro.sim.shard.runner import run_sharded_cell
from repro.sim.stopping import StoppingConfig
from repro.workload.params import SimulationParameters

RESULTS_DIR = Path(__file__).parent / "results"

#: Stopping rule for the scaling cells: enough observations that the
#: per-window overhead dominates, small enough to finish quickly.
SHARD_STOPPING = StoppingConfig(
    relative_precision=0.05,
    confidence=0.95,
    batch_size=200,
    warmup=200,
    min_batches=5,
    max_observations=25_000,
)


def scaling_params(seed: int = 0) -> SimulationParameters:
    """A Fig-12-style heavy-client cell (the sharding sweet spot)."""
    return SimulationParameters(
        nodes=32,
        clients=64,
        servers_layer1=16,
        policy="placement",
        seed=seed,
    )


def total_calls(result) -> int:
    """Call count from either raw shape.

    Sharded results report ``raw["calls"]`` at top level; the
    ``shards == 1`` path returns the unsharded kernel's raw dict
    verbatim (bit-identity contract), where the count lives under
    ``raw["metrics"]["calls"]``.
    """
    if "calls" in result.raw:
        return result.raw["calls"]
    return result.raw["metrics"]["calls"]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="shard-scaling")
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_shard_window_throughput(benchmark, shards):
    params = scaling_params()

    result = benchmark.pedantic(
        run_sharded_cell,
        args=(params, shards, SHARD_STOPPING),
        kwargs=dict(remote_fraction=0.05),
        rounds=1,
        iterations=1,
    )
    assert total_calls(result) > 0
    benchmark.extra_info.update(
        {
            "shards": shards,
            "backend": result.backend,
            "windows": result.windows,
            "wall_time_s": result.wall_time_s,
            "simulated_time": result.simulated_time,
            "calls": total_calls(result),
            "messages_exchanged": (
                result.raw.get("sync", {}).get("messages_exchanged", 0)
            ),
            "cores": usable_cores(),
        }
    )


@pytest.mark.benchmark(group="shard-speedup")
def test_shard_speedup_fig12_style(benchmark):
    """The ISSUE acceptance number: 4-shard speedup over 1 shard."""
    params = scaling_params()
    cores = usable_cores()

    def measure():
        base = run_sharded_cell(params, 1, SHARD_STOPPING)
        sharded = run_sharded_cell(
            params, 4, SHARD_STOPPING, remote_fraction=0.05
        )
        return base, sharded

    base, sharded = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = base.wall_time_s / max(sharded.wall_time_s, 1e-9)
    benchmark.extra_info.update(
        {
            "cores": cores,
            "backend": sharded.backend,
            "base_wall_time_s": base.wall_time_s,
            "sharded_wall_time_s": sharded.wall_time_s,
            "speedup_4_shards": speedup,
            "speedup_asserted": cores >= 4,
        }
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "shard_speedup.txt").write_text(
        f"cores={cores} backend={sharded.backend} "
        f"base={base.wall_time_s:.3f}s sharded={sharded.wall_time_s:.3f}s "
        f"speedup={speedup:.2f}x\n"
    )
    # Both configurations simulate the same workload shape.
    assert total_calls(base) > 0 and total_calls(sharded) > 0
    if cores >= 4 and sharded.backend == "process":
        assert speedup >= 2.5, (
            f"expected >= 2.5x on {cores} cores, measured {speedup:.2f}x"
        )


@pytest.mark.benchmark(group="shard-hotspot")
def test_hotspot_capacity(benchmark):
    """The hot-spot scenario (1 % scale) completes sharded, metrics sane."""
    shards = 8
    scale = 0.01

    result = benchmark.pedantic(
        run_hotspot,
        args=(shards,),
        kwargs=dict(scale=scale, stopping=SHARD_STOPPING),
        rounds=1,
        iterations=1,
    )
    assert total_calls(result) > 0
    remote = result.raw["remote"]
    assert remote["mean_round_trip"] == pytest.approx(
        remote["expected_round_trip"], rel=0.15
    )

    # A same-scale run on half the shards keeps per-shard density
    # identical, so the headline metric must agree: the partition is
    # an implementation detail, not a workload change.  (Different
    # *scales* genuinely differ — more servers per node changes the
    # contention mix — so the reference deliberately holds the
    # population fixed.)
    reference = run_hotspot(
        shards // 2, scale=scale, stopping=SHARD_STOPPING
    )
    assert result.mean_communication_time_per_call == pytest.approx(
        reference.mean_communication_time_per_call, rel=0.25
    )
    benchmark.extra_info.update(
        {
            "shards": shards,
            "scale": scale,
            "clients": result.params.clients,
            "servers": result.params.servers_layer1,
            "backend": result.backend,
            "windows": result.windows,
            "wall_time_s": result.wall_time_s,
            "mean_communication_time_per_call": (
                result.mean_communication_time_per_call
            ),
            "reference_shards": shards // 2,
            "reference_mean": reference.mean_communication_time_per_call,
            "remote_mean_round_trip": remote["mean_round_trip"],
            "remote_expected_round_trip": remote["expected_round_trip"],
        }
    )
