"""The hot-spot scaling scenario: a client population only sharding fits.

The paper's evaluation tops out at 20 clients (Fig 12); this scenario
scales the same workload shape to 100 000 clients hammering 10 000
movable objects — far past what one kernel instance can turn around in
reasonable wall-clock time, and exactly the shape sharding is for:
clients mostly work against their own shard's objects (where the full
migration/locking protocol runs unchanged) with a small cross-shard
hot-object fraction.

``scale`` shrinks the population proportionally for smoke tests and CI
(``scale=0.001`` → 100 clients / 10 objects), keeping every other knob
fixed so a downscaled run is a statistical reference for the full one.

Runnable directly::

    python -m repro.sim.shard.hotspot --shards 2 --scale 0.001
"""

from __future__ import annotations

from typing import Optional

from repro.sim.shard.partition import ShardPlan
from repro.sim.shard.runner import ShardedResult, run_sharded_cell
from repro.sim.stopping import StoppingConfig
from repro.workload.params import SimulationParameters

#: The full-size population (ISSUE floor: >=100k clients, >=10k objects).
HOTSPOT_CLIENTS = 100_000
HOTSPOT_SERVERS = 10_000
#: Nodes stay moderate: the scenario models many clients per node, and
#: placement is round-robin either way.
HOTSPOT_NODES = 256
#: Stopping-rule poll cadence (simulated time).  At this client density
#: observations accumulate thousands per window, so polling every
#: simulated 20.0 (10 windows) bounds overshoot past convergence.
HOTSPOT_POLL_INTERVAL = 20.0


def hotspot_params(scale: float = 1.0, seed: int = 0) -> SimulationParameters:
    """The global hot-spot cell at ``scale`` of the full population."""
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    clients = max(1, round(HOTSPOT_CLIENTS * scale))
    servers = max(1, round(HOTSPOT_SERVERS * scale))
    nodes = max(1, min(HOTSPOT_NODES, servers))
    return SimulationParameters(
        nodes=nodes,
        clients=clients,
        servers_layer1=servers,
        seed=seed,
    )


def hotspot_plan(
    shards: int,
    scale: float = 1.0,
    seed: int = 0,
    remote_fraction: float = 0.1,
    base_latency: float = 2.0,
) -> ShardPlan:
    """The sharding plan for the hot-spot cell.

    The population floors rise to ``shards`` so heavily downscaled
    smoke runs still give every shard at least one client and server.
    """
    params = hotspot_params(scale=scale, seed=seed)
    if params.clients < shards or params.servers_layer1 < shards:
        params = params.with_overrides(
            clients=max(params.clients, shards),
            servers_layer1=max(params.servers_layer1, shards),
            nodes=max(params.nodes, shards),
        )
    return ShardPlan(
        params=params,
        shards=shards,
        remote_fraction=remote_fraction,
        base_latency=base_latency,
    )


def run_hotspot(
    shards: int,
    scale: float = 1.0,
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
) -> ShardedResult:
    """Run the hot-spot scenario sharded; returns the merged result."""
    plan = hotspot_plan(shards, scale=scale, seed=seed)
    return run_sharded_cell(
        plan,
        stopping=stopping if stopping is not None else StoppingConfig.fast(),
        poll_interval=HOTSPOT_POLL_INTERVAL,
    )


def main(argv=None) -> int:
    """Small CLI for smoke runs and CI."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.shard.hotspot",
        description="Run the sharded hot-spot scenario once.",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.001)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    result = run_hotspot(args.shards, scale=args.scale, seed=args.seed)
    print(
        json.dumps(
            {
                "shards": result.shards,
                "clients": result.params.clients,
                "servers": result.params.servers_layer1,
                "windows": result.windows,
                "simulated_time": result.simulated_time,
                "wall_time_s": round(result.wall_time_s, 3),
                "mean_communication_time_per_call": (
                    result.mean_communication_time_per_call
                ),
                "calls": result.raw["calls"],
                "remote": result.raw["remote"],
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
