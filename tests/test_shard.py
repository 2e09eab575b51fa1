"""Unit tests for the sharded-kernel building blocks.

Covers the plan/partition math, the cross-shard message records and
their merge order, the shifted-exponential latency model, the
ShardRouter protocol, the worker-count clamping (REPRO_MAX_WORKERS)
and the configurable sleep-pool cap.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import max_workers_cap, resolve_workers
from repro.network.latency import (
    DeterministicLatency,
    NormalizedExponentialLatency,
    ShiftedExponentialLatency,
)
from repro.network.shardrouter import ShardRouter
from repro.replication import ReplicationParameters
from repro.sim.kernel import _SLEEP_POOL_MAX, Environment
from repro.sim.rng import RandomStreams
from repro.sim.shard.hotspot import hotspot_params, hotspot_plan
from repro.sim.shard.messages import (
    RemoteCall,
    RemoteReply,
    WindowBatch,
    merge_key,
    route_batches,
)
from repro.sim.shard.partition import ShardPlan, effective_shards
from repro.sim.shard.runner import run_sharded_cell
from repro.sim.shard.sync import ConservativeWindowSync, LocalShardHost
from repro.workload.params import SimulationParameters


def make_params(**overrides):
    defaults = dict(nodes=8, clients=8, servers_layer1=4, seed=7)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


class TestShardPlan:
    def test_partition_sums_to_totals(self):
        plan = ShardPlan(params=make_params(nodes=10, clients=13,
                                            servers_layer1=7), shards=3)
        assert sum(plan.nodes_of(s) for s in range(3)) == 10
        assert sum(plan.clients_of(s) for s in range(3)) == 13
        assert sum(plan.servers_of(s) for s in range(3)) == 7
        # Remainders go to the lowest shard ids.
        assert plan.clients_of(0) >= plan.clients_of(2)

    def test_lookahead_is_base_latency(self):
        plan = ShardPlan(params=make_params(), shards=2, base_latency=3.5)
        assert plan.lookahead == 3.5
        assert plan.window == 3.5

    def test_remote_mean_defaults_to_cell_latency(self):
        params = make_params(mean_message_latency=2.25)
        plan = ShardPlan(params=params, shards=2)
        assert plan.remote_latency_mean == 2.25
        explicit = ShardPlan(params=params, shards=2, remote_mean_latency=0.5)
        assert explicit.remote_latency_mean == 0.5

    def test_expected_remote_round_trip_closed_form(self):
        plan = ShardPlan(
            params=make_params(), shards=2, base_latency=2.0,
            remote_mean_latency=1.0,
        )
        assert plan.expected_remote_call_duration == 2 * (2.0 + 1.0) + 1.0

    def test_shard_seeds_distinct_and_deterministic(self):
        plan = ShardPlan(params=make_params(), shards=4)
        seeds = [plan.shard_seed(s) for s in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [plan.shard_seed(s) for s in range(4)]
        assert all(seed != plan.params.seed for seed in seeds)

    def test_shard_params_carry_slice_and_seed(self):
        plan = ShardPlan(params=make_params(), shards=2)
        sub = plan.shard_params(1)
        assert sub.clients == plan.clients_of(1)
        assert sub.nodes == plan.nodes_of(1)
        assert sub.servers_layer1 == plan.servers_of(1)
        assert sub.seed == plan.shard_seed(1)
        # Timing/policy knobs are inherited unchanged.
        assert sub.mean_interblock_time == plan.params.mean_interblock_time
        assert sub.policy == plan.params.policy

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(shards=0), "shards"),
            (dict(shards=2, remote_fraction=1.5), "remote_fraction"),
            (dict(shards=2, base_latency=0.0), "lookahead"),
            (dict(shards=9), "nodes"),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ShardPlan(params=make_params(), **kwargs)

    def test_layered_and_visit_rejected(self):
        layered = make_params(servers_layer2=2, use_alliances=True)
        with pytest.raises(ConfigurationError, match="layered"):
            ShardPlan(params=layered, shards=2)
        visit = make_params(block_style="visit")
        with pytest.raises(ConfigurationError, match="move"):
            ShardPlan(params=visit, shards=2)

    def test_single_shard_plan_always_valid(self):
        # shards=1 never partitions, so tiny/layered cells are fine.
        ShardPlan(params=SimulationParameters(seed=0), shards=1)

    def test_shard_id_bounds_checked(self):
        plan = ShardPlan(params=make_params(), shards=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.shard_seed(2)

    def test_with_shards_keeps_knobs(self):
        plan = ShardPlan(
            params=make_params(), shards=2, remote_fraction=0.2,
            base_latency=4.0,
        )
        other = plan.with_shards(4)
        assert other.shards == 4
        assert other.remote_fraction == 0.2
        assert other.base_latency == 4.0

    def test_describe_is_json_shaped(self):
        import json

        plan = ShardPlan(params=make_params(), shards=2)
        doc = plan.describe()
        json.dumps(doc)
        assert doc["shards"] == 2
        assert len(doc["seeds"]) == 2


class TestEffectiveShards:
    def test_clamps_to_smallest_population(self):
        assert effective_shards(make_params(clients=1), 4) == 1
        assert effective_shards(make_params(clients=3), 4) == 3
        assert effective_shards(make_params(), 4) == 4

    def test_unshardable_shapes_degrade_to_one(self):
        layered = make_params(servers_layer2=2, use_alliances=True)
        assert effective_shards(layered, 4) == 1
        visit = make_params(block_style="visit")
        assert effective_shards(visit, 4) == 1
        assert effective_shards(ReplicationParameters(), 4) == 1


class TestMessages:
    def test_merge_key_orders_by_time_shard_seq(self):
        msgs = [
            RemoteCall(src_shard=1, dst_shard=0, seq=5, send_time=0.0,
                       deliver_at=4.0),
            RemoteCall(src_shard=0, dst_shard=1, seq=9, send_time=0.0,
                       deliver_at=4.0),
            RemoteCall(src_shard=0, dst_shard=1, seq=2, send_time=0.0,
                       deliver_at=3.0),
        ]
        ordered = sorted(msgs, key=merge_key)
        assert [m.seq for m in ordered] == [2, 9, 5]

    def test_route_batches_groups_and_sorts(self):
        call = RemoteCall(src_shard=0, dst_shard=1, seq=1, send_time=0.0,
                          deliver_at=5.0)
        reply = RemoteReply(src_shard=1, dst_shard=0, seq=1, call_shard=0,
                            call_seq=1, send_time=0.0, deliver_at=4.0,
                            service_time=1.0)
        early = RemoteCall(src_shard=1, dst_shard=0, seq=2, send_time=0.0,
                           deliver_at=3.0)
        batches = [
            WindowBatch(window=1, src_shard=0, messages=(call,)),
            WindowBatch(window=1, src_shard=1, messages=(reply, early)),
        ]
        inbound = route_batches(batches, shards=2)
        assert inbound[1] == [call]
        assert inbound[0] == [early, reply]  # sorted by deliver_at
        # Arrival order of batches must not matter.
        assert route_batches(list(reversed(batches)), shards=2) == inbound

    def test_call_id_correlation(self):
        call = RemoteCall(src_shard=2, dst_shard=0, seq=7, send_time=1.0,
                          deliver_at=9.0)
        reply = RemoteReply(src_shard=0, dst_shard=2, seq=1, call_shard=2,
                            call_seq=7, send_time=9.5, deliver_at=12.0,
                            service_time=0.5)
        assert call.call_id == reply.call_id == (2, 7)


class TestShiftedExponentialLatency:
    def test_min_delay_is_base_for_remote_zero_for_local(self):
        model = ShiftedExponentialLatency(base=2.0, mean=1.0)
        assert model.min_delay(0, 1) == 2.0
        assert model.min_delay(3, 3) == 0.0

    def test_samples_never_below_base(self):
        model = ShiftedExponentialLatency(base=2.0, mean=1.0)
        stream = RandomStreams(1).stream("lat")
        samples = [model.sample(0, 1, stream) for _ in range(500)]
        assert min(samples) >= 2.0
        assert model.sample(4, 4, stream) == 0.0

    def test_mean_and_validation(self):
        model = ShiftedExponentialLatency(base=2.0, mean=1.5)
        assert model.mean(0, 1) == 3.5
        assert model.mean(2, 2) == 0.0
        with pytest.raises(ValueError):
            ShiftedExponentialLatency(base=-1.0, mean=1.0)

    def test_base_latency_models_default_min_delay(self):
        assert NormalizedExponentialLatency(1.0).min_delay(0, 1) == 0.0
        assert DeterministicLatency(2.5).min_delay(0, 1) == 2.5
        assert DeterministicLatency(2.5).min_delay(1, 1) == 0.0


class TestShardRouter:
    def make_router(self, shard_id=0, shards=2, on_call=None):
        env = Environment()
        stream = RandomStreams(9).stream(f"link.{shard_id}")
        router = ShardRouter(
            env, shard_id=shard_id, shards=shards, base_latency=2.0,
            mean_latency=1.0, stream=stream, on_call=on_call,
        )
        return env, router

    def test_zero_base_latency_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError, match="positive"):
            ShardRouter(env, shard_id=0, shards=2, base_latency=0.0,
                        mean_latency=1.0,
                        stream=RandomStreams(0).stream("x"))

    def test_send_to_self_and_out_of_range_rejected(self):
        _, router = self.make_router()
        with pytest.raises(ConfigurationError, match="remote lane"):
            router.send_call(0)
        with pytest.raises(ConfigurationError, match="out of range"):
            router.send_call(2)

    def test_send_call_batches_with_lookahead_delay(self):
        _, router = self.make_router()
        router.send_call(1)
        router.send_call(1)
        batch = router.drain()
        assert len(batch) == 2
        assert [m.seq for m in batch] == [1, 2]
        assert all(m.deliver_at >= 2.0 for m in batch)  # >= lookahead
        assert router.drain() == []  # drained
        assert router.pending_calls == 2

    def test_round_trip_resolves_pending_event(self):
        served = []
        env0, r0 = self.make_router(shard_id=0)
        r1_env = env0  # same env: deterministic single-clock harness
        r1 = ShardRouter(
            r1_env, shard_id=1, shards=2, base_latency=2.0, mean_latency=1.0,
            stream=RandomStreams(9).stream("link.1"),
            on_call=lambda call: served.append(call),
        )

        durations = []

        def client():
            duration = yield r0.send_call(1)
            durations.append(duration)

        env0.process(client())
        env0.run(until=0.5)
        # Barrier: move shard-0's batch to shard 1.
        r1.deliver(router_batch := r0.drain())
        env0.run(until=10.0)
        assert len(served) == 1
        # Serve: reply immediately, next barrier ships it back.
        r1.send_reply(served[0], service_time=0.0)
        r0.deliver(r1.drain())
        env0.run(until=30.0)
        assert len(durations) == 1
        assert durations[0] >= 2 * 2.0  # two link traversals minimum
        assert r0.pending_calls == 0
        assert router_batch[0].deliver_at >= 2.0

    def test_delivery_into_the_past_rejected(self):
        env, router = self.make_router()
        env.run(until=50.0)
        stale = RemoteCall(src_shard=1, dst_shard=0, seq=1, send_time=0.0,
                           deliver_at=10.0)
        with pytest.raises(RuntimeError, match="conservative sync violated"):
            router.deliver([stale])

    def test_inbound_call_without_handler_raises(self):
        env, router = self.make_router(on_call=None)
        call = RemoteCall(src_shard=1, dst_shard=0, seq=1, send_time=0.0,
                          deliver_at=2.0)
        router.deliver([call])
        with pytest.raises(RuntimeError, match="no on_call handler"):
            env.run(until=5.0)

    def test_stats_counters(self):
        _, router = self.make_router()
        router.send_call(1)
        router.drain()
        stats = router.stats()
        assert stats["calls_sent"] == 1
        assert stats["batches_out"] == 1
        assert stats["max_batch"] == 1
        assert stats["pending_calls"] == 1


class TestWindowSyncValidation:
    def test_hosts_must_cover_plan_exactly(self):
        plan = ShardPlan(params=make_params(), shards=2)
        host = LocalShardHost(plan, [0])
        with pytest.raises(ValueError, match="hosts cover"):
            ConservativeWindowSync(plan, [host])

    def test_poll_cadence_at_least_one_window(self):
        plan = ShardPlan(params=make_params(), shards=2, base_latency=100.0)
        hosts = [LocalShardHost(plan, [0, 1])]
        sync = ConservativeWindowSync(plan, hosts, poll_interval=1.0)
        assert sync.poll_windows == 1

    def test_collect_without_dispatch_raises(self):
        plan = ShardPlan(params=make_params(), shards=2)
        host = LocalShardHost(plan, [0, 1])
        with pytest.raises(RuntimeError, match="without a dispatched"):
            host.collect()


class TestRunnerValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            run_sharded_cell(make_params(), 2, backend="threads")


class TestMaxWorkersCap:
    def test_unset_and_empty_mean_no_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert max_workers_cap() is None
        monkeypatch.setenv("REPRO_MAX_WORKERS", "  ")
        assert max_workers_cap() is None

    def test_caps_auto_and_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert resolve_workers("auto") == 1
        assert resolve_workers(8) == 1

    def test_cap_above_request_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "1.5"])
    def test_invalid_cap_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MAX_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS"):
            resolve_workers("auto")

    def test_auto_clamped_to_at_least_one(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers("auto") == 1


class TestSleepPoolCap:
    def run_sleepers(self, env, count=20):
        def sleeper():
            for _ in range(3):
                yield env.sleep(1.0)

        for _ in range(count):
            env.process(sleeper())
        env.run(until=10.0)

    def test_default_cap_is_module_constant(self):
        env = Environment()
        assert env._sleep_pool_cap == _SLEEP_POOL_MAX

    def test_custom_cap_bounds_pool(self):
        env = Environment(sleep_pool_cap=4)
        self.run_sleepers(env)
        assert len(env._sleep_pool) <= 4

    def test_zero_cap_disables_pooling(self):
        env = Environment(sleep_pool_cap=0)
        self.run_sleepers(env)
        assert len(env._sleep_pool) == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="sleep_pool_cap"):
            Environment(sleep_pool_cap=-1)

    def test_capped_environment_still_deterministic(self):
        from repro.sim.stopping import StoppingConfig
        from repro.workload.clientserver import run_cell

        params = make_params(clients=4)
        base = run_cell(params, stopping=StoppingConfig.fast())
        # The cap changes only recycling, never event order.
        again = run_cell(params, stopping=StoppingConfig.fast())
        assert base.mean_communication_time_per_call == (
            again.mean_communication_time_per_call
        )


class TestHotspot:
    def test_full_scale_meets_issue_floor(self):
        params = hotspot_params(scale=1.0)
        assert params.clients >= 100_000
        assert params.servers_layer1 >= 10_000

    def test_downscaled_plan_keeps_every_shard_populated(self):
        plan = hotspot_plan(8, scale=0.0001)
        assert plan.params.clients >= 8
        assert plan.params.servers_layer1 >= 8
        assert min(plan.clients_of(s) for s in range(8)) >= 1

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="scale"):
            hotspot_params(scale=0.0)
