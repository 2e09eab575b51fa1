"""Determinism and statistical-validity guards for the sharded kernel.

The contract (ISSUE 7):

* ``shards == 1`` is *bit-identical* to the unsharded kernel — metrics
  and golden trace, equality on floats;
* the same seed + the same plan reproduce the merged result exactly,
  whether the plan runs in this process or on the experiment
  executor's pool, through :func:`run_sharded_cell` or
  :func:`run_cell`;
* different shard counts are different simulations (different RNG
  partitions) but must agree statistically — same workload, same
  expectations;
* the cross-shard round trip has a closed-form mean
  ``2*(base + mean_latency) + 1`` the measured mean must approach;
* a sweep's sharded table does not depend on ``--workers`` or
  ``--cache``.
"""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import params_to_dict
from repro.sim.shard.partition import ShardPlan
from repro.sim.shard.runner import merge_traces, run_sharded_cell
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import run_cell
from repro.workload.params import SimulationParameters

FAST = StoppingConfig.fast()

#: Loose-but-quick rule for the trace and sweep comparisons.
TINY = StoppingConfig(
    relative_precision=0.3,
    confidence=0.9,
    batch_size=40,
    warmup=40,
    min_batches=2,
    max_observations=1_200,
)


def make_params(**overrides):
    defaults = dict(nodes=8, clients=8, servers_layer1=4, seed=42)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def _fingerprint(result):
    """Canonical serialization of everything a sharded result reports.

    ``barrier_wait_s`` is wall-clock (host timing, not simulation
    state), so it is the one field excluded from the bit-identity
    check.
    """
    raw = json.loads(json.dumps(result.raw))  # deep copy
    if "sync" in raw:
        raw["sync"].pop("barrier_wait_s", None)
    document = {
        "params": params_to_dict(result.params),
        "mean_communication_time_per_call": (
            result.mean_communication_time_per_call
        ),
        "mean_call_duration": result.mean_call_duration,
        "mean_migration_time_per_call": result.mean_migration_time_per_call,
        "simulated_time": result.simulated_time,
        "raw": raw,
        "shards": result.shards,
        "windows": result.windows,
    }
    return json.dumps(document, sort_keys=True)


#: Trace detail keys whose values are process-global MoveBlock ids.
_BLOCK_ID_KEYS = frozenset({"block", "holder"})


def _trace_fingerprint(records):
    """Trace identity modulo the process-global move-block counter.

    ``MoveBlock`` ids come from an interpreter-wide counter, so two
    runs in the same process (or different worker processes) disagree
    on the absolute ids while the event sequence is identical.  Those
    ids are renumbered by first appearance, which preserves the
    identity *structure* (which events concern the same block) while
    ignoring the counter offset.
    """
    remap = {}

    def canon(value):
        if value not in remap:
            remap[value] = len(remap)
        return remap[value]

    out = []
    for r in records:
        detail = tuple(
            (k, canon(v) if k in _BLOCK_ID_KEYS else v)
            for k, v in sorted(r.detail.items())
        )
        out.append((r.time, r.kind, detail))
    return out


class TestSingleShardDelegation:
    """``--shards 1`` must be the existing kernel, bit for bit."""

    def test_metrics_bit_identical_to_run_cell(self):
        params = make_params()
        baseline = run_cell(params, stopping=FAST)
        sharded = run_sharded_cell(params, 1, FAST)
        assert sharded.windows == 0
        assert sharded.mean_communication_time_per_call == (
            baseline.mean_communication_time_per_call
        )
        assert sharded.mean_call_duration == baseline.mean_call_duration
        assert sharded.mean_migration_time_per_call == (
            baseline.mean_migration_time_per_call
        )
        assert sharded.simulated_time == baseline.simulated_time
        assert sharded.raw == baseline.raw

    def test_trace_bit_identical_to_run_cell(self):
        from repro.sim.trace import Tracer

        params = make_params(clients=4)
        tracer = Tracer()
        run_cell(params, stopping=TINY, tracer=tracer)
        sharded = run_sharded_cell(params, 1, TINY, trace=True)
        assert _trace_fingerprint(sharded.trace_records) == (
            _trace_fingerprint(tracer.records)
        )
        assert len(sharded.trace_records) > 0


class TestSameSeedSamePartition:
    def test_repeated_inline_runs_bit_identical(self):
        params = make_params()
        a = run_sharded_cell(params, 2, FAST)
        b = run_sharded_cell(params, 2, FAST)
        assert _fingerprint(a) == _fingerprint(b)

    def test_repeated_runs_merge_identical_traces(self):
        params = make_params(clients=4)
        a = run_sharded_cell(params, 2, TINY, trace=True)
        b = run_sharded_cell(params, 2, TINY, trace=True)
        assert len(a.trace_records) > 0
        assert _trace_fingerprint(a.trace_records) == (
            _trace_fingerprint(b.trace_records)
        )

    def test_merged_trace_is_in_canonical_order(self):
        params = make_params(clients=4)
        result = run_sharded_cell(params, 2, TINY, trace=True)
        times = [r.time for r in result.trace_records]
        assert times == sorted(times)


class TestPooledCells:
    """A plan is a cell: the executor's pool and cache run it unchanged."""

    def test_run_cell_runs_a_plan(self):
        from repro.sim.trace import Tracer

        plan = ShardPlan(params=make_params(clients=4), shards=2)
        direct = run_sharded_cell(plan, stopping=TINY, trace=True)
        tracer = Tracer()
        via_run_cell = run_cell(plan, stopping=TINY, tracer=tracer)
        assert _fingerprint(via_run_cell) == _fingerprint(direct)
        assert _trace_fingerprint(tracer.records) == (
            _trace_fingerprint(direct.trace_records)
        )

    def test_pooled_plan_bit_identical_to_inline(self):
        plans = [
            ShardPlan(params=make_params(), shards=2, remote_fraction=0.05),
            ShardPlan(params=make_params(), shards=4, remote_fraction=0.1),
        ]
        inline = [run_sharded_cell(plan, stopping=TINY) for plan in plans]
        pooled = ParallelExecutor(workers=2).run_cells(
            [(plan, TINY) for plan in plans]
        )
        assert [_fingerprint(r) for r in pooled] == [
            _fingerprint(r) for r in inline
        ]

    def test_cache_hit_returns_the_global_cell(self, tmp_path):
        from repro.experiments.cache import CellCache

        plan = ShardPlan(params=make_params(), shards=2)
        cache = CellCache(tmp_path)
        computed = run_cell(plan, stopping=TINY)
        cache.put(plan, TINY, computed)
        hit = cache.get(plan, TINY)
        assert hit.params == plan.params == computed.params
        assert hit.metrics == computed.metrics

    @pytest.fixture
    def tiny_fast(self, monkeypatch):
        monkeypatch.setattr(StoppingConfig, "fast", staticmethod(lambda: TINY))

    def test_cli_workers_do_not_change_sharded_table(self, tiny_fast, capsys):
        argv = ["fig12", "--fast", "--shards", "2"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_warm_cache_rerun_executes_no_cells(
        self, tiny_fast, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["fig12", "--fast", "--shards", "2", "--cache"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "(0 cells simulated)" in warm.err
        assert "(0 cells simulated)" not in cold.err


class TestStatisticalValidity:
    def test_remote_round_trip_matches_closed_form(self):
        plan = ShardPlan(
            params=make_params(clients=16, nodes=16, servers_layer1=8),
            shards=2,
            remote_fraction=0.3,
            base_latency=2.0,
            remote_mean_latency=1.0,
        )
        result = run_sharded_cell(plan, stopping=FAST)
        remote = result.raw["remote"]
        assert remote["calls"] > 500
        expected = plan.expected_remote_call_duration
        assert remote["mean_round_trip"] == pytest.approx(expected, rel=0.10)

    def test_shard_counts_agree_statistically(self):
        """2 vs 4 shards: different RNG partitions, same expectations.

        With ``remote_fraction=0`` every shard is an independent copy
        of the same client/server density, so the merged mean must sit
        near the unsharded mean regardless of the partition.
        """
        params = make_params(clients=16, nodes=16, servers_layer1=8)
        reference = run_cell(params, stopping=FAST)
        ref = reference.mean_communication_time_per_call
        for shards in (2, 4):
            result = run_sharded_cell(
                params, shards, FAST, remote_fraction=0.0
            )
            assert result.mean_communication_time_per_call == pytest.approx(
                ref, rel=0.25
            ), shards

    def test_telemetry_does_not_perturb_results(self):
        from repro.telemetry.core import Telemetry

        params = make_params()
        plain = run_sharded_cell(params, 2, FAST)
        instrumented = run_sharded_cell(
            params, 2, FAST, telemetry=Telemetry()
        )
        assert _fingerprint(plain) == _fingerprint(instrumented)

    def test_hotspot_agrees_at_half_the_shards(self):
        """The hot-spot cell at N and N/2 shards: same workload.

        Holding the population fixed keeps the per-shard client/server
        density identical, so the headline metric must agree — the
        partition is an implementation detail, not a workload change.
        (Different *scales* genuinely differ: more servers per node
        changes the contention mix.)
        """
        from repro.sim.shard.hotspot import run_hotspot

        result = run_hotspot(4, scale=0.003, stopping=FAST)
        reference = run_hotspot(2, scale=0.003, stopping=FAST)
        remote = result.raw["remote"]
        assert remote["mean_round_trip"] == pytest.approx(
            remote["expected_round_trip"], rel=0.15
        )
        assert result.mean_communication_time_per_call == pytest.approx(
            reference.mean_communication_time_per_call, rel=0.25
        )

    def test_hotspot_smoke_matches_downscaled_reference(self):
        """The CI smoke: a small hot-spot run with sane aggregates."""
        from repro.sim.shard.hotspot import run_hotspot

        result = run_hotspot(2, scale=0.001, stopping=TINY)
        assert result.shards == 2
        assert result.raw["calls"] > 0
        assert result.raw["remote"]["calls"] > 0
        expected = result.raw["remote"]["expected_round_trip"]
        assert result.raw["remote"]["mean_round_trip"] == pytest.approx(
            expected, rel=0.25
        )
