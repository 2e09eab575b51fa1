"""Unit + integration tests for the fragmentation study (§5 outlook)."""

import pytest

from repro.errors import ConfigurationError
from repro.fragmentation import FragmentationParameters, FragmentationWorkload
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import run_cell

TINY = StoppingConfig(
    relative_precision=0.2,
    confidence=0.9,
    batch_size=50,
    warmup=50,
    min_batches=3,
    max_observations=3_000,
)


class TestParameters:
    def test_defaults_valid(self):
        FragmentationParameters().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"clients": 0},
            {"logical_objects": 0},
            {"fragments_per_object": 0},
            {"touched_fraction": 0.0},
            {"touched_fraction": 1.5},
            {"migration_duration": -1},
            {"mean_calls_per_block": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FragmentationParameters(**kwargs).validate()

    def test_touched_count_rounds_up(self):
        p = FragmentationParameters(
            fragments_per_object=4, touched_fraction=0.3
        )
        assert p.touched_count == 2  # ceil(1.2)

    def test_touched_count_at_least_one(self):
        p = FragmentationParameters(
            fragments_per_object=1, touched_fraction=0.1
        )
        assert p.touched_count == 1


class TestStructure:
    def test_fragments_split_state(self):
        w = FragmentationWorkload(
            FragmentationParameters(
                logical_objects=2, fragments_per_object=4
            )
        )
        assert len(w.fragments) == 2
        for frags in w.fragments.values():
            assert len(frags) == 4
            assert all(f.size == pytest.approx(0.25) for f in frags)

    def test_k1_is_monolithic(self):
        w = FragmentationWorkload(
            FragmentationParameters(fragments_per_object=1)
        )
        for frags in w.fragments.values():
            assert len(frags) == 1
            assert frags[0].size == 1.0

    def test_fragment_transfer_time_scaled(self):
        w = FragmentationWorkload(
            FragmentationParameters(
                fragments_per_object=4, migration_duration=6.0
            )
        )
        fragment = w.fragments[0][0]
        assert w.system.migrations.duration_for(fragment) == pytest.approx(1.5)


class TestExecution:
    def test_cell_runs(self):
        result = run_cell(
            FragmentationParameters(
                policy="placement", clients=4, fragments_per_object=2, seed=1
            ),
            stopping=TINY,
        )
        assert result.mean_communication_time_per_call > 0
        assert result.raw["metrics"]["blocks"] > 0
        assert result.raw["migrations"] > 0

    def test_reproducible(self):
        params = FragmentationParameters(policy="migration", seed=9)
        a = run_cell(params, stopping=TINY)
        b = run_cell(params, stopping=TINY)
        assert (
            a.mean_communication_time_per_call
            == b.mean_communication_time_per_call
        )

    def test_registry_consistent_after_run(self):
        w = FragmentationWorkload(
            FragmentationParameters(policy="migration", clients=6, seed=2),
            stopping=TINY,
        )
        w.run()
        w.system.registry.check_consistency()

    def test_finer_fragments_reduce_conflict_cost(self):
        """The outlook's core claim at test scale."""
        coarse = run_cell(
            FragmentationParameters(
                policy="migration", clients=12, fragments_per_object=1, seed=3
            ),
            stopping=TINY,
        )
        fine = run_cell(
            FragmentationParameters(
                policy="migration", clients=12, fragments_per_object=4, seed=3
            ),
            stopping=TINY,
        )
        assert (
            fine.mean_communication_time_per_call
            < coarse.mean_communication_time_per_call
        )
