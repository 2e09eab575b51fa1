"""Tests for experiment result persistence (JSON round-trip)."""

import json

import pytest

from repro.availability import FaultToleranceParameters
from repro.core.attachment import AttachmentMode
from repro.experiments.config import ExperimentDef, SeriesDef
from repro.experiments.persistence import (
    FORMAT_VERSION,
    load_result,
    params_from_dict,
    params_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.experiments.runner import ExperimentResult, run_figure
from repro.runtime.retry import RetryPolicy
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import WorkloadResult
from repro.workload.params import SimulationParameters

TINY = StoppingConfig(
    relative_precision=0.3,
    confidence=0.9,
    batch_size=40,
    warmup=40,
    min_batches=2,
    max_observations=1_500,
)


@pytest.fixture(scope="module")
def result() -> ExperimentResult:
    base = SimulationParameters(
        policy="placement", attachment_mode=AttachmentMode.A_TRANSITIVE
    )
    defn = ExperimentDef(
        exp_id="persist-test",
        title="Persistence",
        x_label="t_m",
        x_values=(10.0, 40.0),
        series=(
            SeriesDef(
                "placement",
                lambda tm: base.with_overrides(mean_interblock_time=tm),
            ),
        ),
        notes="round-trip fixture",
    )
    return run_figure(defn, stopping=TINY)


class TestRoundTrip:
    def test_dict_round_trip_preserves_series(self, result):
        data = result_to_dict(result)
        back = result_from_dict(data)
        assert back.definition.exp_id == "persist-test"
        assert back.definition.x_values == (10.0, 40.0)
        assert back.series("placement") == result.series("placement")

    def test_params_survive_round_trip(self, result):
        back = result_from_dict(result_to_dict(result))
        cell = back.results["placement"][0]
        assert cell.params.policy == "placement"
        assert cell.params.attachment_mode is AttachmentMode.A_TRANSITIVE
        assert cell.params.mean_interblock_time == 10.0

    def test_file_round_trip(self, result, tmp_path):
        path = save_result(result, tmp_path / "nested" / "out.json")
        assert path.exists()
        back = load_result(path)
        assert back.series("placement") == result.series("placement")

    def test_document_is_valid_json_with_version(self, result, tmp_path):
        path = save_result(result, tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["notes"] == "round-trip fixture"

    def test_unsupported_version_rejected(self, result):
        data = result_to_dict(result)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported format version"):
            result_from_dict(data)

    def test_raw_metadata_preserved(self, result):
        back = result_from_dict(result_to_dict(result))
        raw = back.results["placement"][0].raw
        assert raw["policy"]["policy"] == "placement"
        assert "metrics" in raw


class TestOutlookCells:
    PARAMS = FaultToleranceParameters(
        loss=0.05, retry=RetryPolicy(max_attempts=6, timeout=4.0)
    )

    def test_nested_dataclass_field_round_trips(self):
        data = json.loads(json.dumps(params_to_dict(self.PARAMS)))
        assert data["retry"]["max_attempts"] == 6
        assert params_from_dict(data, FaultToleranceParameters) == self.PARAMS

    def test_file_round_trip_keeps_the_parameter_class(self, tmp_path):
        definition = ExperimentDef(
            exp_id="ft",
            title="Fault tolerance",
            x_label="loss",
            x_values=(0.05,),
            series=(SeriesDef("placement", lambda x: self.PARAMS),),
            metric="mean_call_duration",
        )
        cell = WorkloadResult(
            self.PARAMS, {"mean_call_duration": 1.5, "retries": 3}, 10.0
        )
        result = ExperimentResult(definition, {"placement": [cell]})
        back = load_result(save_result(result, tmp_path / "ft.json"))
        loaded = back.results["placement"][0]
        assert loaded.params == self.PARAMS
        assert back.series("placement") == [1.5]
        assert loaded.retries == 3

