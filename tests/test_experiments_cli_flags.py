"""CLI flag coverage: --plot, --json, outlook studies, error paths."""

import json
from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main
from repro.sim.stopping import StoppingConfig

TINY = StoppingConfig(
    relative_precision=0.3,
    confidence=0.9,
    batch_size=40,
    warmup=40,
    min_batches=2,
    max_observations=1_200,
)


@pytest.fixture(autouse=True)
def fast_is_tiny(monkeypatch):
    """Make --fast use the tiny test rule so CLI tests stay quick."""
    monkeypatch.setattr(StoppingConfig, "fast", staticmethod(lambda: TINY))


class TestFlags:
    def test_plot_flag_renders_chart(self, capsys):
        rc = main(["fig8", "--fast", "--plot"])
        assert rc == 0
        out = capsys.readouterr().out
        # Chart gutter and legend markers.
        assert " |" in out
        assert "*  without Migration" in out

    def test_json_flag_writes_loadable_document(self, tmp_path, capsys):
        target = tmp_path / "fig8.json"
        rc = main(["fig8", "--fast", "--json", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["exp_id"] == "fig8"
        from repro.experiments.persistence import load_result

        result = load_result(target)
        assert result.labels == [
            "without Migration",
            "Migration",
            "Transient Placement",
        ]

    def test_outlook_choice_accepted_by_parser(self):
        parser = build_parser()
        args = parser.parse_args(["availability", "--fast"])
        assert args.figure == "availability"

    def test_unknown_figure_rejected_by_parser(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_seed_changes_results(self, capsys):
        main(["fig8", "--fast", "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["fig8", "--fast", "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1 != out2


class TestLiveFlags:
    """Parsing and guard paths for the live demo (the demo itself runs
    in test_live_supervisor.py)."""

    def test_live_choice_and_options_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            ["live", "--nodes", "4", "--objects", "60", "--duration", "10"]
        )
        assert args.figure == "live"
        assert args.nodes == 4
        assert args.objects == 60
        assert args.duration == 10.0

    def test_live_options_rejected_for_figures(self, capsys):
        rc = main(["fig8", "--nodes", "4"])
        assert rc == 2
        assert "only apply to the live demo" in capsys.readouterr().err

    def test_live_rejects_invalid_config(self, capsys):
        rc = main(["live", "--nodes", "0"])
        assert rc == 2
        assert "invalid live config" in capsys.readouterr().err

    def test_arbitration_and_kill_supervisor_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["live", "--arbitration", "home", "--kill-supervisor"]
        )
        assert args.arbitration == "home"
        assert args.kill_supervisor is True
        # central is the default, and only the two modes parse.
        assert parser.parse_args(["live"]).arbitration == "central"
        with pytest.raises(SystemExit):
            parser.parse_args(["live", "--arbitration", "quorum"])

    def test_arbitration_rejected_for_figures(self, capsys):
        rc = main(["fig8", "--arbitration", "home"])
        assert rc == 2
        assert "only apply to the live demo" in capsys.readouterr().err

    def test_kill_supervisor_rejected_for_figures(self, capsys):
        rc = main(["fig8", "--kill-supervisor"])
        assert rc == 2
        assert "only apply to the live demo" in capsys.readouterr().err

    def test_violations_set_exit_code_and_json(
        self, tmp_path, monkeypatch, capsys
    ):
        """Exit 1 + a top-level 'violations' list in the JSON artifact."""
        import repro.runtime.live.demo as demo_module

        def fake_run_supervised(config, chaos=None, max_recoveries=2):
            return {
                "workers": config.num_nodes,
                "objects": config.num_objects,
                "arbitration": config.arbitration,
                "migrations": 10,
                "distinct_objects_moved": 5,
                "conflict_rate": 0.0,
                "abort_rate": 0.0,
                "crashes_injected": 0,
                "partitions_injected": 0,
                "restarts": 0,
                "leases_broken": 0,
                "invariant_violations": ["obj 3 duplicated at nodes 1 and 2"],
            }

        monkeypatch.setattr(
            demo_module, "run_supervised", fake_run_supervised
        )
        target = tmp_path / "live.json"
        rc = main(
            ["live", "--fast", "--no-chaos", "--json", str(target)]
        )
        assert rc == 1
        doc = json.loads(target.read_text())
        assert doc["violations"] == ["obj 3 duplicated at nodes 1 and 2"]
        out = capsys.readouterr().out
        assert "!! obj 3 duplicated" in out

    def test_supervision_failure_sets_exit_code(self, monkeypatch, capsys):
        import repro.runtime.live.demo as demo_module
        from repro.errors import SupervisionError

        def doomed(config, chaos=None, max_recoveries=2):
            raise SupervisionError("supervisor died 3 times")

        monkeypatch.setattr(demo_module, "run_supervised", doomed)
        rc = main(["live", "--fast", "--no-chaos"])
        assert rc == 1
        assert "live demo failed" in capsys.readouterr().err


class TestCheckFlag:
    def test_check_reports_verdicts(self, capsys):
        """The flag prints one verdict per claim and sets the exit code.

        Under this test module's ultra-loose stopping rule individual
        verdicts can flip, so only the mechanism is asserted here; the
        claims themselves pass under ``StoppingConfig.fast()`` (see
        test_integration_paper_shapes).
        """
        rc = main(["fig8", "--fast", "--check"])
        out = capsys.readouterr().out
        assert "paper claims hold" in out
        verdict_lines = [
            l for l in out.splitlines() if l.startswith(("[PASS]", "[FAIL]"))
        ]
        assert len(verdict_lines) == 5
        failures = [l for l in verdict_lines if l.startswith("[FAIL]")]
        assert rc == (1 if failures else 0)

    def test_all_check_reports_every_figure_after_a_failure(
        self, monkeypatch, capsys
    ):
        """One failed claim fails the run at the end, not the loop."""
        import repro.experiments.cli as cli
        from repro.experiments.expectations import PAPER_EXPECTATIONS, Claim
        from repro.experiments.figures import figure10, figure11

        monkeypatch.setattr(
            cli, "FIGURES", {"fig10": figure10, "fig11": figure11}
        )
        monkeypatch.setitem(
            PAPER_EXPECTATIONS,
            "fig10",
            [Claim("always fails", lambda r: (False, "forced"))],
        )
        rc = main(["all", "--fast", "--check"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] always fails" in out
        assert "'without Migration' performs no migrations" in out

    def test_outlook_check_prints_verdicts(self, monkeypatch, capsys):
        import repro.experiments.cli as cli
        from repro.experiments.runner import ExperimentResult
        from repro.workload.clientserver import WorkloadResult

        def fake_run_figure(definition, **_):
            definition = replace(definition, x_values=(0.99, 0.5))
            columns = {
                "none": [1.75, 1.75],
                "eager": [0.4, 1.8],
                "threshold": [0.9, 1.8],
            }
            return ExperimentResult(
                definition,
                {
                    label: [
                        WorkloadResult(None, {"mean_op_time": y}, 0.0)
                        for y in ys
                    ]
                    for label, ys in columns.items()
                },
            )

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        rc = main(["replication", "--check"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "replication: Replication vs Read Ratio" in out
        assert out.count("[PASS]") == 4 and out.count("[FAIL]") == 1


class TestOutlookFlags:
    """The outlook studies read the same flags as the figures."""

    def test_csv_flag_writes_the_outlook_table(self, tmp_path):
        path = tmp_path / "replication.csv"
        assert main(["replication", "--fast", "--csv", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "read_ratio,none,eager,threshold"
        assert len(lines) == 7

    def test_warm_cache_rerun_executes_no_cells(self, monkeypatch, tmp_path):
        import repro.experiments.cli as cli

        executors = []

        class Recording(cli.ParallelExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

        monkeypatch.setattr(cli, "ParallelExecutor", Recording)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["fragmentation", "--fast", "--cache", "--workers", "2"]
        assert main(argv) == 0
        assert main(argv) == 0
        cold, warm = executors
        assert cold.cells_executed == 8
        assert warm.cells_executed == 0
        assert warm.cache_hits == 8


class TestTelemetryFlag:
    def test_faulttolerance_telemetry_artifacts_validate(
        self, tmp_path, capsys
    ):
        from repro.telemetry.validate import main as validate_main

        out_dir = tmp_path / "telemetry"
        assert main(["faulttolerance", "--telemetry", str(out_dir)]) == 0
        artifacts = [
            out_dir / name
            for name in ("trace.json", "metrics.jsonl", "spans.jsonl")
        ]
        capsys.readouterr()
        assert validate_main([str(path) for path in artifacts]) == 0
        assert capsys.readouterr().out.count(": OK") == 3


#: The output and execution flags only the experiment sweeps read.
SWEEP_FLAGS = [
    ["--csv", "out.csv"],
    ["--json", "out.json"],
    ["--plot"],
    ["--check"],
    ["--cache"],
    ["--workers", "2"],
    ["--fast"],
    ["--paper-precision"],
]


def _flag_id(flag):
    return flag[0]


class TestUnreadFlagsRejected:
    """A command given a flag it would not read exits 2 naming it,
    before running anything or writing any file."""

    @pytest.fixture
    def rejects(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def check(argv, flag):
            assert main(argv) == 2
            assert flag in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

        return check

    @pytest.mark.parametrize("flag", SWEEP_FLAGS, ids=_flag_id)
    def test_chaos(self, rejects, flag):
        rejects(["chaos", "--scenario", "crash-storm", *flag], flag[0])

    @pytest.mark.parametrize("flag", SWEEP_FLAGS, ids=_flag_id)
    def test_deploy(self, rejects, flag):
        rejects(["deploy", "--scenario", "crash-coordinator", *flag], flag[0])

    @pytest.mark.parametrize("flag", SWEEP_FLAGS, ids=_flag_id)
    def test_telemetry(self, rejects, flag):
        rejects(["telemetry", *flag], flag[0])
        rejects(["faulttolerance", "--telemetry", "out", *flag], flag[0])

    @pytest.mark.parametrize(
        "flag",
        [f for f in SWEEP_FLAGS if f[0] not in ("--json", "--fast")],
        ids=_flag_id,
    )
    def test_live(self, rejects, flag):
        rejects(["live", *flag], flag[0])
