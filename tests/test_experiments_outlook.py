"""Tests for the outlook studies' experiment definitions and their CLI."""

from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.config import SeriesDef
from repro.experiments.figures import FIGURES, make_figure
from repro.experiments.outlook import format_outlook_table
from repro.experiments.runner import run_figure
from repro.sim.stopping import StoppingConfig

TINY = StoppingConfig(
    relative_precision=0.3,
    confidence=0.9,
    batch_size=40,
    warmup=40,
    min_batches=2,
    max_observations=1_200,
)


def run_study(name, x_values, stopping=TINY, **overrides):
    """One outlook study on a shorter grid, its cells overridden."""
    definition = make_figure(name)
    series = tuple(
        SeriesDef(s.label, lambda x, cell=s.cell: replace(cell(x), **overrides))
        for s in definition.series
    )
    definition = replace(definition, x_values=x_values, series=series)
    result = run_figure(definition, stopping=stopping)
    return [definition.x_label] + result.labels, result.as_table()


class TestSweeps:
    def test_replication_shape(self):
        header, rows = run_study("replication", (0.99, 0.5))
        assert header == ["read_ratio", "none", "eager", "threshold"]
        assert len(rows) == 2
        assert all(len(r) == 4 for r in rows)
        # The qualitative crossover survives even at tiny precision.
        eager_readheavy = rows[0][2]
        eager_writeheavy = rows[1][2]
        assert eager_readheavy < eager_writeheavy

    def test_fragmentation_shape(self):
        header, rows = run_study("fragmentation", (1.0, 4.0), clients=8)
        assert header == ["fragments", "migration", "placement"]
        k1_migration, k4_migration = rows[0][1], rows[1][1]
        assert k4_migration < k1_migration

    def test_availability_shape(self):
        header, rows = run_study("availability", (0.0, 1.0))
        assert header == ["group_op_fraction", "collocated", "spread"]
        # Chains favor collocation.
        assert rows[1][1] < rows[1][2]

    def test_faulttolerance_shape(self):
        header, rows = run_study(
            "faulttolerance", (0.0, 0.05), stopping=None, sim_time=1_500.0
        )
        assert header == ["loss", "sedentary", "migration", "placement"]
        assert len(rows) == 2
        assert all(len(r) == 4 for r in rows)
        # Every cell produced observations despite crashes and loss.
        assert all(v > 0 for r in rows for v in r[1:])

    def test_registry(self):
        studies = {"replication", "fragmentation", "availability"}
        assert studies | {"faulttolerance"} <= set(FIGURES)
        parser = build_parser()
        for name in sorted(studies) + ["faulttolerance", "chaos"]:
            assert parser.parse_args([name]).figure == name

    def test_run_outlook_unknown(self):
        with pytest.raises(ValueError, match="unknown figure"):
            make_figure("teleportation")

    def test_sharded_runner_runs_outlook_cells_unsharded(self):
        definition = replace(make_figure("replication"), x_values=(0.5,))
        sharded = run_figure(definition, stopping=TINY, shards=2)
        plain = run_figure(definition, stopping=TINY)
        assert sharded.as_table() == plain.as_table()


class TestFormatting:
    def test_table_layout(self):
        table = format_outlook_table(
            "demo", ["x", "a", "b"], [[1.0, 0.5, 0.25], [2.0, 1.5, 1.25]]
        )
        lines = table.splitlines()
        assert lines[0] == "outlook:demo"
        assert "a" in lines[2] and "b" in lines[2]
        assert "0.500" in table and "1.250" in table


class TestCli:
    def test_outlook_via_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(StoppingConfig, "fast", staticmethod(lambda: TINY))
        rc = main(["replication", "--fast"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication: Replication vs Read Ratio" in out
        assert "eager" in out
