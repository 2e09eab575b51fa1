"""Experiment harness: figure definitions, sweep runner, reporting."""

from repro.experiments.cache import CellCache, cell_key, resolve_cache_dir
from repro.experiments.config import CellFactory, ExperimentDef, SeriesDef
from repro.experiments.executor import (
    ParallelExecutor,
    resolve_workers,
    shutdown_pools,
)
from repro.experiments.figures import (
    FIGURES,
    figure8,
    figure10,
    figure11,
    figure12,
    figure14,
    figure16,
    make_figure,
)
from repro.experiments.expectations import (
    Claim,
    ClaimResult,
    PAPER_EXPECTATIONS,
    format_verdicts,
    verify_expectations,
)
from repro.experiments.grid import Axis, GridResult, sweep_grid
from repro.experiments.markdown import (
    to_markdown_document,
    to_markdown_section,
    to_markdown_table,
)
from repro.experiments.persistence import load_result, save_result
from repro.experiments.replications import ReplicatedResult, run_replicated
from repro.experiments.plot import render_plot
from repro.experiments.report import format_table, summary_lines, to_csv
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    run_figure,
)

__all__ = [
    "Axis",
    "CellCache",
    "Claim",
    "ClaimResult",
    "GridResult",
    "CellFactory",
    "ExperimentDef",
    "ExperimentResult",
    "ExperimentRunner",
    "FIGURES",
    "PAPER_EXPECTATIONS",
    "ParallelExecutor",
    "ReplicatedResult",
    "SeriesDef",
    "cell_key",
    "resolve_cache_dir",
    "resolve_workers",
    "shutdown_pools",
    "figure10",
    "figure11",
    "figure12",
    "figure14",
    "figure16",
    "figure8",
    "format_table",
    "format_verdicts",
    "load_result",
    "make_figure",
    "render_plot",
    "run_figure",
    "run_replicated",
    "save_result",
    "summary_lines",
    "sweep_grid",
    "to_csv",
    "to_markdown_document",
    "to_markdown_section",
    "to_markdown_table",
    "verify_expectations",
]
