"""Workload generators: the paper's simulation scenarios (Figs 6/7)."""

from repro.workload.clientserver import (
    CellWorkload,
    ClientServerWorkload,
    WorkloadResult,
    run_cell,
)
from repro.workload.generator import BlockPlan, BlockTimingGenerator
from repro.workload.layered import LayeredWorkload
from repro.workload.params import SimulationParameters

__all__ = [
    "BlockPlan",
    "BlockTimingGenerator",
    "CellWorkload",
    "ClientServerWorkload",
    "LayeredWorkload",
    "SimulationParameters",
    "WorkloadResult",
    "run_cell",
]
