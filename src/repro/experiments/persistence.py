"""Saving and loading experiment results as JSON.

Experiment cells can take minutes at paper precision; persisting the
results lets analysis (break-even finding, plotting, EXPERIMENTS.md
regeneration) run without re-simulating.  The format is stable,
versioned and human-diffable: one JSON document per experiment with the
definition's identity, the parameter grid, and every cell's metrics.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from importlib import import_module
from pathlib import Path
from typing import Union, get_type_hints

from repro.experiments.config import ExperimentDef, SeriesDef
from repro.experiments.runner import ExperimentResult
from repro.workload.clientserver import WorkloadResult
from repro.workload.params import SimulationParameters

#: Format version written into every document.
FORMAT_VERSION = 2


def params_to_dict(params) -> dict:
    """Serialize any parameter dataclass to a JSON-compatible dict (the
    shared codec): enums by value, nested dataclasses as dicts."""
    return {f.name: _encode(getattr(params, f.name)) for f in fields(params)}


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return params_to_dict(value)
    return value


def params_from_dict(data: dict, cls: type = SimulationParameters):
    """Rebuild a ``cls`` instance from :func:`params_to_dict`."""
    hints = get_type_hints(cls)
    return cls(**{name: _decode(hints[name], v) for name, v in data.items()})


def _decode(kind, value):
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(value)
    if is_dataclass(kind):
        return params_from_dict(value, kind)
    return value


def params_type(params) -> str:
    """The ``module:Class`` name a document records a cell's class by."""
    cls = type(params)
    return f"{cls.__module__}:{cls.__qualname__}"


def _params_class(name: str) -> type:
    module, _, qualname = name.partition(":")
    if not module.startswith("repro."):
        raise ValueError(f"not a parameter class of this package: {name!r}")
    return getattr(import_module(module), qualname)


def cell_to_dict(result: WorkloadResult) -> dict:
    """Serialize one cell's result (the cache's and documents' codec)."""
    return {
        "params_type": params_type(result.params),
        "params": params_to_dict(result.params),
        "metrics": result.metrics,
        "simulated_time": result.simulated_time,
        "raw": result.raw,
    }


def cell_from_dict(data: dict, params=None) -> WorkloadResult:
    """Rebuild a cell's result from :func:`cell_to_dict`; a caller that
    already holds the cell's ``params`` (a cache lookup) passes them."""
    if params is None:
        params = params_from_dict(
            data["params"], _params_class(data["params_type"])
        )
    return WorkloadResult(
        params, data["metrics"], data["simulated_time"], data.get("raw", {})
    )


def result_to_dict(result: ExperimentResult) -> dict:
    """Serialize an experiment result to a JSON-compatible dict."""
    defn = result.definition
    return {
        "format_version": FORMAT_VERSION,
        "exp_id": defn.exp_id,
        "title": defn.title,
        "x_label": defn.x_label,
        "x_values": list(defn.x_values),
        "metric": defn.metric,
        "notes": defn.notes,
        "series": {
            label: [cell_to_dict(cell) for cell in result.results[label]]
            for label in result.labels
        },
    }


def result_from_dict(data: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its serialized form.

    The reconstructed definition's cell factories return the stored
    parameter cells (index-free factories are not recoverable, nor
    needed for analysis).
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    series_defs = []
    results = {}
    for label, cells in data["series"].items():
        results[label] = [cell_from_dict(c) for c in cells]
        series_defs.append(
            SeriesDef(
                label=label,
                cell=lambda x, _params=results[label][0].params: _params,
            )
        )
    definition = ExperimentDef(
        exp_id=data["exp_id"],
        title=data["title"],
        x_label=data["x_label"],
        x_values=tuple(data["x_values"]),
        series=tuple(series_defs),
        metric=data["metric"],
        notes=data.get("notes", ""),
    )
    return ExperimentResult(definition=definition, results=results)


def save_result(result: ExperimentResult, path: Union[str, Path]) -> Path:
    """Write an experiment result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2))
    return path


def load_result(path: Union[str, Path]) -> ExperimentResult:
    """Read an experiment result back from a JSON file."""
    return result_from_dict(json.loads(Path(path).read_text()))
