"""Structured experiment recording (JSON), for archival and diffing.

``python -m repro.bench ... --json results.json`` serializes every
driver's result dataclasses with enough context (scale, machine name,
calibration constants, package version) that two runs can be compared
mechanically -- the reproducibility layer on top of the human-readable
tables.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro import __version__
from repro.bench.experiments import (
    AblationRow,
    FigResult,
    FrequencyPoint,
    SpeedupTableResult,
    Table2Result,
)
from repro.bench.harness import ExperimentConfig


def _keyed(d: dict) -> dict:
    """JSON object keys must be strings; tuples become 'a|b' keys."""
    out = {}
    for k, v in d.items():
        if isinstance(k, tuple):
            k = "|".join(str(p) for p in k)
        out[str(k)] = _convert(v)
    return out


def _convert(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _keyed(dataclasses.asdict(value))
    if isinstance(value, dict):
        return _keyed(value)
    if isinstance(value, (list, tuple)):
        return [_convert(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


def result_to_dict(result: Any) -> dict:
    """Serialize any experiment result dataclass to plain JSON types."""
    if isinstance(
        result,
        (Table2Result, SpeedupTableResult, FigResult, AblationRow, FrequencyPoint),
    ):
        return _convert(result)
    if isinstance(result, list):
        return {"rows": [_convert(r) for r in result]}
    if isinstance(result, dict):
        return _keyed(result)
    raise TypeError(f"cannot record {type(result).__name__}")


def run_payload(results: dict[str, Any], config: ExperimentConfig) -> dict:
    """The JSON-ready bundle for a set of named experiment results."""
    return {
        "library_version": __version__,
        "scale": config.scale,
        "machine": config.scaled_machine().name,
        "clock": config.clock,
        "kernel": config.kernel,
        "cost_model": dataclasses.asdict(config.cost_model),
        "machine_spec": {
            k: v
            for k, v in dataclasses.asdict(config.scaled_machine()).items()
            if k != "cores"
        },
        "experiments": {
            name: result_to_dict(result) for name, result in results.items()
        },
    }


def record_run(
    results: dict[str, Any], config: ExperimentConfig, path
) -> None:
    """Write a named bundle of experiment results to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_payload(results, config), fh, indent=2, sort_keys=True)


def load_run(path) -> dict:
    """Read back a bundle written by :func:`record_run`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
