"""Tier-1 wiring of tools/smoke_trace.py: traced bench run + schema check."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.telemetry import core as telemetry
from repro.telemetry.export import read_jsonl

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "smoke_trace.py"


@pytest.fixture(scope="module")
def smoke_trace():
    spec = importlib.util.spec_from_file_location("smoke_trace", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSmokeTrace:
    def test_traced_table2_validates(self, smoke_trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert smoke_trace.run(scale=0.015625, limit=2, path=path) == 0
        events = read_jsonl(path)
        names = {ev["name"] for ev in events}
        # The acceptance signals: per-matrix spans, CSR-DU width
        # histograms, per-thread nnz counters.
        assert "bench.matrix" in names
        assert "encode.csr_du.units" in names
        assert "partition.nnz" in names
        matrix_ids = {
            ev["attrs"]["matrix_id"]
            for ev in events
            if ev["name"] == "bench.matrix"
        }
        assert len(matrix_ids) >= 2

    def test_collector_restored_after_run(self, smoke_trace, tmp_path):
        before = telemetry.get_collector()
        smoke_trace.run(scale=0.015625, limit=1, path=str(tmp_path / "t.jsonl"))
        assert telemetry.get_collector() is before

    def test_cli_entry(self, smoke_trace, tmp_path, capsys):
        rc = smoke_trace.main(
            ["--scale", "0.015625", "--limit", "1", "--trace", str(tmp_path / "t.jsonl")]
        )
        assert rc == 0
        assert "all valid" in capsys.readouterr().out
