"""Export round-trips: JSONL, Chrome trace, summaries, validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import core as telemetry
from repro.telemetry.export import (
    collector_metrics_snapshot,
    events_as_dicts,
    export_all,
    read_jsonl,
    reliability_summary,
    span_stats,
    summary,
    validate_event,
    write_chrome_trace,
    write_jsonl,
    write_openmetrics,
)


@pytest.fixture
def populated(collector):
    with telemetry.span("phase.outer", matrix_id=3):
        with telemetry.span("phase.inner"):
            telemetry.count("widgets", 4, width="u8")
        telemetry.gauge("ratio", 2.5)
    return collector


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self, populated, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        n = write_jsonl(populated, path)
        assert n == 4
        back = read_jsonl(path)
        assert back == json.loads(json.dumps(events_as_dicts(populated)))

    def test_every_line_validates(self, populated, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(populated, path)
        for event in read_jsonl(path):
            validate_event(event)

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\nnot json\n')
        with pytest.raises(TelemetryError, match="not JSON"):
            read_jsonl(str(path))

    def test_read_skips_blank_lines(self, populated, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(populated, str(path))
        path.write_text(path.read_text() + "\n\n")
        assert len(read_jsonl(str(path))) == 4


class TestValidateEvent:
    def _good(self):
        return {
            "kind": "counter",
            "name": "x",
            "ts_us": 1.0,
            "dur_us": 0.0,
            "value": 2.0,
            "thread": "MainThread",
            "tid": 1,
            "depth": 0,
            "attrs": {},
        }

    def test_accepts_good(self):
        validate_event(self._good())

    @pytest.mark.parametrize("drop", ["kind", "name", "ts_us", "attrs", "tid"])
    def test_missing_field(self, drop):
        ev = self._good()
        del ev[drop]
        with pytest.raises(TelemetryError, match="missing field"):
            validate_event(ev)

    def test_wrong_type(self):
        ev = self._good()
        ev["value"] = "lots"
        with pytest.raises(TelemetryError, match="value"):
            validate_event(ev)

    def test_unknown_kind(self):
        ev = self._good()
        ev["kind"] = "meter"
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_event(ev)

    def test_unknown_extra_field(self):
        ev = self._good()
        ev["surprise"] = 1
        with pytest.raises(TelemetryError, match="unknown fields"):
            validate_event(ev)

    def test_negative_duration(self):
        ev = self._good()
        ev["dur_us"] = -1.0
        with pytest.raises(TelemetryError, match="negative span duration"):
            validate_event(ev)

    def test_not_an_object(self):
        with pytest.raises(TelemetryError, match="must be an object"):
            validate_event(["not", "a", "dict"])


class TestChromeTrace:
    def test_structure(self, populated, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(populated, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == n == 4
        phases = [ev["ph"] for ev in doc["traceEvents"]]
        assert phases.count("X") == 2  # two spans
        assert phases.count("C") == 2  # counter + gauge
        for ev in doc["traceEvents"]:
            assert {"ph", "name", "ts", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_span_nesting_preserved_in_time(self, populated, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(populated, str(path))
        doc = json.loads(path.read_text())
        spans = {ev["name"]: ev for ev in doc["traceEvents"] if ev["ph"] == "X"}
        outer, inner = spans["phase.outer"], spans["phase.inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6


class TestSummary:
    def test_contains_spans_counters_gauges(self, populated):
        text = summary(populated)
        assert "phase.outer" in text
        assert "phase.inner" in text
        assert "widgets{width=u8}" in text
        assert "ratio" in text

    def test_span_stats(self, populated):
        stats = span_stats(populated)
        assert stats["phase.outer"]["calls"] == 1
        assert stats["phase.inner"]["total_us"] <= stats["phase.outer"]["total_us"]
        assert stats["phase.outer"]["mean_us"] == pytest.approx(
            stats["phase.outer"]["total_us"]
        )

    def test_top_limits_rows(self, collector):
        for i in range(30):
            with telemetry.span(f"s{i:02d}"):
                pass
        text = summary(collector, top=5)
        import re

        assert len([l for l in text.splitlines() if re.match(r"^  s\d", l)]) == 5


class TestReliability:
    def test_summary_totals_across_labels(self, collector):
        telemetry.count("convert.cache.hit", 3, format="csr-du")
        telemetry.count("convert.cache.hit", 1, format="csr-vi")
        telemetry.count("convert.cache.miss", 4, format="csr-du")
        telemetry.count("kernel.fallback", 1, format="csr-du")
        telemetry.count("executor.retry", 2, format="csr-du")
        telemetry.count("obs.alert", 1, rule="kernel-fallback")
        rel = reliability_summary(collector)
        assert rel["cache_hits"] == 4
        assert rel["cache_misses"] == 4
        assert rel["cache_hit_ratio"] == pytest.approx(0.5)
        assert rel["kernel_fallbacks"] == 1
        assert rel["executor_retries"] == 2
        assert rel["alerts"] == 1

    def test_empty_run_all_zero(self, collector):
        rel = reliability_summary(collector)
        assert all(v == 0 for v in rel.values())

    def test_summary_text_has_reliability_section(self, collector):
        telemetry.count("convert.cache.hit", 1, format="csr-du")
        telemetry.count(
            "obs.alert",
            1,
            extra={"expr": "m > 0", "value": 1.0, "threshold": 0.0},
            rule="r1",
        )
        text = summary(collector)
        assert "reliability" in text
        assert "convert.cache hit ratio: 100.0%" in text
        assert "SLO alerts fired: 1" in text
        assert "[r1] m > 0" in text

    def test_summary_text_omits_section_when_clean(self, collector):
        telemetry.count("plan.hit", 5, format="csr")
        assert "reliability" not in summary(collector)


class TestOpenMetricsExport:
    def test_collector_fallback_renders_counters(self, collector, tmp_path):
        telemetry.count("convert.cache.miss", 2, format="csr-du")
        telemetry.gauge("partition.imbalance", 1.25, kind="row")
        path = tmp_path / "m.prom"
        n = write_openmetrics(collector, str(path))
        text = path.read_text()
        assert n == 2
        assert 'convert_cache_miss_total{format="csr-du"} 2' in text
        assert 'partition_imbalance{kind="row"} 1.25' in text
        assert text.endswith("# EOF\n")

    def test_live_runtime_takes_precedence(self, collector, tmp_path):
        from repro.obs.core import ObsRuntime

        rt = ObsRuntime()
        rt.observe("spmv.chunk.seconds", 0.01, format="csr-du")
        path = tmp_path / "m.prom"
        write_openmetrics(collector, str(path), obs_runtime=rt)
        text = path.read_text()
        assert "spmv_chunk_seconds_p99" in text
        rt.close()

    def test_collector_metrics_snapshot_parses_labels(self, collector):
        telemetry.count("c", 1, format="csr-du", thread=3)
        snap = collector_metrics_snapshot(collector)
        (entry,) = snap["counters"]
        assert entry["name"] == "c"
        # Labels come straight off the tuple key, types intact.
        assert entry["labels"] == {"format": "csr-du", "thread": 3}
        assert snap["histograms"] == []

    def test_export_all_includes_openmetrics(self, collector, tmp_path):
        telemetry.count("c", 1)
        written = export_all(
            collector,
            jsonl_path=str(tmp_path / "t.jsonl"),
            openmetrics_path=str(tmp_path / "m.prom"),
        )
        assert set(written) == {"jsonl", "openmetrics"}
        assert written["openmetrics"] >= 1
