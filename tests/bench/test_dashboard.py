"""The HTML dashboard: self-contained output that actually parses."""

from __future__ import annotations

from html.parser import HTMLParser

import pytest

from repro.bench.dashboard import (
    attribution_records,
    render_dashboard,
    write_dashboard,
)


def _counter(name, value=1.0, **attrs):
    return {
        "kind": "counter",
        "name": name,
        "ts_us": 0.0,
        "dur_us": 0.0,
        "value": value,
        "thread": "m",
        "tid": 1,
        "depth": 0,
        "attrs": attrs,
    }


def _attribution_event(fmt="csr", threads=1, ratio=1.0, speedup=0.0):
    return _counter(
        "perf.attribution",
        format=fmt,
        threads=threads,
        placement="close",
        matrix_id=5,
        time_s=1e-6,
        mflops=900.0,
        bytes_per_iter=332,
        index_bytes=92,
        value_bytes=128,
        vector_bytes=112,
        flops_per_byte=0.096,
        effective_gbps=3.2,
        dram_bytes=0.0,
        attainable_mflops=5000.0,
        roofline_pct=18.0,
        bound="mem",
        nnz_imbalance=1.0,
        time_imbalance=1.05,
        compression_ratio=ratio,
        speedup_vs_csr=speedup,
    )


@pytest.fixture
def events():
    return [
        _attribution_event("csr", 1),
        _attribution_event("csr-du", 1, ratio=0.7, speedup=1.2),
        _attribution_event("csr-vi", 1, ratio=0.5, speedup=1.4),
    ]


class _Checker(HTMLParser):
    """Parses the document; records tags; rejects external references."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags: list[str] = []
        self.errors: list[str] = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        if tag in ("script", "link", "img", "iframe"):
            self.errors.append(f"external-asset tag <{tag}>")
        for name, value in attrs:
            if name in ("src", "href") and value:
                self.errors.append(f"<{tag} {name}={value!r}>")


class TestRenderDashboard:
    def test_parses_and_is_self_contained(self, events):
        text = render_dashboard(events, title="test run")
        checker = _Checker()
        checker.feed(text)
        checker.close()
        assert checker.errors == []
        assert "html" in checker.tags
        assert "style" in checker.tags
        assert "table" in checker.tags

    def test_attribution_table_contents(self, events):
        text = render_dashboard(events)
        assert "Attribution (3 cells)" in text
        assert "csr-du" in text
        assert "18.0%" in text  # roofline column

    def test_correlation_reported(self, events):
        text = render_dashboard(events)
        # (0.3, 1.2) and (0.5, 1.4): two points, perfect positive.
        assert "Pearson correlation" in text
        assert "+1.000" in text

    def test_title_escaped(self, events):
        text = render_dashboard(events, title="<b>sneaky</b>")
        assert "<b>sneaky</b>" not in text
        assert "&lt;b&gt;sneaky&lt;/b&gt;" in text

    def test_empty_trace_still_renders(self):
        text = render_dashboard([])
        checker = _Checker()
        checker.feed(text)
        assert checker.errors == []
        assert "No attribution records" in text

    def test_baseline_deltas(self, events):
        baseline = {"experiments": {"t": {"a": 1.0, "b": 2.0}}}
        current = {"experiments": {"t": {"a": 1.5, "c": 3.0}}}
        text = render_dashboard(events, baseline=baseline, current=current)
        assert "Baseline deltas" in text
        assert "33.33%" in text  # |1.5-1.0| / max(1.0, 1.5)
        assert "structural mismatches" in text


class TestAttributionRecords:
    def test_rebuild_and_sort(self, events):
        rows = attribution_records(events)
        assert [r["format"] for r in rows] == ["csr", "csr-du", "csr-vi"]
        assert rows[0]["bytes_per_iter"] == 332

    def test_ignores_other_events(self):
        assert attribution_records([_counter("plan.hit", format="csr")]) == []


class TestWriteDashboard:
    def test_round_trip(self, events, tmp_path):
        path = tmp_path / "report.html"
        assert write_dashboard(path, events) == str(path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        checker = _Checker()
        checker.feed(text)
        assert checker.errors == []
