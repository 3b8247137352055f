"""ObsRuntime: recording, snapshots, rule wiring, scoping, threads."""

from __future__ import annotations

import threading

import pytest

from repro import telemetry
from repro.obs.core import ObsRuntime
from repro.obs.profiler import SamplingProfiler
from repro.obs.resource import ResourceMonitor, gc_collections, rss_bytes


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def runtime():
    rt = ObsRuntime(clock=FakeClock(1000.0))
    try:
        yield rt
    finally:
        rt.close()


class TestRecording:
    def test_observe_creates_labelled_histograms(self, runtime):
        runtime.observe("spmv.chunk.seconds", 0.01, format="csr-du")
        runtime.observe("spmv.chunk.seconds", 0.02, format="csr-du")
        runtime.observe("spmv.chunk.seconds", 0.5, format="csr-vi")
        snap = runtime.snapshot()
        hists = [
            h for h in snap["histograms"] if h["name"] == "spmv.chunk.seconds"
        ]
        assert len(hists) == 2
        by_fmt = {h["labels"]["format"]: h for h in hists}
        assert by_fmt["csr-du"]["count"] == 2
        assert by_fmt["csr-vi"]["count"] == 1

    def test_mark_accumulates_windowed_counters(self, runtime):
        runtime.mark("kernel.fallback", 1, format="csr-du")
        runtime.mark("kernel.fallback", 2, format="csr-du")
        snap = runtime.snapshot()
        (entry,) = [
            c for c in snap["counters"] if c["name"] == "kernel.fallback"
        ]
        assert entry["total"] == 3.0
        assert "10s" in entry["rates"]
        assert "60s" in entry["rates"]

    def test_set_gauge_last_write_wins(self, runtime):
        runtime.set_gauge("g", 1.0)
        runtime.set_gauge("g", 2.0)
        (entry,) = [g for g in runtime.snapshot()["gauges"] if g["name"] == "g"]
        assert entry["value"] == 2.0

    def test_mixed_label_value_types_sort(self, runtime):
        # int and str label values on one metric must not break the
        # snapshot's deterministic ordering.
        runtime.observe("h", 0.1, threads=4)
        runtime.observe("h", 0.1, format="csr-du")
        snap = runtime.snapshot()
        assert len([h for h in snap["histograms"] if h["name"] == "h"]) == 2

    def test_snapshot_is_json_safe(self, runtime):
        import json

        runtime.observe("h", 0.25, format="csr-du")
        runtime.mark("c", 1)
        runtime.set_gauge("g", 1.0)
        json.dumps(runtime.snapshot())


class TestRules:
    def test_rule_windows_union_defaults(self):
        rt = ObsRuntime(rules=["rate(f[30s]) > 0"])
        rt.mark("f", 1)
        (entry,) = rt.snapshot()["counters"]
        assert set(entry["rates"]) == {"10s", "30s", "60s"}

    def test_evaluate_rules_emits_telemetry_and_logs(self):
        rt = ObsRuntime(rules=["rate(kernel.fallback[10s]) > 0"])
        rt.mark("kernel.fallback", 1, format="csr-du")
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            fired = rt.evaluate_rules()
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        assert len(fired) == 1
        assert len(rt.alerts) == 1
        (ev,) = [e for e in events if e.name == "obs.alert"]
        assert ev.attrs["rule"] == "rate:kernel.fallback"
        assert {"expr", "metric", "value", "threshold"} <= set(ev.attrs)

    def test_flush_snapshot_writes_openmetrics(self, runtime, tmp_path):
        runtime.observe("h", 0.1)
        path = tmp_path / "metrics.prom"
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            snap = runtime.flush_snapshot(str(path))
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        text = path.read_text()
        assert text.endswith("# EOF\n")
        assert "h_count 1" in text
        assert snap["histograms"][0]["count"] == 1
        (ev,) = [e for e in events if e.name == "obs.snapshot"]
        assert ev.attrs["histograms"] == 1

    def test_default_rules_installed(self, runtime):
        names = {r.name for r in runtime.engine.rules}
        assert "kernel-fallback" in names
        assert "chunk-tail-latency" in names


class TestModuleSurface:
    def test_disabled_by_default_noop(self):
        assert telemetry.get_live() is None
        assert not telemetry.enabled()
        # Must not raise, must not create any state.
        telemetry.observe("storage.shard.verify.seconds", 1.0)
        telemetry.count("kernel.fallback")
        telemetry.gauge("obs.resource.threads", 1.0)

    def test_set_runtime_scoping(self):
        rt = ObsRuntime()
        prev = telemetry.set_live(rt)
        try:
            assert telemetry.enabled()
            assert telemetry.get_collector() is None
            telemetry.observe("storage.shard.verify.seconds", 0.5, storage="shm")
            telemetry.count("kernel.fallback", 2, format="csr")
            telemetry.gauge("obs.resource.threads", 3.0)
            snap = rt.snapshot()
            assert snap["histograms"][0]["count"] == 1
            assert snap["counters"][0]["total"] == 2.0
            assert snap["gauges"][0]["value"] == 3.0
        finally:
            telemetry.set_live(prev)
            rt.close()
        assert telemetry.get_live() is prev

    def test_configure_swaps_and_disables(self):
        rt = ObsRuntime()
        prev = telemetry.set_live(rt)
        try:
            collector = telemetry.configure()
            sink = telemetry.get_sink()
            assert (sink.log, sink.live) == (collector, rt)
            assert telemetry.configure(enabled=False) is None
            assert telemetry.get_live() is rt
            telemetry.set_live(None)
            assert telemetry.get_sink() is None
        finally:
            telemetry.set_live(prev)
            rt.close()

    def test_undeclared_names_stay_out_of_live_view(self, runtime):
        prev = telemetry.set_live(runtime)
        try:
            telemetry.count("plan.hit", 1, format="csr")
            telemetry.observe("not.in.vocabulary", 1.0)
        finally:
            telemetry.set_live(prev)
        snap = runtime.snapshot()
        assert snap["counters"] == [] and snap["histograms"] == []

    def test_declared_label_rename(self, runtime):
        prev = telemetry.set_live(runtime)
        try:
            telemetry.count(
                "resilience.degrade",
                1,
                extra={"to_backend": "thread", "to_storage": "mem"},
                format="csr",
            )
        finally:
            telemetry.set_live(prev)
        (counter,) = runtime.snapshot()["counters"]
        assert counter["name"] == "resilience.degrade.total"
        assert counter["labels"] == {"backend": "thread", "storage": "mem"}


class TestResourceMonitor:
    def test_sample_once_sets_gauges(self):
        rt = ObsRuntime()
        prev = telemetry.set_live(rt)
        try:
            values = ResourceMonitor().sample_once()
        finally:
            telemetry.set_live(prev)
        assert values["obs.resource.rss_bytes"] > 0
        assert values["obs.resource.threads"] >= 1
        names = {g["name"] for g in rt.snapshot()["gauges"]}
        assert {
            "obs.resource.rss_bytes",
            "obs.resource.gc_collections",
            "obs.resource.threads",
        } <= names
        rt.close()

    def test_rss_bytes_helper(self):
        nbytes, is_peak = rss_bytes()
        assert nbytes > 0
        assert isinstance(is_peak, bool)
        assert gc_collections() >= 0

    def test_thread_lifecycle(self):
        rt = ObsRuntime()
        mon = rt.start_resource_monitor(interval_s=0.01)
        assert rt.start_resource_monitor() is mon  # idempotent
        rt.close()
        assert mon._thread is None

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ResourceMonitor(interval_s=0)


class TestProfiler:
    def test_sample_once_captures_other_threads(self):
        ready = threading.Event()
        done = threading.Event()

        def busy():
            ready.set()
            done.wait(timeout=10.0)

        t = threading.Thread(target=busy, name="obs-test-busy", daemon=True)
        t.start()
        ready.wait(timeout=10.0)
        prof = SamplingProfiler()
        try:
            assert prof.sample_once() >= 1
        finally:
            done.set()
            t.join(timeout=10.0)
        text = prof.collapsed()
        assert "obs-test-busy" in text
        # Collapsed grammar: "frame;frame;... count" per line.
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack

    def test_write_collapsed_and_snapshot(self, tmp_path):
        prof = SamplingProfiler()
        prof.sample_once()
        path = tmp_path / "stacks.txt"
        n = prof.write_collapsed(str(path))
        assert n == len(path.read_text().splitlines())
        snap = prof.snapshot()
        assert snap["sample_passes"] == 1
        assert snap["total_samples"] >= snap["distinct_stacks"]

    def test_runtime_profiler_snapshot_section(self):
        rt = ObsRuntime()
        rt.start_profiler(hz=200.0)
        rt.profiler.sample_once()
        try:
            assert rt.snapshot()["profiler"]["sample_passes"] >= 1
        finally:
            rt.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)


class TestExecutorWiring:
    def test_chunk_latency_histograms_recorded(self):
        import numpy as np

        from repro.formats.csr import CSRMatrix
        from repro.parallel.executor import ParallelSpMV

        rng = np.random.default_rng(3)
        dense = (rng.random((64, 64)) < 0.1) * rng.random((64, 64))
        csr = CSRMatrix.from_dense(dense)
        x = rng.random(64)
        rt = ObsRuntime()
        prev = telemetry.set_live(rt)
        try:
            with ParallelSpMV(csr, 2, format_name="csr-du") as par:
                par(x)
                par(x)
        finally:
            telemetry.set_live(prev)
            rt.close()
        snap = rt.snapshot()
        chunk = [
            h for h in snap["histograms"] if h["name"] == "spmv.chunk.seconds"
        ]
        call = [
            h for h in snap["histograms"] if h["name"] == "spmv.call.seconds"
        ]
        assert sum(h["count"] for h in chunk) == 4  # 2 threads x 2 calls
        assert sum(h["count"] for h in call) == 2
        assert all("p99" in h for h in chunk)

    def test_results_identical_with_obs_enabled(self):
        import numpy as np

        from repro.formats.csr import CSRMatrix
        from repro.parallel.executor import ParallelSpMV

        rng = np.random.default_rng(9)
        dense = (rng.random((72, 72)) < 0.1) * rng.random((72, 72))
        csr = CSRMatrix.from_dense(dense)
        x = rng.random(72)

        def run():
            with ParallelSpMV(csr, 3, format_name="csr-du-vi") as par:
                return par(x)

        baseline = run()
        rt = ObsRuntime()
        prev = telemetry.set_live(rt)
        try:
            with_obs = run()
        finally:
            telemetry.set_live(prev)
            rt.close()
        assert np.array_equal(baseline, with_obs)
