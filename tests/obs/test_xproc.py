"""Cross-process observability: shard codecs, context, fork-boundary merge."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.csr import CSRMatrix
from repro.obs.core import ObsRuntime
from repro.obs.histogram import DEFAULT_GROWTH, StreamingHistogram
from repro.obs.window import WindowedCounter
from repro.obs.xproc import (
    TraceContext,
    WorkerTelemetry,
    current_context,
    ingest_payload,
)
from repro.parallel.process_executor import ProcessParallelSpMV
from repro.telemetry import core as telemetry
from repro.telemetry.core import Collector, Sink, metric_key
from tests.conftest import random_sparse_dense

#: Documented geometric-midpoint percentile bound: sqrt(growth) - 1.
ERROR_BOUND = math.sqrt(DEFAULT_GROWTH) - 1.0

QS = (50.0, 90.0, 99.0)


def _hist_of(values) -> StreamingHistogram:
    hist = StreamingHistogram()
    for v in values:
        hist.observe(v)
    return hist


class TestHistogramShardCodec:
    def test_round_trip_equality(self):
        hist = _hist_of([0.0, 1e-12, 0.003, 0.003, 0.4, 7.5])
        back = StreamingHistogram.from_shard(hist.to_shard())
        assert back.count == hist.count
        assert back.zero_count == hist.zero_count
        assert back.sum == hist.sum
        assert back.min == hist.min
        assert back.max == hist.max
        assert back.buckets() == hist.buckets()
        for q in QS:
            assert back.percentile(q) == hist.percentile(q)

    def test_shard_is_json_safe(self):
        hist = _hist_of([0.001, 2.5])
        shard = json.loads(json.dumps(hist.to_shard()))
        back = StreamingHistogram.from_shard(shard)
        assert back.buckets() == hist.buckets()

    def test_empty_round_trip(self):
        hist = StreamingHistogram()
        shard = hist.to_shard()
        assert shard["min"] is None and shard["max"] is None
        back = StreamingHistogram.from_shard(json.loads(json.dumps(shard)))
        assert back.count == 0
        assert back.min == math.inf and back.max == -math.inf
        # An empty rebuilt shard must still merge cleanly.
        back.merge(_hist_of([0.5]))
        assert back.count == 1 and back.min == 0.5

    @given(
        a=st.lists(
            st.floats(min_value=1e-8, max_value=1e3, allow_nan=False),
            max_size=60,
        ),
        b=st.lists(
            st.floats(min_value=1e-8, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_of_shards_is_histogram_of_concatenation(self, a, b):
        merged = StreamingHistogram.from_shard(_hist_of(a).to_shard())
        merged.merge(StreamingHistogram.from_shard(_hist_of(b).to_shard()))
        whole = _hist_of(a + b)
        assert merged.count == whole.count
        assert merged.buckets() == whole.buckets()
        assert merged.min == whole.min and merged.max == whole.max
        assert merged.sum == pytest.approx(whole.sum)
        for q in QS:
            assert merged.percentile(q) == whole.percentile(q)


class TestCounterShardCodec:
    def test_total_crosses_exactly(self):
        src = WindowedCounter()
        src.add(3.0)
        src.add(4.5)
        shard = json.loads(json.dumps(src.to_shard()))
        dst = WindowedCounter()
        dst.add(2.0)
        dst.merge_shard(shard)
        assert dst.total == 9.5

    def test_zero_total_is_a_no_op(self):
        dst = WindowedCounter()
        dst.merge_shard(WindowedCounter().to_shard())
        assert dst.total == 0.0


class TestRuntimeShards:
    def test_merge_preserves_labels_and_kinds(self):
        src = ObsRuntime(rules=())
        dst = ObsRuntime(rules=())
        try:
            src.observe("spmv.chunk.seconds", 0.25, backend="process")
            src.observe("spmv.chunk.seconds", 0.75, backend="process")
            src.mark("kernel.fallback", 2, format="csr-du")
            src.set_gauge("probe", 7.0)
            dst.set_gauge("probe", 1.0)
            dst.merge_shards(json.loads(json.dumps(src.to_shards())))
            snap = dst.snapshot()
        finally:
            src.close()
            dst.close()
        (hist,) = snap["histograms"]
        assert hist["name"] == "spmv.chunk.seconds"
        assert hist["labels"] == {"backend": "process"}
        assert hist["count"] == 2
        (counter,) = snap["counters"]
        assert counter["name"] == "kernel.fallback"
        assert counter["total"] == 2.0
        (gauge,) = snap["gauges"]
        assert gauge["value"] == 7.0  # last write (the merge) wins


class TestTraceContext:
    def test_none_when_both_sinks_off(self):
        assert telemetry.get_sink() is None
        assert TraceContext.capture(run_id="r") is None
        assert current_context(run_id="r") is None

    def test_captures_enablement_and_wire_round_trip(self):
        rt = ObsRuntime(rules=(), histogram_growth=2.0)
        prev = telemetry.set_sink(Sink(Collector(), rt))
        try:
            wire = current_context(
                run_id="abc", parent="parallel.spmv", worker=3, nnz=17
            )
        finally:
            telemetry.set_sink(prev)
            rt.close()
        ctx = TraceContext.from_wire(json.loads(json.dumps(wire)))
        assert ctx.run_id == "abc"
        assert ctx.worker == 3
        assert ctx.log and ctx.live == 2.0
        assert ctx.attrs == {"nnz": 17}

    def test_telemetry_only_capture(self):
        prev = telemetry.set_collector(Collector())
        try:
            ctx = TraceContext.capture(run_id="r")
        finally:
            telemetry.set_collector(prev)
        assert ctx.log and ctx.live is None


class TestWorkerTelemetry:
    def test_scoped_sinks_and_payload(self):
        ctx = TraceContext(run_id="rid", worker=2, log=True, live=DEFAULT_GROWTH)
        assert telemetry.get_sink() is None
        with WorkerTelemetry(ctx) as wt:
            assert telemetry.get_sink() is wt.sink
            telemetry.count("storage.shard.cache.miss", 1, storage="shm")
            telemetry.observe("storage.shard.verify.seconds", 0.5, storage="shm")
            payload = wt.payload()
        assert telemetry.get_sink() is None
        assert payload["run_id"] == "rid"
        assert payload["worker"] == 2
        assert payload["pid"] == os.getpid()
        assert len(payload["events"]) == 2
        assert payload["counters"] == {
            metric_key("storage.shard.cache.miss", {"storage": "shm"}): 1.0
        }
        (item,) = payload["shards"]["histograms"]
        assert item["name"] == "storage.shard.verify.seconds"
        assert item["shard"]["count"] == 1
        (item,) = payload["shards"]["counters"]
        assert item["name"] == "storage.shard.cache.miss"

    def test_honors_custom_histogram_growth(self):
        ctx = TraceContext(run_id="r", log=False, live=2.0)
        with WorkerTelemetry(ctx) as wt:
            assert wt.sink.log is None
            assert wt.sink.live.histogram_growth == 2.0
            payload = wt.payload()
        assert "events" not in payload
        assert payload["shards"] == {
            "histograms": [],
            "counters": [],
            "gauges": [],
        }


class TestIngestPayload:
    def _payload(self):
        ctx = TraceContext(run_id="r", worker=1, log=True, live=DEFAULT_GROWTH)
        with WorkerTelemetry(ctx) as wt:
            with telemetry.span(
                "parallel.chunk", thread=1, pid=1234, backend="process"
            ):
                pass
            telemetry.count("storage.shard.cache.hit", 2, storage="shm")
            return wt.payload(), wt.sink.log.epoch_ns

    def test_rebases_and_stamps_events(self):
        payload, worker_epoch = self._payload()
        parent = Collector()
        runtime = ObsRuntime(rules=())
        try:
            n = ingest_payload(payload, collector=parent, runtime=runtime)
            events = parent.snapshot()
            snap = runtime.snapshot()
        finally:
            runtime.close()
        assert n == 2
        offset_us = (worker_epoch - parent.epoch_ns) / 1e3
        for raw, ev in zip(payload["events"], events):
            assert ev.ts_us == pytest.approx(raw["ts_us"] + offset_us)
            assert ev.attrs["worker"] == 1
        # Explicit attrs (the span's own pid) are not overwritten.
        assert events[0].attrs["pid"] == 1234
        assert events[1].attrs["pid"] == os.getpid()
        assert parent.counters == {
            metric_key("storage.shard.cache.hit", {"storage": "shm"}): 2.0
        }
        # The worker's chunk span was its one spmv.chunk.seconds sample.
        (hist,) = snap["histograms"]
        assert hist["name"] == "spmv.chunk.seconds"
        assert hist["count"] == 1

    def test_defaults_to_ambient_sinks_and_tolerates_none(self):
        payload, _ = self._payload()
        # No ambient sinks installed: the merge is a silent no-op.
        assert ingest_payload(payload) == 0
        parent = Collector()
        prev = telemetry.set_collector(parent)
        try:
            assert ingest_payload(payload) == 2
        finally:
            telemetry.set_collector(prev)
        assert len(parent.snapshot()) == 2


class TestForkBoundaryMerge:
    """Real ProcessParallelSpMV runs: the end-to-end merge contract."""

    NWORKERS = 3
    CALLS = 2

    @pytest.fixture
    def merged(self):
        dense = random_sparse_dense(96, 96, seed=11)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(5).random(96)
        runtime = ObsRuntime(rules=())
        collector = Collector()
        prev = telemetry.set_sink(Sink(collector, runtime))
        try:
            with ProcessParallelSpMV(
                csr, self.NWORKERS, format_name="csr"
            ) as par:
                for _ in range(self.CALLS):
                    y = par(x)
            events = collector.snapshot()
            snap = runtime.snapshot()
        finally:
            telemetry.set_sink(prev)
            runtime.close()
        assert np.allclose(y, csr.spmv(x), rtol=1e-13, atol=1e-13)
        return events, snap

    def test_worker_spans_carry_distinct_pids(self, merged):
        events, _ = merged
        spans = [
            e
            for e in events
            if e.kind == "span"
            and e.name == "parallel.chunk"
            and "pid" in e.attrs
        ]
        assert len(spans) == self.NWORKERS * self.CALLS
        pids = {e.attrs["pid"] for e in spans}
        assert len(pids) == self.NWORKERS
        assert os.getpid() not in pids
        assert {e.attrs["worker"] for e in spans} == set(range(self.NWORKERS))
        for sub in ("worker.attach", "worker.multiply"):
            assert sum(1 for e in events if e.name == sub) == (
                self.NWORKERS * self.CALLS
            )

    def test_merged_histogram_counts_every_chunk(self, merged):
        _, snap = merged
        (hist,) = [
            h
            for h in snap["histograms"]
            if h["name"] == "spmv.chunk.seconds"
        ]
        assert hist["labels"]["backend"] == "process"
        assert hist["count"] == self.NWORKERS * self.CALLS

    def test_merged_percentiles_within_documented_bound(self, merged):
        events, snap = merged
        # Each worker's parallel.chunk span is logged and, in the same
        # call, sampled into its own histogram shard, so the merged
        # percentiles must agree with numpy's nearest-rank over the
        # logged span durations within the bucket bound.
        raw = np.array(
            [
                e.dur_us / 1e6
                for e in events
                if e.kind == "span" and e.name == "parallel.chunk"
            ]
        )
        assert len(raw) == self.NWORKERS * self.CALLS
        (hist,) = [
            h
            for h in snap["histograms"]
            if h["name"] == "spmv.chunk.seconds"
        ]
        for q in QS:
            exact = float(np.percentile(raw, q, method="inverted_cdf"))
            est = hist[f"p{int(q)}"]
            assert abs(est - exact) / exact <= ERROR_BOUND + 1e-12

    def test_worker_cache_counters_merge(self, merged):
        events, _ = merged
        hits = [e for e in events if e.name == "storage.shard.cache.hit"]
        misses = [e for e in events if e.name == "storage.shard.cache.miss"]
        # Every chunk is exactly one lookup.  The pool does not pin
        # shard indices to workers, so the exact hit/miss split varies
        # run to run; the invariants don't: each of the NWORKERS shard
        # indices must miss at least once (first time any worker sees
        # it), and nothing else can miss more than once per worker.
        assert len(hits) + len(misses) == self.NWORKERS * self.CALLS
        assert self.NWORKERS <= len(misses) <= self.NWORKERS * self.CALLS
        assert {e.attrs["index"] for e in misses} == set(range(self.NWORKERS))
        for e in hits + misses:
            assert e.attrs["storage"] == "shm"
            assert e.attrs["pid"] != os.getpid()
