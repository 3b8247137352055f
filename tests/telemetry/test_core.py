"""Core collector semantics: disabled fast path, nesting, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.parallel.executor import ParallelSpMV
from repro.telemetry import Collector, metric_key, set_collector
from repro.telemetry.core import NULL_SPAN
from tests.conftest import random_sparse_dense


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert telemetry.get_collector() is None
        assert not telemetry.enabled()

    def test_span_returns_null_singleton(self):
        assert telemetry.span("anything", a=1) is NULL_SPAN
        with telemetry.span("anything") as sp:
            assert sp is NULL_SPAN
            assert sp.add(k="v") is NULL_SPAN

    def test_count_gauge_are_noops(self):
        telemetry.count("x", 3, label="a")
        telemetry.gauge("y", 1.5)
        assert telemetry.get_collector() is None

    def test_no_events_recorded_from_instrumented_code(self):
        dense = random_sparse_dense(40, 40, seed=3)
        csr = CSRMatrix.from_dense(dense)
        convert(csr, "csr-du")
        convert(csr, "csr-vi")
        assert telemetry.get_collector() is None

    def test_spmv_bit_identical_with_and_without(self):
        dense = random_sparse_dense(60, 60, seed=7, quantize=16)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(1).random(60)
        for fmt in ("csr", "csr-du", "csr-vi"):
            m_off = convert(csr, fmt)
            y_off = m_off.spmv(x)
            prev = set_collector(Collector())
            try:
                m_on = convert(csr, fmt)
                y_on = m_on.spmv(x)
            finally:
                set_collector(prev)
            assert np.array_equal(y_off, y_on), fmt


class TestConfigure:
    def test_configure_installs_and_disables(self):
        try:
            c = telemetry.configure()
            assert telemetry.get_collector() is c
            assert telemetry.enabled()
        finally:
            assert telemetry.configure(enabled=False) is None
        assert telemetry.get_collector() is None

    def test_set_collector_returns_previous(self):
        c1 = Collector()
        prev = set_collector(c1)
        try:
            assert telemetry.get_collector() is c1
            c2 = Collector()
            assert set_collector(c2) is c1
        finally:
            set_collector(prev)


class TestSpans:
    def test_records_duration_and_attrs(self, collector):
        with telemetry.span("outer", matrix_id=9) as sp:
            sp.add(result="ok")
        (ev,) = collector.snapshot()
        assert ev.kind == "span"
        assert ev.name == "outer"
        assert ev.dur_us >= 0.0
        assert ev.attrs == {"matrix_id": 9, "result": "ok"}
        assert ev.depth == 0

    def test_nesting_depth(self, collector):
        with telemetry.span("a"):
            with telemetry.span("b"):
                with telemetry.span("c"):
                    pass
        events = {ev.name: ev for ev in collector.snapshot()}
        assert events["a"].depth == 0
        assert events["b"].depth == 1
        assert events["c"].depth == 2
        # Inner spans close first and nest inside the outer interval.
        assert events["c"].dur_us <= events["a"].dur_us
        assert events["a"].ts_us <= events["b"].ts_us <= events["c"].ts_us

    def test_depth_recovers_after_exit(self, collector):
        with telemetry.span("a"):
            pass
        with telemetry.span("b"):
            pass
        events = collector.snapshot()
        assert [ev.depth for ev in events] == [0, 0]

    def test_decorator(self, collector):
        @telemetry.traced("my.func")
        def f(v):
            return v * 2

        assert f(21) == 42
        (ev,) = collector.snapshot()
        assert ev.name == "my.func"

    def test_decorator_noop_when_disabled(self):
        @telemetry.traced()
        def f():
            return 1

        assert f() == 1  # no collector installed, must not blow up


class TestCountersAndGauges:
    def test_counter_accumulates_by_label(self, collector):
        telemetry.count("units", 3, width="u8")
        telemetry.count("units", 2, width="u8")
        telemetry.count("units", 5, width="u16")
        assert collector.counters[metric_key("units", {"width": "u8"})] == 5
        assert collector.counters[metric_key("units", {"width": "u16"})] == 5
        assert len(collector.snapshot()) == 3

    def test_counter_extra_attrs_do_not_split_key(self, collector):
        telemetry.count("nnz", 10, extra={"lo": 0, "hi": 5}, thread=0)
        telemetry.count("nnz", 20, extra={"lo": 5, "hi": 9}, thread=0)
        assert collector.counters == {metric_key("nnz", {"thread": 0}): 30}
        lows = [ev.attrs["lo"] for ev in collector.snapshot()]
        assert lows == [0, 5]

    def test_gauge_last_wins(self, collector):
        telemetry.gauge("ttu", 3.0)
        telemetry.gauge("ttu", 8.5)
        assert collector.gauges[("ttu", ())] == 8.5

    def test_clear(self, collector):
        telemetry.count("c")
        telemetry.gauge("g", 1)
        collector.clear()
        assert len(collector) == 0
        assert collector.counters == {}
        assert collector.gauges == {}


class TestThreadSafety:
    def test_concurrent_spans_and_counts(self, collector):
        n_threads, per_thread = 8, 200

        def hammer(t):
            for i in range(per_thread):
                with telemetry.span("work", thread=t):
                    telemetry.count("iters", 1, thread=t)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        events = collector.snapshot()
        assert len(events) == n_threads * per_thread * 2
        for t in range(n_threads):
            assert collector.counters[metric_key("iters", {"thread": t})] == per_thread
        # Depth is tracked per thread: a counter inside a span sits at 1.
        assert all(
            ev.depth == 1 for ev in events if ev.kind == "counter"
        )

    def test_parallel_spmv_traced_matches_serial(self, collector):
        dense = random_sparse_dense(120, 120, seed=11)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(5).random(120)
        expected = csr.spmv(x)
        with ParallelSpMV(csr, 4, format_name="csr-du") as par:
            for _ in range(3):
                got = par(x)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)
        events = collector.snapshot()
        workers = [ev for ev in events if ev.name == "parallel.chunk"]
        calls = [ev for ev in events if ev.name == "parallel.spmv"]
        assert len(calls) == 3
        assert len(workers) == 12
        assert {ev.attrs["thread"] for ev in workers} == {0, 1, 2, 3}
        # Every chunk span carries the partitioner's census for the
        # imbalance analyzer: row bounds plus assigned nonzeros.
        for ev in workers:
            assert {"lo", "hi", "nnz", "kind"} <= set(ev.attrs)
        assert sum(ev.attrs["nnz"] for ev in workers) == 3 * csr.nnz
        # Chunk spans came from distinct OS threads.
        assert len({ev.tid for ev in workers}) > 1
        # Partition census was recorded at construction.
        assert any(ev.name == "partition.nnz" for ev in events)
