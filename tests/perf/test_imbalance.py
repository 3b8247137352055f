"""Per-thread balance recovery from parallel.spmv/parallel.chunk spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.parallel.executor import ParallelSpMV
from repro.perf.imbalance import call_balances, summarize_parallel
from tests.conftest import random_sparse_dense


def _span(name, ts, dur, tid=1, **attrs):
    return {
        "kind": "span",
        "name": name,
        "ts_us": float(ts),
        "dur_us": float(dur),
        "value": 0.0,
        "thread": "w",
        "tid": tid,
        "depth": 0,
        "attrs": attrs,
    }


class TestSyntheticTrace:
    """Hand-built spans with exact expected busy/wait/imbalance."""

    @pytest.fixture
    def events(self):
        # One call [0, 100]; thread 0 busy [2, 42] (40us, 600 nnz),
        # thread 1 busy [2, 82] (80us, 400 nnz).  Chunks precede the
        # call in the stream, as the collector records spans at exit.
        return [
            _span("parallel.chunk", 2, 40, tid=11, thread=0, nnz=600),
            _span("parallel.chunk", 2, 80, tid=12, thread=1, nnz=400),
            _span("parallel.spmv", 0, 100, tid=10, threads=2),
        ]

    def test_busy_and_barrier_wait(self, events):
        (call,) = call_balances(events)
        assert call.busy_us == {0: 40.0, 1: 80.0}
        # Call ends at 100; thread 0's chunk ends at 42, thread 1's at 82.
        assert call.barrier_wait_us == {0: 58.0, 1: 18.0}
        assert sum(call.barrier_wait_us.values()) == 76.0

    def test_imbalance_ratios(self, events):
        (call,) = call_balances(events)
        assert call.time_imbalance == pytest.approx(80 / 60)
        assert call.nnz_imbalance == pytest.approx(600 / 500)

    def test_two_calls_claim_their_own_chunks(self):
        events = [
            _span("parallel.chunk", 1, 8, thread=0, nnz=10),
            _span("parallel.spmv", 0, 10, threads=1),
            _span("parallel.chunk", 21, 5, thread=0, nnz=10),
            _span("parallel.spmv", 20, 10, threads=1),
        ]
        calls = call_balances(events)
        assert len(calls) == 2
        assert calls[0].busy_us == {0: 8.0}
        assert calls[1].busy_us == {0: 5.0}

    def test_report_aggregates(self, events):
        report = summarize_parallel(events)
        assert len(report.calls) == 1
        mean = sum(c.time_imbalance for c in report.calls) / len(report.calls)
        assert mean == pytest.approx(80 / 60)

    def test_empty_trace(self):
        report = summarize_parallel([])
        assert report.calls == ()


class TestRealExecutorTrace:
    def test_live_collector_round_trip(self, collector):
        dense = random_sparse_dense(100, 100, seed=9)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(2).random(100)
        with ParallelSpMV(csr, 4) as par:
            for _ in range(2):
                par(x)
        report = summarize_parallel(collector.snapshot())
        assert len(report.calls) == 2
        for call in report.calls:
            assert len(call.busy_us) == 4
            assert sum(call.nnz.values()) == csr.nnz
            assert call.time_imbalance >= 1.0
            assert all(w >= 0 for w in call.barrier_wait_us.values())


def _abandon_mark(ts, thread, lo, hi):
    return {
        "kind": "counter",
        "name": "executor.chunk.abandoned",
        "ts_us": float(ts),
        "dur_us": 0.0,
        "value": 1.0,
        "thread": "w",
        "tid": 10,
        "depth": 0,
        "attrs": {"thread": thread, "lo": lo, "hi": hi, "timeout_s": 0.25},
    }


class TestAbandonedChunkExclusion:
    """Chunks whose wait was abandoned must not pollute the balances."""

    def test_abandoned_chunk_is_dropped(self):
        # Thread 1's chunk overran the call: span [2, 402] vs call
        # [0, 100].  The executor marked the abandonment at t=90,
        # inside the chunk's interval.
        events = [
            _span("parallel.chunk", 2, 40, tid=11, thread=0, lo=0, hi=50, nnz=600),
            _span("parallel.chunk", 2, 400, tid=12, thread=1, lo=50, hi=100, nnz=400),
            _abandon_mark(90, thread=1, lo=50, hi=100),
            _span("parallel.spmv", 0, 100, tid=10, threads=2),
        ]
        (call,) = call_balances(events)
        assert call.busy_us == {0: 40.0}
        assert call.nnz == {0: 600.0}
        assert 1 not in call.barrier_wait_us

    def test_orphan_span_not_claimed_by_a_later_call(self):
        # The orphaned chunk keeps running and its span [110, 60] lands
        # wholly inside call 2's interval [100, 200] — without the
        # abandon mark it would be claimed by the wrong call.
        events = [
            _span("parallel.chunk", 2, 40, tid=11, thread=0, lo=0, hi=50, nnz=600),
            _span("parallel.spmv", 0, 100, tid=10, threads=2),
            _span("parallel.chunk", 110, 60, tid=12, thread=1, lo=50, hi=100, nnz=400),
            _abandon_mark(120, thread=1, lo=50, hi=100),
            _span("parallel.chunk", 105, 50, tid=11, thread=0, lo=0, hi=50, nnz=600),
            _span("parallel.spmv", 100, 100, tid=10, threads=2),
        ]
        first, second = call_balances(events)
        assert first.busy_us == {0: 40.0}
        assert second.busy_us == {0: 50.0}

    def test_matching_is_exact_on_thread_and_bounds(self):
        # A mark for *different* bounds must not erase a healthy chunk.
        events = [
            _span("parallel.chunk", 2, 40, tid=11, thread=0, lo=0, hi=50, nnz=600),
            _span("parallel.chunk", 2, 80, tid=12, thread=1, lo=50, hi=100, nnz=400),
            _abandon_mark(50, thread=1, lo=0, hi=50),
            _span("parallel.spmv", 0, 100, tid=10, threads=2),
        ]
        (call,) = call_balances(events)
        assert call.busy_us == {0: 40.0, 1: 80.0}
