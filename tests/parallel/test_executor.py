"""Threaded SpMV must be bit-identical to serial execution."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.formats import CSRMatrix, convert
from repro.parallel.executor import ParallelSpMV

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def dense():
    return random_sparse_dense(60, 45, seed=60, quantize=8, empty_rows=True)


@pytest.fixture(scope="module")
def csr(dense):
    return CSRMatrix.from_dense(dense)


class TestParallelSpMV:
    @pytest.mark.parametrize("nthreads", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"])
    def test_matches_dense(self, dense, csr, nthreads, fmt):
        x = np.random.default_rng(11).random(dense.shape[1])
        with ParallelSpMV(csr, nthreads, format_name=fmt) as p:
            assert np.allclose(p(x), dense @ x)

    def test_identical_to_serial(self, csr):
        """Row partitioning changes nothing numerically: each y element
        is computed by exactly one thread, in the same order."""
        x = np.random.default_rng(12).random(csr.ncols)
        with ParallelSpMV(csr, 1) as serial, ParallelSpMV(csr, 4) as par:
            assert np.array_equal(serial(x), par(x))

    @pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"])
    def test_batched_identical_to_serial(self, csr, fmt):
        """The plan-backed (batched) chunk kernels stay bit-identical
        across thread counts, and to the whole-matrix kernel: each row
        accumulates in element order wherever it is computed."""
        x = np.random.default_rng(14).random(csr.ncols)
        y_whole = convert(csr, fmt).spmv(x)
        with ParallelSpMV(csr, 1, format_name=fmt) as serial, ParallelSpMV(
            csr, 4, format_name=fmt
        ) as par:
            assert np.array_equal(serial(x), par(x))
            assert np.array_equal(y_whole, par(x))

    def test_chunk_plans_prebuilt(self, csr):
        """Plan construction is setup cost, not first-call cost."""
        from repro.kernels.plan import has_plan

        with ParallelSpMV(csr, 3, format_name="csr-du") as p:
            assert all(has_plan(chunk) for chunk in p.chunks)

    def test_out_parameter(self, csr, dense):
        x = np.ones(csr.ncols)
        out = np.empty(csr.nrows)
        with ParallelSpMV(csr, 2) as p:
            ret = p(x, out=out)
        assert ret is out
        assert np.allclose(out, dense @ x)

    def test_repeated_calls(self, csr):
        """The pool is persistent: many calls, consistent results."""
        x = np.random.default_rng(13).random(csr.ncols)
        with ParallelSpMV(csr, 4) as p:
            first = p(x).copy()
            for _ in range(5):
                assert np.array_equal(p(x), first)

    def test_more_threads_than_rows(self):
        dense = np.diag([1.0, 2.0])
        csr = CSRMatrix.from_dense(dense)
        with ParallelSpMV(csr, 8) as p:
            assert np.allclose(p(np.ones(2)), [1.0, 2.0])

    def test_partition_is_nnz_balanced(self, csr):
        p = ParallelSpMV(csr, 4)
        try:
            assert p.partition.imbalance() < 1.6
        finally:
            p.close()

    def test_bad_thread_count(self, csr):
        with pytest.raises(PartitionError):
            ParallelSpMV(csr, 0)

    def test_close_idempotent(self, csr):
        p = ParallelSpMV(csr, 2)
        p.close()
        p.close()

    def test_format_kwargs(self, csr):
        with ParallelSpMV(csr, 2, format_name="csr-du", policy="aligned") as p:
            assert all(chunk.policy == "aligned" for chunk in p.chunks)


class TestExecutorRobustness:
    """Per-chunk failure handling: retry, aggregation, timeout."""

    @pytest.fixture
    def collector(self):
        from repro import telemetry

        prev = telemetry.set_collector(telemetry.Collector())
        try:
            yield telemetry.get_collector()
        finally:
            telemetry.set_collector(prev)

    def _events(self, collector, name):
        return [ev for ev in collector.snapshot() if ev.name == name]

    def test_out_aliasing_x_rejected(self, csr):
        from repro.errors import IntegrityError

        x = np.zeros(max(csr.nrows, csr.ncols))
        with ParallelSpMV(csr, 2) as p:
            with pytest.raises(IntegrityError):
                p(x[: csr.ncols], out=x[: csr.nrows])

    def test_retry_recovers_bit_identically(self, csr, collector):
        """An in-place corrupted cached chunk is invalidated, re-encoded
        and retried; the answer is the clean run's exact bits."""
        from repro.compress.encode_cache import ConvertCache
        from repro.robust import inject

        x = np.random.default_rng(31).random(csr.ncols)
        with ParallelSpMV(
            csr, 3, format_name="csr-du", convert_cache=ConvertCache()
        ) as p:
            clean = p(x).copy()
            corrupted = p.chunks[1]
            inject(p.chunks[1], "ctl-truncate", 0, copy_matrix=False)
            got = p(x)
            assert p.chunks[1] is not corrupted  # rebuilt, not patched
        assert np.array_equal(got, clean)
        retries = self._events(collector, "executor.retry")
        assert len(retries) == 1
        assert retries[0].attrs["thread"] == 1

    def test_nonretryable_failure_aggregated(self, csr):
        from repro.errors import ExecutionError

        class Broken:
            def spmv(self, x, out=None):
                raise ValueError("kaboom")

        with ParallelSpMV(csr, 2) as p:
            p.chunks[0] = Broken()
            with pytest.raises(ExecutionError) as ei:
                p(np.ones(csr.ncols))
        (failure,) = ei.value.failures
        assert failure.thread == 0
        assert (failure.lo, failure.hi) == p.partition.rows_of(0)
        assert not failure.retried
        assert "kaboom" in str(ei.value)
        assert "rows [" in failure.describe()

    def test_persistent_decode_failure_fails_after_one_retry(
        self, csr, collector
    ):
        from repro.errors import EncodingError, ExecutionError

        class Poisoned:
            def spmv(self, x, out=None):
                raise EncodingError("still broken")

        with ParallelSpMV(csr, 2, format_name="csr-du") as p:
            p.chunks[1] = Poisoned()
            p._rebuild_chunk = lambda t: Poisoned()  # rebuild doesn't help
            with pytest.raises(ExecutionError) as ei:
                p(np.ones(csr.ncols))
        (failure,) = ei.value.failures
        assert failure.retried
        assert len(self._events(collector, "executor.retry")) == 1

    def test_all_chunks_failing_all_reported(self, csr):
        from repro.errors import ExecutionError

        class Broken:
            def spmv(self, x, out=None):
                raise ValueError("kaboom")

        with ParallelSpMV(csr, 3) as p:
            for t in range(3):
                p.chunks[t] = Broken()
            with pytest.raises(ExecutionError) as ei:
                p(np.ones(csr.ncols))
        assert len(ei.value.failures) == 3
        assert [f.thread for f in ei.value.failures] == [0, 1, 2]

    def test_chunk_timeout_reported(self, csr):
        import time

        from repro.errors import ExecutionError

        class Slow:
            def __init__(self, inner):
                self.inner = inner

            def spmv(self, x, out=None):
                time.sleep(0.4)
                return self.inner.spmv(x, out=out)

        with ParallelSpMV(csr, 2, chunk_timeout=0.05) as p:
            p.chunks[0] = Slow(p.chunks[0])
            with pytest.raises(ExecutionError) as ei:
                p(np.ones(csr.ncols))
        (failure,) = ei.value.failures
        assert isinstance(failure.error, TimeoutError)
        assert "exceeded" in str(failure.error)

    def test_bad_chunk_timeout_rejected(self, csr):
        with pytest.raises(PartitionError, match="chunk_timeout"):
            ParallelSpMV(csr, 2, chunk_timeout=0.0)

    def test_success_after_failure(self, csr):
        """One failing call does not poison the executor."""
        from repro.errors import ExecutionError

        class Broken:
            def spmv(self, x, out=None):
                raise ValueError("kaboom")

        x = np.random.default_rng(33).random(csr.ncols)
        with ParallelSpMV(csr, 2) as p:
            expected = p(x).copy()
            good = p.chunks[0]
            p.chunks[0] = Broken()
            with pytest.raises(ExecutionError):
                p(x)
            p.chunks[0] = good
            assert np.array_equal(p(x), expected)
