"""Disabled telemetry is free: zero sink calls, bit-identical math.

The disabled fast path is one module-level ``None`` check on the
telemetry sink, so no :class:`~repro.telemetry.core.Sink` method may
execute while both views are off -- these tests spy on the class
itself to prove instrumented code paths (encode, kernels, the parallel
executors, the process worker entry, the bench harness) never reach
it, and that turning on the event log, the live view or both changes
no numeric output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import ExperimentConfig, run_format_matrix
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.obs.core import ObsRuntime
from repro.parallel.executor import ParallelSpMV
from repro.telemetry import core as telemetry
from repro.telemetry.core import Collector, Sink
from tests.conftest import random_sparse_dense


@pytest.fixture
def spy(monkeypatch):
    """Count every recording call that reaches the one sink class."""
    calls = {"n": 0}

    for name in ("span", "count", "gauge", "observe"):
        original = getattr(Sink, name)

        def counted(self, *args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Sink, name, counted)
    return calls


def _scoped(log: bool, live: bool):
    """Run ``fn`` under a sink with the chosen views on."""

    def run(fn):
        runtime = ObsRuntime() if live else None
        prev = telemetry.set_sink(Sink(Collector() if log else None, runtime))
        try:
            return fn()
        finally:
            telemetry.set_sink(prev)
            if runtime is not None:
                runtime.close()

    return run


#: The four sink states: off, log only, live only, both.
STATES = {
    "off": lambda fn: fn(),
    "log": _scoped(log=True, live=False),
    "live": _scoped(log=False, live=True),
    "both": _scoped(log=True, live=True),
}


class TestZeroCollectorCalls:
    def test_encode_and_spmv(self, spy):
        assert telemetry.get_sink() is None
        dense = random_sparse_dense(50, 50, seed=4)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(0).random(50)
        for fmt in ("csr", "csr-du", "csr-vi", "csr-du-vi"):
            convert(csr, fmt).spmv(x)
        assert spy["n"] == 0

    def test_parallel_executor(self, spy):
        dense = random_sparse_dense(60, 60, seed=5)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(1).random(60)
        with ParallelSpMV(csr, 3) as par:
            par(x)
        assert spy["n"] == 0

    def test_bench_cell(self, spy, paper_matrix):
        run_format_matrix(paper_matrix, "csr-du", ExperimentConfig())
        assert spy["n"] == 0

    def test_process_worker_entry(self, spy):
        """With telemetry off, the worker entry point is zero-call.

        ``_submit`` attaches no trace context when the sink is off, so
        ``_worker_spmv`` must run its chunk without reaching a sink.
        Calling it directly (in-process, like a fork worker would
        inherit this interpreter state) puts the spy inside the worker
        path.
        """
        from repro.obs import xproc
        from repro.parallel import process_executor as pe
        from repro.storage import provider

        assert telemetry.get_sink() is None
        assert xproc.current_context(run_id="r", parent="p", worker=0) is None
        dense = random_sparse_dense(64, 64, seed=7)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(2).random(64)
        try:
            with pe.ProcessParallelSpMV(csr, 2, format_name="csr") as par:
                np.copyto(par._x.array, x)
                for t in range(par.nworkers):
                    lo, hi = par.partition.rows_of(t)
                    spec = dict(par.store.attach_spec(t))
                    assert "ctx" not in spec
                    status = pe._worker_spmv(
                        spec,
                        par._x.name,
                        par.ncols,
                        par._y.name,
                        par.nrows,
                        lo,
                        hi,
                    )
                    assert status["ok"]
                    assert "xproc" not in status
                assert np.allclose(par._y.array, csr.spmv(x))
        finally:
            # Running the worker entry in-process left attachments in
            # the per-worker caches; a real worker holds them for its
            # whole life, but here they would GC noisily at exit.
            pe._VEC_CACHE.clear()
            pe._SHARD_CACHE.clear()
            for seg in provider._SHM_ATTACHED.values():
                provider._disarm_segment(seg)
            provider._SHM_ATTACHED.clear()
        assert spy["n"] == 0

    def test_zero_calls_when_disabled(self, spy):
        assert telemetry.get_sink() is None
        with telemetry.span("probe"):
            telemetry.count("probe")
            telemetry.gauge("probe", 1.0)
            telemetry.observe("probe", 1.0)
        assert spy["n"] == 0

    def test_spy_does_fire_when_enabled(self, spy):
        def probe():
            with telemetry.span("probe"):
                telemetry.count("c")

        # The spy itself works, whichever view is on.
        for state in ("log", "live", "both"):
            spy["n"] = 0
            STATES[state](probe)
            assert spy["n"] == 2, state

    def test_obs_spy_does_fire_when_enabled(self, spy):
        runtime = ObsRuntime()
        prev = telemetry.set_live(runtime)
        try:
            telemetry.observe("probe", 1.0)
        finally:
            telemetry.set_live(prev)
            runtime.close()
        assert spy["n"] > 0


class TestOneCallOneEvent:
    def test_count_feeds_log_and_live_once(self):
        collector, runtime = Collector(), ObsRuntime(rules=())
        prev = telemetry.set_sink(Sink(collector, runtime))
        try:
            telemetry.count("kernel.fallback", 1, format="csr-du")
        finally:
            telemetry.set_sink(prev)
            runtime.close()
        (event,) = collector.snapshot()
        assert (event.kind, event.name) == ("counter", "kernel.fallback")
        (counter,) = runtime.snapshot()["counters"]
        assert counter["name"] == "kernel.fallback"
        assert counter["labels"] == {"format": "csr-du"}
        assert counter["total"] == 1.0

    def test_process_chunk_sampled_exactly_once(self):
        nworkers, calls = 2, 3
        csr = CSRMatrix.from_dense(random_sparse_dense(64, 64, seed=12))
        x = np.random.default_rng(4).random(64)

        def run():
            from repro.parallel.process_executor import ProcessParallelSpMV

            with ProcessParallelSpMV(csr, nworkers, format_name="csr") as par:
                for _ in range(calls):
                    par(x)
            return telemetry.get_live().snapshot()

        snap = STATES["both"](run)
        chunk = [
            h for h in snap["histograms"] if h["name"] == "spmv.chunk.seconds"
        ]
        assert sum(h["count"] for h in chunk) == nworkers * calls
        (call,) = [
            h for h in snap["histograms"] if h["name"] == "spmv.call.seconds"
        ]
        assert call["count"] == calls


class TestBitIdentical:
    def test_parallel_spmv(self):
        dense = random_sparse_dense(80, 80, seed=6, quantize=16)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(3).random(80)

        def run():
            with ParallelSpMV(csr, 4, format_name="csr-du-vi") as par:
                return par(x)

        baseline = run()
        for state, scoped in STATES.items():
            assert np.array_equal(baseline, scoped(run)), state

    def test_bench_results(self, paper_matrix):
        def run():
            res = run_format_matrix(
                paper_matrix, "csr-vi", ExperimentConfig(), matrix_id=1
            )
            return res.times, res.mflops, res.attributions

        times_off, mflops_off, att_off = run()
        for state, scoped in STATES.items():
            times_on, mflops_on, att_on = scoped(run)
            assert times_off == times_on, state
            assert mflops_off == mflops_on, state
            # Attributions identical except the plan-counter fields,
            # which by design only populate while tracing.
            for key, off in att_off.items():
                on = att_on[key]
                assert off.bytes_per_iter == on.bytes_per_iter
                assert off.roofline_pct == on.roofline_pct
                assert off.time_s == on.time_s
