"""Degradation ladder: SerialSpMV, ladder_for, ResilientExecutor."""

import numpy as np
import pytest

from tests.conftest import random_sparse_dense
from repro.errors import (
    BreakerOpenError,
    FormatError,
    PartitionError,
)
from repro.formats.csr import CSRMatrix
from repro.resilience import chaos
from repro.resilience.degrade import ResilientExecutor, SerialSpMV, ladder_for
from repro.telemetry import core as telemetry


@pytest.fixture
def csr():
    return CSRMatrix.from_dense(random_sparse_dense(48, 48, seed=11))


@pytest.fixture
def x(csr):
    return np.random.default_rng(3).random(csr.shape[1])


@pytest.fixture(autouse=True)
def _disarm():
    yield
    chaos.disarm_all()


class TestLadderFor:
    def test_process_mem_skips_the_mmap_rung(self):
        assert ladder_for("process") == (
            ("process", "mem"),
            ("thread", "mem"),
            ("serial", "mem"),
        )

    def test_thread_mem(self):
        assert ladder_for("thread") == (
            ("thread", "mem"),
            ("serial", "mem"),
        )

    def test_serial_is_its_own_floor(self):
        assert ladder_for("serial") == (("serial", "mem"),)

    def test_unknown_backend_rejected(self):
        with pytest.raises(PartitionError):
            ladder_for("gpu")


class TestSerialSpMV:
    def test_matches_dense_reference(self, csr, x):
        with SerialSpMV(csr) as ex:
            assert np.array_equal(ex(x), csr.spmv(x))

    def test_out_parameter(self, csr, x):
        ex = SerialSpMV(csr)
        out = np.empty(csr.shape[0])
        got = ex(x, out=out)
        assert got is out
        assert np.array_equal(out, csr.spmv(x))

    def test_shape_mismatch_is_typed(self, csr):
        ex = SerialSpMV(csr)
        with pytest.raises(FormatError):
            ex(np.zeros(csr.shape[1] + 1))

    def test_executor_shape(self, csr):
        ex = SerialSpMV(csr)
        assert (ex.backend, ex.storage, ex.nthreads) == ("serial", "mem", 1)


class TestResilientExecutor:
    def test_healthy_top_rung_no_degradation(self, csr, x):
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with ResilientExecutor(csr, 2, backend="thread") as ex:
                got = ex(x)
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        assert np.array_equal(got, csr.spmv(x))
        assert not [e for e in events if e.name == "resilience.degrade"]

    def test_degrades_to_serial_bit_identical(self, csr, x):
        # Every thread chunk fails -> the thread rung is undegradable.
        chaos.arm(
            "thread.chunk",
            "raise",
            match={},
            times=10**6,
            exc_factory=lambda: OSError("injected"),
        )
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with ResilientExecutor(csr, 2, backend="thread") as ex:
                got = ex(x)
                rung = ex.active_rung
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        assert rung == ("serial", "mem")
        assert np.array_equal(got, csr.spmv(x))
        degrades = [e for e in events if e.name == "resilience.degrade"]
        assert len(degrades) == 1
        attrs = degrades[0].attrs
        assert (attrs["from_backend"], attrs["to_backend"]) == (
            "thread",
            "serial",
        )
        assert attrs["error"] == "ExecutionError"

    def test_all_rungs_open_raises_breaker_open(self, csr, x):
        now = [0.0]
        ex = ResilientExecutor(
            csr, 2, backend="thread", clock=lambda: now[0]
        )
        # The stock breaker opens on the third consecutive failure.
        for rung in ex.ladder:
            breaker = ex.breakers.get(ex._rung_key(rung))
            for _ in range(3):
                breaker.record_failure()
        now[0] = 1.0
        with pytest.raises(BreakerOpenError) as exc_info:
            ex(x)
        # The stock cooldown is 5 s; 1 s of it has passed.
        assert exc_info.value.retry_after_s == pytest.approx(4.0)
        ex.close()

    def test_recovers_up_the_ladder_after_cooldown(self, csr, x):
        now = [0.0]
        chaos.arm(
            "thread.chunk",
            "raise",
            match={},
            times=10**6,
            exc_factory=lambda: OSError("injected"),
        )
        ex = ResilientExecutor(
            csr, 2, backend="thread", clock=lambda: now[0]
        )
        thread_rung = ex.breakers.get(ex._rung_key(("thread", "mem")))
        # Three failing calls open the thread rung's stock breaker; each
        # still answers from the serial rung.
        for _ in range(3):
            assert np.array_equal(ex(x), csr.spmv(x))
            assert ex.active_rung == ("serial", "mem")
        assert not thread_rung.allow()
        # While the thread breaker is open, calls stay on serial without
        # re-attempting the broken rung.
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            assert np.array_equal(ex(x), csr.spmv(x))
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        assert ex.active_rung == ("serial", "mem")
        assert not [e for e in events if e.name == "resilience.degrade"]
        # Heal the fault; once more than the 5 s cooldown has passed the
        # half-open probe readopts the thread rung.
        chaos.disarm_all()
        now[0] = 6.0
        assert np.array_equal(ex(x), csr.spmv(x))
        assert ex.active_rung == ("thread", "mem")
        ex.close()

    def test_caller_bugs_propagate(self, csr):
        with ResilientExecutor(csr, 2, backend="thread") as ex:
            with pytest.raises(FormatError):
                ex(np.zeros(csr.shape[1] + 1))
            # No degradation happened: the top rung is still active.
            assert ex.active_rung == ("thread", "mem")

    def test_closed_executor_refuses(self, csr, x):
        ex = ResilientExecutor(csr, 2, backend="thread")
        ex.close()
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ex(x)
