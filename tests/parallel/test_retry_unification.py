"""Both executors drive retries through one RetryPolicy.

Faults are injected at the ``thread.chunk`` / ``worker.chunk`` chaos
sites rather than by wrapping a chunk: a retry rebuilds the chunk, so a
wrapper would not survive it.  These tests pin the contract: one rule
for which errors are retried (``DECODE_ERRORS``) on both backends, the
default policy, custom policies honored, and retry decisions drawn from
one shared budget.
"""

import numpy as np
import pytest

from repro.compress.encode_cache import ConvertCache
from repro.errors import (
    DECODE_ERRORS,
    EncodingError,
    ExecutionError,
    StorageError,
)
from repro.formats.csr import CSRMatrix
from repro.parallel.executor import ParallelSpMV
from repro.parallel.process_executor import ProcessParallelSpMV
from repro.resilience import chaos
from repro.resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.telemetry import core as telemetry
from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def dense():
    return random_sparse_dense(40, 40, seed=77)


@pytest.fixture(scope="module")
def csr(dense):
    return CSRMatrix.from_dense(dense)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    chaos.disarm_all()


def _fail_chunk(thread, exc_factory=lambda: EncodingError("injected decode")):
    """Make thread *thread*'s next chunk attempt raise once."""
    chaos.arm(
        "thread.chunk",
        "raise",
        match={"thread": thread},
        exc_factory=exc_factory,
    )


EXECUTORS = {"thread": ParallelSpMV, "process": ProcessParallelSpMV}

#: Each backend's chaos site and the match that fires once on chunk 0:
#: every pool worker counts ``times`` down in its own copy, so the
#: process site also matches generation 0, which the rebuild moves past.
SITES = {
    "thread": ("thread.chunk", {"thread": 0}),
    "process": ("worker.chunk", {"index": 0, "generation": 0}),
}


@pytest.mark.parametrize("backend", sorted(SITES))
@pytest.mark.parametrize(
    "error",
    [*DECODE_ERRORS, StorageError, ValueError],
    ids=lambda cls: cls.__name__,
)
def test_one_retry_rule_on_both_backends(csr, backend, error):
    """A decode-class error gets exactly one rebuild retry; others none."""
    x = np.random.default_rng(9).random(csr.ncols)
    site, match = SITES[backend]
    with EXECUTORS[backend](csr, 2, convert_cache=ConvertCache()) as ex:
        y_ref = ex(x)
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        chaos.arm(
            site,
            "raise",
            match=match,
            exc_factory=lambda: error("injected"),
        )
        with EXECUTORS[backend](csr, 2, convert_cache=ConvertCache()) as ex:
            if error in DECODE_ERRORS:
                assert np.array_equal(ex(x), y_ref)
            else:
                with pytest.raises(ExecutionError) as err:
                    ex(x)
        events = telemetry.get_collector().snapshot()
    finally:
        telemetry.set_collector(prev)
    retries = [e for e in events if e.name == "executor.retry"]
    if error in DECODE_ERRORS:
        assert len(retries) == 1
        assert retries[0].attrs["error"] == error.__name__
    else:
        assert not retries
        (failure,) = err.value.failures
        assert failure.thread == 0
        assert isinstance(failure.error, error)
        assert not failure.retried


class TestDefaults:
    def test_row_executor_retries_decode_by_default(self, csr):
        with ParallelSpMV(csr, 2) as p:
            assert p.retry_policy is DEFAULT_RETRY_POLICY


class TestCustomPolicyHonoredEverywhere:
    def test_row_executor_can_opt_out_of_retries(self, csr):
        x = np.random.default_rng(7).random(csr.ncols)
        policy = RetryPolicy(max_attempts=1, budget=0)
        with ParallelSpMV(csr, 2, retry_policy=policy) as p:
            _fail_chunk(0)
            with pytest.raises(ExecutionError) as err:
                p(x)
        (failure,) = err.value.failures
        assert not failure.retried

    def test_non_decode_class_still_refused(self, csr):
        # Only DECODE_ERRORS are retried, whatever the attempt count.
        policy = RetryPolicy(max_attempts=3)
        with ParallelSpMV(csr, 2, retry_policy=policy) as p:
            _fail_chunk(0, exc_factory=lambda: ValueError("caller bug"))
            with pytest.raises(ExecutionError) as err:
                p(np.ones(csr.ncols))
        (failure,) = err.value.failures
        assert isinstance(failure.error, ValueError)
        assert not failure.retried


class TestSharedBudget:
    def test_budget_caps_retries_across_calls(self, csr, dense):
        x = np.random.default_rng(8).random(csr.ncols)
        policy = RetryPolicy(max_attempts=2, budget=1)
        with ParallelSpMV(
            csr, 2, retry_policy=policy, convert_cache=ConvertCache()
        ) as p:
            _fail_chunk(1)
            assert np.allclose(p(x), dense @ x)  # spends the whole budget
            _fail_chunk(1)
            with pytest.raises(ExecutionError) as err:
                p(x)  # the executor's budget is drained
        (failure,) = err.value.failures
        assert isinstance(failure.error, EncodingError)
        assert not failure.retried
