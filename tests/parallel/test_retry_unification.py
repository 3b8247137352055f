"""The thread executor drives retries through one RetryPolicy.

Faults are injected at the ``thread.chunk`` chaos site rather than by
wrapping a chunk: a retry rebuilds the chunk, so a wrapper would not
survive it.  These tests pin the contract: the default policy, custom
policies honored, and retry decisions drawn from one shared budget.
"""

import numpy as np
import pytest

from repro.compress.encode_cache import ConvertCache
from repro.errors import EncodingError, ExecutionError
from repro.formats import CSRMatrix
from repro.parallel import ParallelSpMV
from repro.resilience import chaos
from repro.resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy
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
        # The policy's error classes gate which failures are retried.
        policy = RetryPolicy(max_attempts=3, retry_on=("decode",))
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
        policy = RetryPolicy(max_attempts=2, retry_on=("decode",), budget=1)
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
