"""Streamed out-of-core SpMV: identity, checkpoints, resume, refusal."""

import json
import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.formats.csr import CSRMatrix
from repro.storage.shard import ShardStore
from repro.storage.stream import PROGRESS_NAME, streamed_spmv

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(50, 41, seed=13, empty_rows=True)
    )


@pytest.fixture(scope="module")
def x(csr):
    return np.random.default_rng(14).random(csr.ncols)


@pytest.fixture()
def store(csr, tmp_path):
    with ShardStore.build(
        csr, "csr", 4, storage="mmap", directory=str(tmp_path / "shards")
    ) as s:
        yield s


def test_matches_full_product(store, csr, x):
    result = streamed_spmv(store, x)
    assert result.resumed_from == 0
    assert result.shards_done == store.nshards
    assert np.array_equal(result.y, csr.spmv(x))


def test_checkpointed_run_and_trivial_resume(store, csr, x, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = streamed_spmv(store, x, checkpoint_dir=ckpt)
    assert np.array_equal(np.asarray(first.y), csr.spmv(x))
    again = streamed_spmv(store, x, checkpoint_dir=ckpt)
    assert again.resumed_from == store.nshards
    assert again.shards_done == 0
    assert np.array_equal(np.asarray(again.y), csr.spmv(x))


def test_resume_from_midpoint(store, csr, x, tmp_path):
    """Crash-after-shard-k state: progress says k, y holds k shards."""
    ckpt = str(tmp_path / "ckpt")
    streamed_spmv(store, x, checkpoint_dir=ckpt)
    progress_path = os.path.join(ckpt, PROGRESS_NAME)
    with open(progress_path, "r", encoding="ascii") as fh:
        progress = json.load(fh)
    progress["shards_done"] = 2
    with open(progress_path, "w", encoding="ascii") as fh:
        json.dump(progress, fh)
    resumed = streamed_spmv(store, x, checkpoint_dir=ckpt)
    assert resumed.resumed_from == 2
    assert resumed.shards_done == store.nshards - 2
    assert np.array_equal(np.asarray(resumed.y), csr.spmv(x))


def test_refuses_foreign_checkpoint(store, csr, x, tmp_path):
    """A checkpoint written for another x must not be resumed."""
    ckpt = str(tmp_path / "ckpt")
    streamed_spmv(store, x, checkpoint_dir=ckpt)
    with pytest.raises(StorageError):
        streamed_spmv(store, x + 1.0, checkpoint_dir=ckpt)


def test_wrong_x_shape(store):
    from repro.errors import FormatError

    with pytest.raises(FormatError):
        streamed_spmv(store, np.ones(store.ncols + 3))
