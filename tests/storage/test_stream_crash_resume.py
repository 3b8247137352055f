"""Real-crash resume: SIGKILL inside the torn-checkpoint window.

``streamed_spmv`` flushes the y memmap *before* rewriting
``progress.json``, so a crash between the two leaves y one shard ahead
of the recorded progress.  That ordering makes the torn state safe:
resume replays the shard whose checkpoint was torn (idempotent — the
shard's rows are simply rewritten) instead of skipping work whose
y-partial never landed.  These tests kill a real child process inside
that window via the ``stream.checkpoint`` chaos site and verify the
resume contract end to end.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import StorageError
from repro.formats.csr import CSRMatrix
from repro.storage.shard import ShardStore
from repro.storage.stream import PROGRESS_NAME, streamed_spmv

from tests.conftest import random_sparse_dense

NSHARDS = 3
X_SEED = 19

_CHILD_SCRIPT = """
import numpy as np
from repro.resilience import chaos
from repro.storage.shard import ShardStore
from repro.storage.stream import streamed_spmv

store = ShardStore.open({store_dir!r})
x = np.random.default_rng({x_seed}).random(store.ncols)
chaos.arm("stream.checkpoint", "kill", match={{"shard": 1}})
streamed_spmv(store, x, checkpoint_dir={ckpt_dir!r})
raise SystemExit("chaos kill did not fire")
"""


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(random_sparse_dense(60, 60, seed=37))


@pytest.fixture()
def torn(csr, tmp_path):
    """Run a child to the SIGKILL and hand back the torn directories."""
    store_dir = str(tmp_path / "store")
    ckpt_dir = str(tmp_path / "ckpt")
    os.makedirs(store_dir)
    build = ShardStore.build(
        csr, "csr", NSHARDS, storage="mmap", directory=store_dir
    )
    build.save_manifest()
    build.close(unlink=False)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT.format(
                store_dir=store_dir, ckpt_dir=ckpt_dir, x_seed=X_SEED
            ),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited {proc.returncode}, wanted -SIGKILL; "
        f"stderr: {proc.stderr[-500:]}"
    )
    return store_dir, ckpt_dir


def test_torn_window_leaves_progress_behind_y(torn):
    """The kill landed after y's flush, before the progress rewrite."""
    _, ckpt_dir = torn
    with open(os.path.join(ckpt_dir, PROGRESS_NAME), encoding="ascii") as fh:
        progress = json.load(fh)
    assert progress["shards_done"] == 1  # shard 1's y rows are ahead


def test_resume_is_bit_identical(torn, csr):
    store_dir, ckpt_dir = torn
    x = np.random.default_rng(X_SEED).random(csr.ncols)
    store = ShardStore.open(store_dir)
    try:
        result = streamed_spmv(store, x, checkpoint_dir=ckpt_dir)
        # The torn shard is replayed, not skipped.
        assert result.resumed_from == 1
        assert result.shards_done == NSHARDS - 1
        assert np.array_equal(np.asarray(result.y), csr.spmv(x))
    finally:
        store.close(unlink=False)


def test_resume_validates_the_fingerprint(torn, csr):
    """A torn checkpoint for one x must not seed a run with another."""
    store_dir, ckpt_dir = torn
    x = np.random.default_rng(X_SEED).random(csr.ncols)
    store = ShardStore.open(store_dir)
    try:
        with pytest.raises(StorageError):
            streamed_spmv(store, x + 1.0, checkpoint_dir=ckpt_dir)
        # The refusal left the checkpoint intact: the rightful x still
        # resumes bit-identically afterwards.
        result = streamed_spmv(store, x, checkpoint_dir=ckpt_dir)
        assert result.resumed_from == 1
        assert np.array_equal(np.asarray(result.y), csr.spmv(x))
    finally:
        store.close(unlink=False)
