"""Streamed (out-of-core) SpMV over a shard store, with checkpoints.

One shard is attached, multiplied, and released at a time, so the
resident working set is a single shard's arrays plus ``x`` and the
active ``y`` slice -- a matrix far larger than RAM streams through a
fixed budget.  With a checkpoint directory the partial ``y`` lives in
an on-disk ``.npy`` memmap and a small fsync'd progress record is
written after every shard, so an interrupted run resumes from the last
completed shard instead of row 0.

The progress record carries a fingerprint (store identity + ``x``
CRC32); :func:`streamed_spmv` refuses to resume a checkpoint written
for a different matrix or input vector -- silently mixing partial
results would be bit-exact garbage.

Shard-format selection lives in :meth:`repro.storage.shard.ShardStore.
build`, which accepts ``format_name="auto"`` (the configuration
advisor picks one format for the whole store); a stream over an
auto-built store is bit-identical to one over the same format chosen
explicitly, because by the time the stream runs the store *is* that
explicit format.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, StorageError
from repro.obs.resource import rss_bytes
from repro.resilience import chaos
from repro.resilience.policy import DEFAULT_RETRY_POLICY
from repro.telemetry import core as telemetry

__all__ = ["StreamResult", "streamed_spmv", "PROGRESS_NAME", "Y_PARTIAL_NAME"]

PROGRESS_NAME = "progress.json"
Y_PARTIAL_NAME = "y.partial.npy"


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one :func:`streamed_spmv` run."""

    #: The full product vector (an on-disk memmap when checkpointed).
    y: np.ndarray
    #: Shards multiplied in *this* run (excludes resumed ones).
    shards_done: int
    #: Shard index the run resumed from (0 = fresh run).
    resumed_from: int
    #: Highest resident-set size observed between shards, in bytes.
    peak_rss_bytes: int


def _fingerprint(store, x: np.ndarray) -> str:
    """Identity of (store, x) a checkpoint must match to be resumable."""
    shard_crcs = [
        (s["index"], [f["crc32"] for f in s["handle"]["layout"]])
        for s in store.shards
    ]
    blob = json.dumps(
        {
            "format": store.format_name,
            "nrows": store.nrows,
            "ncols": store.ncols,
            "boundaries": store.boundaries,
            "shards": shard_crcs,
            "x_crc32": zlib.crc32(np.ascontiguousarray(x).tobytes()),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{zlib.crc32(blob.encode('ascii')):08x}"


def _write_progress(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def streamed_spmv(
    store,
    x: np.ndarray,
    *,
    checkpoint_dir: str | None = None,
) -> StreamResult:
    """Compute ``y = A x`` one shard at a time.

    Parameters
    ----------
    store:
        A :class:`~repro.storage.shard.ShardStore` (any storage kind;
        mmap is the out-of-core case this exists for).
    x:
        Dense input vector of length ``store.ncols``.
    checkpoint_dir:
        When given, ``y`` is an on-disk memmap in this directory and
        progress is recorded after every shard; a matching progress
        record already present resumes the run from where it stopped.

    Every shard attach CRC-checks every field.  A decode-class failure
    (CRC mismatch at attach, malformed ctl at multiply) is retried once
    under :data:`~repro.resilience.policy.DEFAULT_RETRY_POLICY`, after
    the shard is rebuilt from the store's source matrix; a store with
    no source (reopened from a manifest) fails with a typed
    :class:`~repro.errors.StorageError` instead.
    """
    retry_budget = DEFAULT_RETRY_POLICY.new_budget()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (store.ncols,):
        raise FormatError(f"x has shape {x.shape}, expected ({store.ncols},)")

    resumed_from = 0
    progress_path = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        progress_path = os.path.join(checkpoint_dir, PROGRESS_NAME)
        y_path = os.path.join(checkpoint_dir, Y_PARTIAL_NAME)
        fingerprint = _fingerprint(store, x)
        if os.path.exists(progress_path) and os.path.exists(y_path):
            try:
                with open(progress_path, "r", encoding="ascii") as fh:
                    progress = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise StorageError(
                    f"unreadable stream checkpoint {progress_path}: {exc}"
                ) from exc
            if progress.get("fingerprint") != fingerprint:
                raise StorageError(
                    f"checkpoint in {checkpoint_dir} belongs to a "
                    "different (matrix, x) pair; remove it or use a "
                    "fresh directory"
                )
            resumed_from = int(progress.get("shards_done", 0))
            y = np.lib.format.open_memmap(y_path, mode="r+")
            if y.shape != (store.nrows,):
                raise StorageError(
                    f"checkpointed y has shape {y.shape}, expected "
                    f"({store.nrows},)"
                )
        else:
            y = np.lib.format.open_memmap(
                y_path, mode="w+", dtype=np.float64, shape=(store.nrows,)
            )
    else:
        y = np.empty(store.nrows, dtype=np.float64)

    peak_rss = 0
    done_this_run = 0
    with telemetry.span(
        "storage.stream", shards=store.nshards, resumed_from=resumed_from
    ) as stream_span:
        for i in range(resumed_from, store.nshards):
            lo, hi = store.rows_of(i)

            def shard_pass(_target, i=i, lo=lo, hi=hi) -> None:
                chaos.trip(
                    "stream.shard",
                    shard=i,
                    generation=store.shards[i]["generation"],
                )
                shard = store.attach(i)
                shard.spmv(x, out=y[lo:hi])
                # Drop the shard before sampling so the measured peak
                # is the streaming working set, not dead views.
                del shard

            def on_retry(exc: BaseException, attempt: int, i=i, lo=lo, hi=hi):
                telemetry.count(
                    "executor.retry",
                    1,
                    extra={
                        "thread": i,
                        "lo": lo,
                        "hi": hi,
                        "error": type(exc).__name__,
                    },
                    format=store.format_name,
                )

            DEFAULT_RETRY_POLICY.run(
                shard_pass,
                rebuild=lambda i=i: store.rebuild_shard(i),
                budget=retry_budget,
                on_retry=on_retry,
            )
            done_this_run += 1
            rss, _is_peak = rss_bytes()
            peak_rss = max(peak_rss, rss)
            if progress_path is not None:
                ckpt_t0 = time.perf_counter()
                y.flush()
                # Chaos seam: the torn-checkpoint window.  The y
                # partial for shard i is durable but progress.json
                # still says i-1; a kill here must resume to a
                # bit-identical y (shard i is simply recomputed).
                chaos.trip("stream.checkpoint", shard=i)
                _write_progress(
                    progress_path,
                    {"fingerprint": fingerprint, "shards_done": i + 1},
                )
                # seconds is the checkpoint write lag: the fsync'd
                # progress record plus the y flush -- the per-shard
                # durability cost.
                telemetry.count(
                    "storage.stream.checkpoint",
                    1,
                    extra={
                        "shard": i,
                        "rows_done": hi,
                        "storage": store.storage,
                        "seconds": time.perf_counter() - ckpt_t0,
                    },
                    format=store.format_name,
                )
        stream_span.add(peak_rss_bytes=float(peak_rss))
    return StreamResult(
        y=y,
        shards_done=done_this_run,
        resumed_from=resumed_from,
        peak_rss_bytes=peak_rss,
    )
