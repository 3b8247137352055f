"""ShardStore: an encoded matrix as independently-stored row-range shards.

The batched encoder and :class:`~repro.compress.encode_cache.
ConvertCache` already key conversions on ``(matrix, format, kwargs,
row_range)``; this module makes the *storage* of those per-range
encodes explicit.  A store is:

* a **partition** -- ``nshards + 1`` row boundaries (static nnz
  balancing, same scheme as the executors);
* one **shard** per range -- the encoded row-slice matrix, taken apart
  by :mod:`repro.storage.codec` and packed into a
  :class:`~repro.storage.provider.BufferProvider` buffer (in-process
  memory, POSIX shared memory, or one ``np.memmap`` file each);
* a **manifest** -- JSON-safe description of every shard (row range,
  field layout with dtypes and CRC32 seals, format metadata,
  generation counter), which for mmap storage persists to
  ``manifest.json`` so a store can be reopened later -- or by another
  process -- without the source matrix.

``attach_spec(i)`` returns a picklable dict from which *any* process
rebuilds shard ``i`` via :func:`attach_shard` -- the process backend's
transport.  ``rebuild_shard(i)`` re-encodes one shard from the source
matrix after invalidating its cache entry and bumps its generation,
which is how the cache-invalidating retry crosses process boundaries:
workers cache attached shards keyed by generation, so a rebuilt shard
is re-attached, never reused stale.

``budget_bytes`` makes the out-of-core contract enforceable: a build
whose *resident* bytes (provider-counted; mmap counts zero) would
exceed the budget raises :class:`~repro.errors.StorageError` instead
of quietly swelling the process.
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np

from repro.compress.encode_cache import ConvertCache, cached_convert
from repro.errors import IntegrityError, StorageError
from repro.formats.conversions import to_csr
from repro.storage.codec import extract_fields, rebuild_matrix
from repro.storage.provider import attach as provider_attach
from repro.storage.provider import make_provider
from repro.telemetry import core as telemetry

__all__ = ["ShardStore", "attach_shard", "MANIFEST_NAME", "MANIFEST_VERSION"]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def _manifest_crc(shards: list[dict]) -> int:
    """CRC32 seal over the canonical JSON of the shard table."""
    blob = json.dumps(shards, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("ascii"))


def attach_shard(spec: dict, *, verify: bool = True):
    """Rebuild one shard matrix from a picklable ``attach_spec`` dict.

    Standalone (no store object needed) so process-pool workers can
    call it with nothing but the spec.  ``verify=True`` re-hashes every
    field against its stored CRC32 and raises
    :class:`~repro.errors.IntegrityError` on mismatch -- the
    worker-side validator.
    """
    t0 = time.perf_counter()
    fields = provider_attach(spec["handle"], verify=verify)
    matrix = rebuild_matrix(fields, spec["meta"])
    telemetry.count(
        "storage.shard.attach",
        1,
        extra={
            "index": spec["index"],
            "storage": spec["handle"]["kind"],
            "seconds": time.perf_counter() - t0,
        },
        format=spec["meta"]["format"],
    )
    return matrix


class ShardStore:
    """Row-range shards of one encoded matrix behind a buffer provider.

    Build with :meth:`build` (from a resident matrix, via the convert
    cache) or :meth:`open` (from a persisted mmap manifest).  Use as a
    context manager; :meth:`close` releases every backing segment/file.
    """

    def __init__(
        self,
        *,
        provider,
        format_name: str,
        format_kwargs: dict,
        nrows: int,
        ncols: int,
        boundaries: list[int],
        shards: list[dict],
        source_csr=None,
        convert_cache: ConvertCache | None = None,
        budget_bytes: int | None = None,
    ):
        self._provider = provider
        self.format_name = format_name
        self.format_kwargs = dict(format_kwargs)
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.boundaries = [int(b) for b in boundaries]
        #: Per-shard dicts: {index, rows, generation, meta, handle}.
        self.shards = shards
        self._source_csr = source_csr
        self._cache = convert_cache
        self.budget_bytes = budget_bytes
        self._closed = False

    # -- properties --------------------------------------------------------
    @property
    def nshards(self) -> int:
        return len(self.shards)

    @property
    def storage(self) -> str:
        return self._provider.kind

    @property
    def resident_bytes(self) -> int:
        """Bytes of shard payload resident in this process (0 for mmap)."""
        return self._provider.resident_bytes

    @property
    def stored_bytes(self) -> int:
        """Total packed payload bytes across shards (any storage kind)."""
        return sum(
            sum(f["nbytes"] for f in s["handle"]["layout"]) for s in self.shards
        )

    def rows_of(self, i: int) -> tuple[int, int]:
        return self.boundaries[i], self.boundaries[i + 1]

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        matrix,
        format_name: str,
        nshards: int,
        *,
        storage: str = "mem",
        directory: str | None = None,
        convert_cache: ConvertCache | None = None,
        budget_bytes: int | None = None,
        boundaries=None,
        deadline=None,
        **format_kwargs,
    ) -> "ShardStore":
        """Encode *matrix* into *nshards* row-range shards.

        Each shard's encode goes through the convert cache (keyed on
        the source matrix + row range, exactly like the executors'
        chunks, so executor and store share encodes).  ``boundaries``
        overrides the default nnz-balanced split with explicit row
        cuts -- the process executor passes its partition here so
        shards and worker chunks coincide.

        ``format_name="auto"`` asks the configuration advisor
        (:mod:`repro.perf.advisor`) to pick one format for the whole
        store from the matrix's structural features.  One format per
        store, not per shard: the manifest, fingerprints and streamed
        checkpoints all assume shard homogeneity, and a per-shard mix
        would break resume byte-identity for no modeled benefit.

        ``deadline`` (a :class:`~repro.resilience.policy.Deadline`) is
        checked between shard encodes, so a wall-clock budget set at
        ``make_executor`` also bounds the build phase: an expired
        budget raises :class:`~repro.errors.DeadlineExceeded` at a
        shard boundary instead of encoding to the bitter end.
        """
        if nshards < 1:
            raise StorageError(f"nshards must be >= 1, got {nshards}")
        csr = to_csr(matrix)
        if format_name == "auto":
            # Lazy import: the advisor sits above the storage layer.
            from repro.perf.advisor.advisor import advise_format

            format_name = advise_format(csr, threads=nshards)
        nrows, ncols = csr.shape
        if boundaries is None:
            # Imported here, not at module level: repro.parallel's
            # process backend imports this module, and importing the
            # partition helpers pulls in the whole parallel package.
            from repro.parallel.partition import balance_by_nnz

            boundaries = balance_by_nnz(csr.row_ptr, nshards).tolist()
        else:
            boundaries = [int(b) for b in boundaries]
            if len(boundaries) != nshards + 1:
                raise StorageError(
                    f"boundaries has {len(boundaries)} entries, expected "
                    f"nshards+1={nshards + 1}"
                )
        provider = make_provider(storage, directory=directory)
        store = cls(
            provider=provider,
            format_name=format_name,
            format_kwargs=format_kwargs,
            nrows=nrows,
            ncols=ncols,
            boundaries=boundaries,
            shards=[],
            source_csr=csr,
            convert_cache=convert_cache,
            budget_bytes=budget_bytes,
        )
        try:
            for i in range(nshards):
                if deadline is not None:
                    deadline.check("storage.build")
                lo, hi = boundaries[i], boundaries[i + 1]
                encoded = cached_convert(
                    csr,
                    format_name,
                    rows=(lo, hi),
                    cache=convert_cache,
                    **format_kwargs,
                )
                store._store_shard(i, (lo, hi), encoded)
        except BaseException:
            store.close()
            raise
        if storage == "mmap":
            store.save_manifest()
        return store

    @classmethod
    def open(cls, directory: str) -> "ShardStore":
        """Reopen a persisted mmap store from its ``manifest.json``.

        The manifest's own CRC32 seal is checked here; each shard's
        field CRCs are checked lazily at attach time.  A reopened store
        has no source matrix, so :meth:`rebuild_shard` is unavailable.
        """
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="ascii") as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise StorageError(f"no {MANIFEST_NAME} in {directory}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable manifest {path}: {exc}") from exc
        if doc.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"manifest version {doc.get('version')!r} is not "
                f"{MANIFEST_VERSION}"
            )
        if _manifest_crc(doc["shards"]) != doc.get("crc32"):
            raise IntegrityError(
                f"manifest {path} failed its CRC32 seal: shard table "
                "changed since it was written"
            )
        provider = make_provider("mmap", directory=directory)
        # Re-point shard files at this directory (the store may have
        # been moved wholesale).
        shards = doc["shards"]
        for s in shards:
            s["handle"]["path"] = os.path.join(
                directory, os.path.basename(s["handle"]["path"])
            )
            if not os.path.exists(s["handle"]["path"]):
                raise StorageError(
                    f"manifest names missing shard file {s['handle']['path']}"
                )
            provider._paths[s["index"]] = s["handle"]["path"]
            provider.stored_bytes += os.path.getsize(s["handle"]["path"])
        return cls(
            provider=provider,
            format_name=doc["format"],
            format_kwargs=doc.get("format_kwargs", {}),
            nrows=doc["nrows"],
            ncols=doc["ncols"],
            boundaries=doc["boundaries"],
            shards=shards,
        )

    def save_manifest(self) -> str:
        """Write ``manifest.json`` next to the shard files (mmap only)."""
        if self.storage != "mmap":
            raise StorageError(
                f"only mmap stores persist a manifest (this one is "
                f"{self.storage!r})"
            )
        doc = {
            "version": MANIFEST_VERSION,
            "format": self.format_name,
            "format_kwargs": self.format_kwargs,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "boundaries": self.boundaries,
            "shards": self.shards,
            "crc32": _manifest_crc(self.shards),
        }
        path = os.path.join(self._provider.directory, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    # -- shard plumbing ----------------------------------------------------
    def _store_shard(self, i: int, rows: tuple[int, int], encoded) -> None:
        fields, meta = extract_fields(encoded)
        handle = self._provider.store(i, fields)
        nbytes = sum(f["nbytes"] for f in handle["layout"])
        spec = {
            "index": i,
            "rows": [rows[0], rows[1]],
            "generation": (
                self.shards[i]["generation"] + 1 if i < len(self.shards) else 0
            ),
            "meta": meta,
            "handle": handle,
        }
        if i < len(self.shards):
            self.shards[i] = spec
        else:
            self.shards.append(spec)
        telemetry.count(
            "storage.shard.write",
            1,
            extra={"index": i, "bytes": nbytes, "storage": self.storage},
            format=self.format_name,
        )
        if self.budget_bytes is not None and self.resident_bytes > self.budget_bytes:
            raise StorageError(
                f"shard build exceeded budget_bytes={self.budget_bytes}: "
                f"{self.resident_bytes} bytes resident after shard {i} "
                f"under {self.storage!r} storage (use storage='mmap' to "
                "keep shards out of core)"
            )

    def attach_spec(self, i: int) -> dict:
        """Picklable description of shard *i* for cross-process attach."""
        self._check_index(i)
        return self.shards[i]

    def attach(self, i: int, *, verify: bool = True):
        """Shard *i* rebuilt as a matrix in this process."""
        self._check_index(i)
        t0 = time.perf_counter()
        spec = self.shards[i]
        fields = self._provider.resolve(spec["handle"], verify=verify)
        matrix = rebuild_matrix(fields, spec["meta"])
        telemetry.count(
            "storage.shard.attach",
            1,
            extra={
                "index": i,
                "storage": self.storage,
                "seconds": time.perf_counter() - t0,
            },
            format=self.format_name,
        )
        return matrix

    def rebuild_shard(self, i: int) -> dict:
        """Re-encode shard *i* from the source matrix; new generation.

        The cross-process analogue of the thread executor's
        ``_rebuild_chunk``: the cached encode is invalidated, the shard
        re-encoded and re-stored (fresh shm segment / rewritten file),
        and the bumped ``generation`` forces workers holding the old
        spec to re-attach.
        """
        self._check_index(i)
        if self._source_csr is None:
            raise StorageError(
                f"shard {i} cannot be rebuilt: this store has no source "
                "matrix (opened from a manifest or streamed)"
            )
        lo, hi = self.rows_of(i)
        from repro.compress.encode_cache import DEFAULT_CACHE

        cache = self._cache if self._cache is not None else DEFAULT_CACHE
        with telemetry.span("storage.shard.rebuild", index=i, storage=self.storage):
            cache.invalidate(
                self._source_csr,
                self.format_name,
                rows=(lo, hi),
                **self.format_kwargs,
            )
            encoded = cached_convert(
                self._source_csr,
                self.format_name,
                rows=(lo, hi),
                cache=cache,
                **self.format_kwargs,
            )
            self._store_shard(i, (lo, hi), encoded)
            if self.storage == "mmap":
                self.save_manifest()
        return self.shards[i]

    def _check_index(self, i: int) -> None:
        if self._closed:
            raise StorageError("shard store is closed")
        if not 0 <= i < len(self.shards):
            raise StorageError(
                f"shard index {i} out of range (store has {len(self.shards)})"
            )

    # -- lifecycle ---------------------------------------------------------
    def close(self, *, unlink: bool = True) -> None:
        """Release every backing segment/file (idempotent).

        ``unlink=False`` keeps mmap files (and their manifest) on disk
        for a later :meth:`open`; shm segments are always unlinked --
        an orphaned segment outlives the process and leaks kernel
        memory.
        """
        if self._closed:
            return
        self._provider.close(unlink=unlink)
        self._closed = True

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
