"""Buffer providers: where a shard's encoded arrays physically live.

A shard's payload is a set of named *fields* -- the stored arrays of
one encoded row-range matrix (``row_ptr``/``col_ind``/``values`` for
CSR, the ``ctl`` byte stream for CSR-DU, ...).  A provider owns the
backing bytes and hands out a JSON-safe *handle* that any process can
:func:`attach` to get zero-copy views back:

* :class:`MemoryProvider` -- plain in-process arrays.  The handle only
  resolves inside the owning process (it is the thread backend's
  storage, and the baseline the others are checked against).
* :class:`SharedMemoryProvider` -- one ``multiprocessing.
  shared_memory.SharedMemory`` segment per shard.  The handle carries
  the segment name, so :class:`~repro.parallel.process_executor.
  ProcessParallelSpMV` workers attach without copying or pickling any
  matrix data.
* :class:`MmapProvider` -- one binary file per shard in a directory;
  attaching maps it with ``np.memmap``, so a matrix larger than RAM is
  touched one shard at a time (the out-of-core case).

All three pack fields into a single flat buffer with one deterministic
layout (name-sorted, 8-byte aligned) described by :class:`FieldSpec`
entries that ride in the handle; every field records a CRC32 at store
time, and :func:`attach` re-hashes by default -- the worker-side
validator that catches a shard poisoned between store and use (see
:mod:`repro.robust.validate` for the matching in-memory seals).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import IntegrityError, StorageError
from repro.telemetry import core as telemetry

__all__ = [
    "FieldSpec",
    "BufferProvider",
    "MemoryProvider",
    "SharedMemoryProvider",
    "MmapProvider",
    "pack_layout",
    "write_fields",
    "attach",
    "PROVIDER_KINDS",
]

#: Alignment of every field inside a packed shard buffer.
_ALIGN = 8

PROVIDER_KINDS = ("mem", "shm", "mmap")


def _disarm_segment(seg: "shared_memory.SharedMemory") -> None:
    """Abandon a segment whose buffer is still exported.

    Called when ``close()`` raises :class:`BufferError`: NumPy views
    over the segment are still alive, and they keep the underlying mmap
    alive through their own reference chain.  Closing the descriptor
    and dropping the object's buffer references turns its ``__del__``
    into a no-op, so a later garbage collection can never raise
    mid-run; the OS unmaps the (already unlinked) memory at process
    exit.
    """
    try:
        if seg._fd >= 0:
            os.close(seg._fd)
            seg._fd = -1
        seg._buf = None
        seg._mmap = None
    except (AttributeError, OSError):
        pass


@dataclass(frozen=True)
class FieldSpec:
    """Location and identity of one field inside a packed shard buffer."""

    name: str
    #: ``"array"`` (ndarray; dtype/shape describe it) or ``"bytes"``.
    kind: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int
    crc32: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FieldSpec":
        return cls(
            name=d["name"],
            kind=d["kind"],
            dtype=d["dtype"],
            shape=tuple(int(s) for s in d["shape"]),
            offset=int(d["offset"]),
            nbytes=int(d["nbytes"]),
            crc32=int(d["crc32"]),
        )


def _field_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).tobytes()
    return bytes(value)


def pack_layout(fields: dict[str, np.ndarray | bytes]) -> tuple[list[FieldSpec], int]:
    """Deterministic packed layout of *fields*; returns (specs, total size).

    Fields are laid out in name order at 8-byte-aligned offsets, so the
    same payload always packs to the same bytes (the CRCs and the byte
    identity tests depend on this).
    """
    specs: list[FieldSpec] = []
    offset = 0
    for name in sorted(fields):
        value = fields[name]
        raw = _field_bytes(value)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        if isinstance(value, np.ndarray):
            spec = FieldSpec(
                name=name,
                kind="array",
                dtype=np.ascontiguousarray(value).dtype.str,
                shape=tuple(int(s) for s in value.shape),
                offset=offset,
                nbytes=len(raw),
                crc32=zlib.crc32(raw),
            )
        else:
            spec = FieldSpec(
                name=name,
                kind="bytes",
                dtype="",
                shape=(len(raw),),
                offset=offset,
                nbytes=len(raw),
                crc32=zlib.crc32(raw),
            )
        specs.append(spec)
        offset += len(raw)
    return specs, max(offset, 1)


def write_fields(
    buf, specs: list[FieldSpec], fields: dict[str, np.ndarray | bytes]
) -> None:
    """Copy every field's bytes into *buf* (a writable buffer) per *specs*."""
    view = memoryview(buf)
    for spec in specs:
        raw = _field_bytes(fields[spec.name])
        view[spec.offset : spec.offset + spec.nbytes] = raw


def _views_from_buffer(
    buf, specs: list[FieldSpec], *, verify: bool, context: str
) -> dict[str, np.ndarray | bytes]:
    """Zero-copy field views over *buf*; CRC-checked when *verify*.

    ``bytes`` fields are the one exception to zero-copy: consumers
    (the ``ctl`` stream) require real ``bytes``, and the compressed
    index stream is the *small* side of the payload by design.

    With telemetry on, the per-field CRC re-hash time is recorded as
    one ``storage.shard.verify.seconds`` sample per attach; with it off
    the verify loop is untouched -- not even a clock read.
    """
    out: dict[str, np.ndarray | bytes] = {}
    base = np.frombuffer(buf, dtype=np.uint8)
    timed = verify and telemetry.enabled()
    verify_s = 0.0
    for spec in specs:
        raw = base[spec.offset : spec.offset + spec.nbytes]
        if verify:
            if not timed:
                ok = zlib.crc32(raw) == spec.crc32
            else:
                t0 = time.perf_counter()
                ok = zlib.crc32(raw) == spec.crc32
                verify_s += time.perf_counter() - t0
            if not ok:
                raise IntegrityError(
                    f"shard field {spec.name!r} failed its CRC32 check in "
                    f"{context}: backing bytes changed since the shard was "
                    "stored",
                    field=spec.name,
                )
        if spec.kind == "bytes":
            out[spec.name] = raw.tobytes()
        else:
            out[spec.name] = raw.view(np.dtype(spec.dtype)).reshape(spec.shape)
    if timed:
        telemetry.observe(
            "storage.shard.verify.seconds",
            verify_s,
            storage=context.split(" ", 1)[0],
        )
    return out


class BufferProvider:
    """Interface: store packed shard payloads, resolve handles to views."""

    kind: str = ""

    def __init__(self) -> None:
        #: Bytes currently resident in this process's memory because of
        #: stored shards (0 for mmap: the pages live in the page cache
        #: and are reclaimable; that is the point of the out-of-core
        #: path).
        self.resident_bytes = 0

    def store(self, index: int, fields: dict[str, np.ndarray | bytes]) -> dict:
        raise NotImplementedError

    def free(self, index: int) -> None:
        """Release shard *index*'s backing (rebuild path); idempotent."""
        raise NotImplementedError

    def close(self, *, unlink: bool = True) -> None:
        """Release every backing segment/file (idempotent)."""
        raise NotImplementedError


class MemoryProvider(BufferProvider):
    """Fields kept as plain in-process objects (no packing, no copy)."""

    kind = "mem"

    def __init__(self) -> None:
        super().__init__()
        self._fields: dict[int, dict[str, np.ndarray | bytes]] = {}
        self._sizes: dict[int, int] = {}

    def store(self, index: int, fields: dict[str, np.ndarray | bytes]) -> dict:
        specs, _total = pack_layout(fields)
        self._fields[index] = dict(fields)
        size = sum(s.nbytes for s in specs)
        self.resident_bytes += size - self._sizes.get(index, 0)
        self._sizes[index] = size
        return {
            "kind": self.kind,
            "index": index,
            "layout": [s.as_dict() for s in specs],
        }

    def resolve(self, handle: dict, *, verify: bool) -> dict:
        index = handle["index"]
        fields = self._fields.get(index)
        if fields is None:
            raise StorageError(f"memory shard {index} is not stored here")
        if verify:
            for spec_d in handle["layout"]:
                spec = FieldSpec.from_dict(spec_d)
                raw = _field_bytes(fields[spec.name])
                if zlib.crc32(raw) != spec.crc32:
                    raise IntegrityError(
                        f"shard field {spec.name!r} failed its CRC32 check "
                        "in memory: data changed since the shard was stored",
                        field=spec.name,
                    )
        return fields

    def free(self, index: int) -> None:
        self._fields.pop(index, None)
        self.resident_bytes -= self._sizes.pop(index, 0)

    def close(self, *, unlink: bool = True) -> None:
        self._fields.clear()
        self._sizes.clear()
        self.resident_bytes = 0


class SharedMemoryProvider(BufferProvider):
    """One POSIX shared-memory segment per shard.

    The owning process keeps the :class:`SharedMemory` objects alive
    and unlinks them at :meth:`close`; worker processes attach by name
    through :func:`attach` and never unlink.
    """

    kind = "shm"

    def __init__(self) -> None:
        super().__init__()
        self._segments: dict[int, shared_memory.SharedMemory] = {}

    def store(self, index: int, fields: dict[str, np.ndarray | bytes]) -> dict:
        specs, total = pack_layout(fields)
        self.free(index)
        seg = shared_memory.SharedMemory(create=True, size=total)
        write_fields(seg.buf, specs, fields)
        self._segments[index] = seg
        self.resident_bytes += total
        return {
            "kind": self.kind,
            "index": index,
            "shm_name": seg.name,
            "size": total,
            "layout": [s.as_dict() for s in specs],
        }

    def resolve(self, handle: dict, *, verify: bool) -> dict:
        seg = self._segments.get(handle["index"])
        if seg is None or seg.name != handle["shm_name"]:
            # Not ours (or rebuilt since): attach by name like a worker.
            return attach(handle, verify=verify)
        specs = [FieldSpec.from_dict(d) for d in handle["layout"]]
        return _views_from_buffer(
            seg.buf, specs, verify=verify, context=f"shm segment {seg.name}"
        )

    def _release(self, seg: shared_memory.SharedMemory) -> None:
        try:
            seg.close()
        except BufferError:
            # A matrix built over this segment is still alive.
            _disarm_segment(seg)

    def free(self, index: int) -> None:
        seg = self._segments.pop(index, None)
        if seg is not None:
            self.resident_bytes -= seg.size
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            self._release(seg)

    def close(self, *, unlink: bool = True) -> None:
        # shm is always unlinked: an orphaned segment outlives the
        # process and leaks kernel memory.
        for index in list(self._segments):
            self.free(index)
        self.resident_bytes = 0


class MmapProvider(BufferProvider):
    """One packed binary file per shard inside *directory*.

    ``resident_bytes`` stays 0: mapped pages belong to the page cache
    and the kernel reclaims them under pressure, which is exactly the
    out-of-core contract.  ``stored_bytes`` tracks the on-disk total.
    """

    kind = "mmap"

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._paths: dict[int, str] = {}
        self.stored_bytes = 0

    def _path(self, index: int) -> str:
        return os.path.join(self.directory, f"shard-{index:05d}.bin")

    def store(self, index: int, fields: dict[str, np.ndarray | bytes]) -> dict:
        specs, total = pack_layout(fields)
        path = self._path(index)
        self.free(index)
        mm = np.memmap(path, dtype=np.uint8, mode="w+", shape=(total,))
        write_fields(mm, specs, fields)
        mm.flush()
        del mm
        self._paths[index] = path
        self.stored_bytes += total
        return {
            "kind": self.kind,
            "index": index,
            "path": path,
            "size": total,
            "layout": [s.as_dict() for s in specs],
        }

    def resolve(self, handle: dict, *, verify: bool) -> dict:
        return attach(handle, verify=verify)

    def free(self, index: int) -> None:
        path = self._paths.pop(index, None)
        if path is not None and os.path.exists(path):
            self.stored_bytes -= os.path.getsize(path)
            os.unlink(path)

    def close(self, *, unlink: bool = True) -> None:
        if unlink:
            for index in list(self._paths):
                self.free(index)
        else:
            self._paths.clear()
        self.stored_bytes = 0


def make_provider(kind: str, *, directory: str | None = None) -> BufferProvider:
    """Construct the provider for *kind* (``mem`` / ``shm`` / ``mmap``)."""
    if kind == "mem":
        return MemoryProvider()
    if kind == "shm":
        return SharedMemoryProvider()
    if kind == "mmap":
        if not directory:
            raise StorageError("mmap storage needs a directory")
        return MmapProvider(directory)
    raise StorageError(
        f"unknown storage kind {kind!r}; choose from {PROVIDER_KINDS}"
    )


# ---------------------------------------------------------------------------
# Cross-process attach (workers call this with a pickled/JSON handle)
# ---------------------------------------------------------------------------

#: Per-process cache of attached SharedMemory segments, keyed by name.
#: A segment must stay referenced while views over it are alive; the
#: cache also spares re-attachment on every call.
_SHM_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


_ATTACH_LOCK = threading.Lock()


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    seg = _SHM_ATTACHED.get(name)
    if seg is None:
        with _ATTACH_LOCK:
            seg = _SHM_ATTACHED.get(name)
            if seg is not None:
                return seg
            # CPython < 3.13 registers even a plain attach with the
            # resource tracker, which then races the owner's unlink
            # (KeyError spam in the tracker, bogus leak warnings at
            # exit).  Only the creating process should track the
            # segment, so registration is suppressed for the attach.
            from multiprocessing import resource_tracker

            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise StorageError(
                    f"shared-memory segment {name!r} does not exist "
                    "(owner closed it, or the handle crossed machines)"
                ) from exc
            finally:
                resource_tracker.register = orig_register
            _SHM_ATTACHED[name] = seg
    return seg


def attach(handle: dict, *, verify: bool = True) -> dict[str, np.ndarray | bytes]:
    """Resolve a provider *handle* into field views, in any process.

    ``verify=True`` (the default, and what process workers use)
    re-hashes every field against the CRC32 recorded at store time and
    raises :class:`~repro.errors.IntegrityError` on any mismatch -- a
    poisoned shard fails loudly before its bytes reach a kernel.
    """
    kind = handle.get("kind")
    specs = [FieldSpec.from_dict(d) for d in handle["layout"]]
    if kind == "shm":
        seg = _attach_shm(handle["shm_name"])
        return _views_from_buffer(
            seg.buf,
            specs,
            verify=verify,
            context=f"shm segment {handle['shm_name']}",
        )
    if kind == "mmap":
        path = handle["path"]
        if not os.path.exists(path):
            raise StorageError(f"mmap shard file {path} does not exist")
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        return _views_from_buffer(
            mm, specs, verify=verify, context=f"mmap file {path}"
        )
    if kind == "mem":
        raise StorageError(
            "memory-provider handles only resolve inside the owning "
            "process (use the provider's resolve(), or shm/mmap storage "
            "for cross-process shards)"
        )
    raise StorageError(f"unknown storage kind {kind!r} in shard handle")
