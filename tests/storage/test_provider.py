"""Buffer providers: packed layout, round-trips, CRC seals, attach."""

import numpy as np
import pytest

from repro.errors import IntegrityError, StorageError
from repro.storage.provider import (
    FieldSpec,
    attach,
    make_provider,
    pack_layout,
    write_fields,
)

FIELDS = {
    "values": np.arange(7, dtype=np.float64),
    "col_ind": np.arange(7, dtype=np.int32),
    "ctl": b"\x01\x02\x03",
}


def make(kind, tmp_path):
    if kind == "mmap":
        return make_provider("mmap", directory=str(tmp_path))
    return make_provider(kind)


class TestPackLayout:
    def test_deterministic_and_aligned(self):
        specs, total = pack_layout(FIELDS)
        assert [s.name for s in specs] == sorted(FIELDS)  # name order
        for s in specs:
            assert s.offset % 8 == 0
        specs2, total2 = pack_layout(dict(reversed(list(FIELDS.items()))))
        assert specs == specs2 and total == total2

    def test_fields_do_not_overlap(self):
        specs, total = pack_layout(FIELDS)
        spans = sorted((s.offset, s.offset + s.nbytes) for s in specs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end
        assert total >= spans[-1][1]

    def test_write_then_view(self):
        specs, total = pack_layout(FIELDS)
        buf = bytearray(total)
        write_fields(buf, specs, FIELDS)
        from repro.storage.provider import _views_from_buffer

        views = _views_from_buffer(buf, specs, verify=True, context="test")
        assert np.array_equal(views["values"], FIELDS["values"])
        assert np.array_equal(views["col_ind"], FIELDS["col_ind"])
        assert views["ctl"] == FIELDS["ctl"]

    def test_spec_dict_round_trip(self):
        specs, _ = pack_layout(FIELDS)
        for s in specs:
            assert FieldSpec.from_dict(s.as_dict()) == s


class TestProviders:
    @pytest.mark.parametrize("kind", ["mem", "shm", "mmap"])
    def test_store_resolve_round_trip(self, kind, tmp_path):
        provider = make(kind, tmp_path)
        try:
            handle = provider.store(0, FIELDS)
            assert handle["kind"] == kind
            views = provider.resolve(handle, verify=True)
            assert np.array_equal(views["values"], FIELDS["values"])
            assert views["ctl"] == FIELDS["ctl"]
        finally:
            provider.close()

    @pytest.mark.parametrize("kind", ["shm", "mmap"])
    def test_handle_attaches_without_provider(self, kind, tmp_path):
        """What a process-pool worker does: handle dict -> views."""
        provider = make(kind, tmp_path)
        try:
            handle = provider.store(3, FIELDS)
            views = attach(handle, verify=True)
            assert np.array_equal(views["col_ind"], FIELDS["col_ind"])
        finally:
            provider.close()

    def test_mem_handle_refuses_cross_process(self):
        provider = make_provider("mem")
        try:
            handle = provider.store(0, FIELDS)
            with pytest.raises(StorageError):
                attach(handle)
        finally:
            provider.close()

    def test_mem_tracks_resident_bytes(self):
        provider = make_provider("mem")
        try:
            provider.store(0, FIELDS)
            assert provider.resident_bytes > 0
            provider.free(0)
            assert provider.resident_bytes == 0
        finally:
            provider.close()

    def test_mmap_resident_is_zero(self, tmp_path):
        provider = make(("mmap"), tmp_path)
        try:
            provider.store(0, FIELDS)
            assert provider.resident_bytes == 0
            assert provider.stored_bytes > 0
        finally:
            provider.close()

    def test_poisoned_mmap_fails_crc(self, tmp_path):
        provider = make("mmap", tmp_path)
        try:
            handle = provider.store(0, FIELDS)
            with open(handle["path"], "r+b") as fh:
                fh.seek(handle["layout"][0]["offset"])
                fh.write(b"\xff\xff")
            with pytest.raises(IntegrityError):
                attach(handle, verify=True)
            attach(handle, verify=False)  # unverified attach still maps
        finally:
            provider.close()

    def test_store_replaces_previous_shard(self, tmp_path):
        provider = make("mmap", tmp_path)
        try:
            provider.store(0, FIELDS)
            first = provider.stored_bytes
            handle = provider.store(0, {"values": np.zeros(2)})
            assert provider.stored_bytes < first
            views = attach(handle)
            assert np.array_equal(views["values"], np.zeros(2))
        finally:
            provider.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            make_provider("tape")
        with pytest.raises(StorageError):
            attach({"kind": "tape", "layout": []})

    def test_mmap_needs_directory(self):
        with pytest.raises(StorageError):
            make_provider("mmap")
