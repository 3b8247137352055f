"""Field codec round-trips: take a matrix apart, rebuild it bit-exact."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.storage.codec import CODEC_FORMATS, extract_fields, rebuild_matrix

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(40, 33, seed=5, quantize=8, empty_rows=True)
    )


@pytest.mark.parametrize("fmt", CODEC_FORMATS)
def test_round_trip_bit_identical(csr, fmt):
    original = convert(csr, fmt)
    fields, meta = extract_fields(original)
    rebuilt = rebuild_matrix(fields, meta)
    assert type(rebuilt) is type(original)
    assert rebuilt.shape == original.shape
    x = np.random.default_rng(6).random(csr.ncols)
    assert np.array_equal(rebuilt.spmv(x), original.spmv(x))


@pytest.mark.parametrize("fmt", CODEC_FORMATS)
def test_meta_is_json_safe(csr, fmt):
    import json

    _fields, meta = extract_fields(convert(csr, fmt))
    assert meta["format"] == fmt
    json.dumps(meta)  # no ndarray/bytes leaked into the metadata


def test_fields_cover_storage(csr):
    """Every stored byte of the matrix lands in some field."""
    original = convert(csr, "csr-du")
    fields, _meta = extract_fields(original)
    total = sum(
        v.nbytes if isinstance(v, np.ndarray) else len(v)
        for v in fields.values()
    )
    assert total >= original.storage().total_bytes


def test_unsupported_format_raises(csr):
    class Odd:
        pass

    with pytest.raises(StorageError):
        extract_fields(Odd())
    with pytest.raises(StorageError):
        rebuild_matrix({}, {"format": "no-such-format", "nrows": 1, "ncols": 1})
