"""Structure-keyed conversion cache (`repro.compress.encode_cache`)."""

import numpy as np
import pytest

from repro.compress.encode_cache import (
    ConvertCache,
    cache_key,
    cached_convert,
    matrix_token,
)
from repro.formats.csr import CSRMatrix
from repro.parallel.executor import ParallelSpMV
from repro.telemetry.core import Collector, metric_key, set_collector
from tests.conftest import random_sparse_dense


@pytest.fixture
def collector():
    c = Collector()
    prev = set_collector(c)
    yield c
    set_collector(prev)


@pytest.fixture
def csr():
    return CSRMatrix.from_dense(random_sparse_dense(48, 48, seed=9, quantize=8))


class TestMatrixToken:
    def test_stable_per_object(self, csr):
        assert matrix_token(csr) == matrix_token(csr)

    def test_distinct_objects_distinct_tokens(self, csr):
        other = CSRMatrix.from_dense(
            random_sparse_dense(48, 48, seed=9, quantize=8)
        )
        assert matrix_token(csr) != matrix_token(other)


class TestCacheKey:
    def test_kwargs_order_insensitive(self, csr):
        a = cache_key(csr, "csr-du", {"policy": "seq", "max_unit": 7}, None)
        b = cache_key(csr, "csr-du", {"max_unit": 7, "policy": "seq"}, None)
        assert a == b

    def test_rows_distinguish(self, csr):
        whole = cache_key(csr, "csr-du", {}, None)
        chunk = cache_key(csr, "csr-du", {}, (0, 24))
        assert whole != chunk

    def test_unhashable_kwargs_frozen(self, csr):
        key = cache_key(csr, "some-format", {"block": [2, 2]}, None)
        hash(key)  # must not raise


class TestConvertCache:
    def test_hit_returns_same_object(self, csr):
        cache = ConvertCache()
        first = cache.get_or_convert(csr, "csr-du")
        second = cache.get_or_convert(csr, "csr-du")
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_kwargs_are_distinct_entries(self, csr):
        cache = ConvertCache()
        a = cache.get_or_convert(csr, "csr-du", max_unit=7)
        b = cache.get_or_convert(csr, "csr-du", max_unit=255)
        assert a is not b
        assert len(a.ctl) > len(b.ctl)
        assert cache.misses == 2

    def test_row_slice_chunks(self, csr):
        cache = ConvertCache()
        chunk = cache.get_or_convert(csr, "csr-du", rows=(8, 32))
        assert chunk.nrows == 24
        assert chunk is cache.get_or_convert(csr, "csr-du", rows=(8, 32))
        x = np.arange(csr.ncols, dtype=np.float64)
        assert np.array_equal(chunk.spmv(x), csr.spmv(x)[8:32])

    def test_lru_eviction(self, csr):
        cache = ConvertCache(capacity=2)
        first = cache.get_or_convert(csr, "csr-du", max_unit=3)
        cache.get_or_convert(csr, "csr-du", max_unit=4)
        cache.get_or_convert(csr, "csr-du", max_unit=5)  # evicts max_unit=3
        assert len(cache) == 2
        again = cache.get_or_convert(csr, "csr-du", max_unit=3)
        assert again is not first
        assert cache.misses == 4

    def test_hit_refreshes_lru_rank(self, csr):
        cache = ConvertCache(capacity=2)
        first = cache.get_or_convert(csr, "csr-du", max_unit=3)
        cache.get_or_convert(csr, "csr-du", max_unit=4)
        cache.get_or_convert(csr, "csr-du", max_unit=3)  # refresh
        cache.get_or_convert(csr, "csr-du", max_unit=5)  # evicts max_unit=4
        assert cache.get_or_convert(csr, "csr-du", max_unit=3) is first

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ConvertCache(capacity=0)

    def test_counters_emitted(self, collector, csr):
        cache = ConvertCache()
        cache.get_or_convert(csr, "csr-du")
        cache.get_or_convert(csr, "csr-du")
        labels = {"format": "csr-du"}
        assert collector.counters[metric_key("convert.cache.miss", labels)] == 1
        assert collector.counters[metric_key("convert.cache.hit", labels)] == 1

    def test_cached_convert_accepts_explicit_cache(self, csr):
        cache = ConvertCache()
        out = cached_convert(csr, "csr-vi", cache=cache)
        assert cached_convert(csr, "csr-vi", cache=cache) is out
        assert (cache.hits, cache.misses) == (1, 1)


class TestExecutorIntegration:
    def test_rebuild_reuses_chunk_encodes(self, csr):
        """Two executors at one thread count share every chunk encode."""
        cache = ConvertCache()
        x = np.arange(csr.ncols, dtype=np.float64)
        with ParallelSpMV(
            csr, 4, format_name="csr-du", convert_cache=cache
        ) as par:
            first = par(x)
        misses_after_first = cache.misses
        with ParallelSpMV(
            csr, 4, format_name="csr-du", convert_cache=cache
        ) as par:
            second = par(x)
        assert cache.misses == misses_after_first
        assert cache.hits >= 4
        assert np.array_equal(first, second)
        assert np.allclose(first, csr.spmv(x), rtol=1e-13, atol=1e-13)
