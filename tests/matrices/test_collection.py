"""Tests for the 100-matrix catalog: the paper's id sets, exactly."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError
from repro.formats.base import working_set_bytes
from repro.formats.conversions import to_csr
from repro.matrices import generators as gen
from repro.matrices.collection import (
    _CLOSED_FORM,
    ALL_IDS,
    M0_IDS,
    M0_VI_IDS,
    ML_IDS,
    ML_VI_IDS,
    MS_IDS,
    MS_VI_IDS,
    _canonical_pattern,
    _pattern_ws,
    catalog,
    entry,
    realize,
)
from repro.matrices.stats import compute_stats

_MB = 1024 * 1024
SCALE = 1 / 32


class TestIdSets:
    """Set sizes and relationships exactly as Section VI-B / VI-E state."""

    def test_counts(self):
        assert len(ALL_IDS) == 100
        assert len(M0_IDS) == 77
        assert len(ML_IDS) == 52
        assert len(MS_IDS) == 25
        assert len(M0_VI_IDS) == 30
        assert len(ML_VI_IDS) == 22
        assert len(MS_VI_IDS) == 8

    def test_partitions(self):
        assert set(ML_IDS) | set(MS_IDS) == set(M0_IDS)
        assert set(ML_IDS) & set(MS_IDS) == set()
        assert set(ML_VI_IDS) | set(MS_VI_IDS) == set(M0_VI_IDS)
        assert set(ML_VI_IDS) <= set(ML_IDS)
        assert set(MS_VI_IDS) <= set(MS_IDS)

    def test_specific_members_from_paper(self):
        # Spot values straight from the paper's text.
        for mid in (2, 5, 8, 9, 10, 15, 40, 100):
            assert mid in ML_IDS
        for mid in (26, 41, 42, 44, 47, 67, 68, 79):
            assert mid in MS_VI_IDS
        assert 1 not in M0_IDS  # the rejected dense matrix
        assert 14 not in M0_IDS

    def test_vi_fraction_about_39_percent(self):
        """Section VI-E: M0_vi is ~39% of M0."""
        assert len(M0_VI_IDS) / len(M0_IDS) == pytest.approx(0.39, abs=0.01)


class TestEntries:
    def test_all_ids_have_entries(self):
        entries = catalog()
        assert len(entries) == 100
        assert {e.matrix_id for e in entries} == set(ALL_IDS)

    def test_entry_fields(self):
        e = entry(55)
        assert e.matrix_id == 55
        assert e.name.startswith("syn055-")
        assert e.in_ml and e.in_m0 and not e.in_ms

    def test_ws_targets_respect_class(self):
        for e in catalog():
            if e.in_ml:
                assert e.ws_target_bytes >= 17 * _MB
            elif e.in_ms:
                assert 3 * _MB <= e.ws_target_bytes < 17 * _MB
            elif e.matrix_id != 1:
                assert e.ws_target_bytes < 3 * _MB

    def test_ttu_targets_respect_vi_sets(self):
        for e in catalog():
            if e.in_m0_vi:
                assert e.ttu_target is not None and e.ttu_target > 5
            elif e.ttu_target is not None:
                assert e.ttu_target <= 5

    def test_unknown_id(self):
        with pytest.raises(CatalogError):
            entry(0)
        with pytest.raises(CatalogError):
            entry(101)

    def test_deterministic(self):
        assert entry(42) == entry(42)


class TestRealize:
    @pytest.mark.parametrize("mid", [2, 9, 26, 44, 55, 69, 84, 100])
    def test_class_membership_at_scale(self, mid):
        """Realized matrices land in their paper set at any scale."""
        e = entry(mid)
        m = realize(mid, scale=SCALE)
        s = compute_stats(m)
        if e.in_ml:
            assert s.ws_bytes >= 17 * _MB * SCALE
        if e.in_ms:
            assert 3 * _MB * SCALE * 0.95 <= s.ws_bytes < 17 * _MB * SCALE
        if e.in_m0_vi:
            assert s.ttu > 5
        elif e.in_m0:
            assert s.ttu <= 5

    def test_deterministic(self):
        a = realize(47, scale=SCALE)
        b = realize(47, scale=SCALE)
        assert np.array_equal(a.col_ind, b.col_ind)
        assert np.array_equal(a.values, b.values)

    def test_scale_shrinks(self):
        small = realize(44, scale=1 / 64)
        big = realize(44, scale=1 / 16)
        assert big.nnz > 2 * small.nnz

    def test_bad_scale(self):
        with pytest.raises(CatalogError):
            realize(5, scale=0)

    def test_structural_diversity(self):
        """The catalog is not one family in disguise."""
        families = {entry(mid).family for mid in M0_IDS}
        assert len(families) >= 6


#: ``[nrows, ncols, sha(row_ptr), sha(col_ind), sha(values)]`` of
#: ``realize(id, scale=1/64)`` for all 100 ids, recorded from the
#: COO-based size search the pattern probe replaced.
CHECKSUMS = Path(__file__).with_name("realize_checksums.json")


def _sha(array: np.ndarray) -> str:
    digest = hashlib.sha256(array.dtype.str.encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class TestRealizeChecksums:
    def test_every_id_matches_the_checked_in_list(self):
        """Probe-then-one-build yields byte-identical matrices (and
        dtypes) for every id; the non-M0 ids cover the other
        class-ceiling branch."""
        expected = json.loads(CHECKSUMS.read_text())
        assert sorted(map(int, expected)) == list(ALL_IDS)
        for mid in ALL_IDS:
            m = realize(mid, scale=1 / 64)
            got = [m.nrows, m.ncols, _sha(m.row_ptr), _sha(m.col_ind), _sha(m.values)]
            assert got == expected[str(mid)], f"id {mid}"


#: (public generator, its coordinate core, the arguments before the seed)
#: of the families whose coordinates repeat.
DUPLICATE_FAMILIES = [
    (gen.random_uniform, gen._random_uniform, lambda n, k: (n, n + 3, k)),
    (gen.banded_random, gen._banded_random, lambda n, k: (n, n // 4 + 1, k)),
    (gen.powerlaw_graph, gen._powerlaw_graph, lambda n, k: (n, k)),
    (gen.block_structured, gen._block_structured, lambda n, k: (n, k % 3 + 1, k)),
]


class TestProbe:
    """The size probe and the pattern canonicalization agree with the
    public generators' COO -> CSR path."""

    @pytest.mark.parametrize(
        "family, make, dims",
        [
            ("stencil2d5", gen.stencil_2d, lambda s: (s, s, 5)),
            ("stencil2d9", gen.stencil_2d, lambda s: (s, s, 9)),
            ("stencil3d7", gen.stencil_3d, lambda s: (s, s, s, 7)),
            ("stencil3d27", gen.stencil_3d, lambda s: (s, s, s, 27)),
        ],
    )
    def test_stencil_closed_form(self, family, make, dims):
        for side in range(3, 41):
            n, nnz = _CLOSED_FORM[family](*dims(side))
            built = to_csr(make(*dims(side)))
            assert _pattern_ws(n, n, nnz) == working_set_bytes(built), side

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 80),
        offsets=st.sets(st.integers(-79, 79), min_size=1, max_size=9),
    )
    def test_diagonals_closed_form(self, n, offsets):
        offsets = tuple(sorted(o for o in offsets if abs(o) < n)) or (0,)
        size = _CLOSED_FORM["diagonals"](n, offsets)
        built = to_csr(gen.diagonal_bands(n, offsets))
        assert _pattern_ws(n, n, size[1]) == working_set_bytes(built)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(DUPLICATE_FAMILIES),
        n=st.integers(2, 60),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_pattern_matches_coo_path(self, case, n, k, seed):
        """Duplicate-heavy families: sort + adjacent-unique on the packed
        key gives COOMatrix's canonical order and merge."""
        public, coords, params = case
        args = (*params(n, k), seed)
        nrows, ncols, row_ptr, col_ind = _canonical_pattern(*coords(*args))
        csr = to_csr(public(*args))
        assert (nrows, ncols) == csr.shape
        for got, want in ((row_ptr, csr.row_ptr), (col_ind, csr.col_ind)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
