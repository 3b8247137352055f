"""Tests for matrix persistence (save/load .npz)."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import CSRMatrix, convert
from repro.io import load_matrix, save_matrix

from tests.conftest import random_sparse_dense

ALL_FORMATS = ("coo", "csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr")


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(22, 19, seed=111, quantize=8, empty_rows=True)
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_save_load(self, csr, fmt, tmp_path):
        m = convert(csr, fmt)
        path = tmp_path / f"{fmt}.npz"
        save_matrix(m, path)
        loaded = load_matrix(path)
        assert type(loaded) is type(m)
        assert loaded.shape == m.shape
        assert np.allclose(loaded.to_dense(), m.to_dense())

    def test_compressed_stays_compressed(self, csr, tmp_path):
        """Loading a CSR-DU file must not re-encode: byte-identical ctl."""
        du = convert(csr, "csr-du")
        path = tmp_path / "du.npz"
        save_matrix(du, path)
        loaded = load_matrix(path)
        assert loaded.ctl == du.ctl
        assert np.array_equal(loaded.values, du.values)

    def test_vi_index_width_preserved(self, csr, tmp_path):
        vi = convert(csr, "csr-vi")
        path = tmp_path / "vi.npz"
        save_matrix(vi, path)
        loaded = load_matrix(path)
        assert loaded.val_ind.dtype == vi.val_ind.dtype

    def test_seq_policy_stream_preserved(self, tmp_path):
        from repro.formats.conversions import to_csr
        from repro.matrices.generators import diagonal_bands

        du = convert(to_csr(diagonal_bands(80, (-2, -1, 0, 1, 2))), "csr-du", policy="seq")
        path = tmp_path / "seq.npz"
        save_matrix(du, path)
        loaded = load_matrix(path)
        assert loaded.ctl == du.ctl

    def test_spmv_after_load(self, csr, tmp_path):
        path = tmp_path / "m.npz"
        save_matrix(convert(csr, "csr-du-vi"), path)
        loaded = load_matrix(path)
        x = np.random.default_rng(0).random(csr.ncols)
        assert np.allclose(loaded.spmv(x), csr.spmv(x))


class TestValidation:
    def test_not_a_repro_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(FormatError, match="not a repro"):
            load_matrix(path)

    @pytest.mark.parametrize("missing", ["col_ind", "__shape__"])
    def test_missing_array(self, csr, tmp_path, missing):
        path = tmp_path / "m.npz"
        save_matrix(csr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != missing}
        np.savez(path, **arrays)
        with pytest.raises(FormatError, match=missing):
            load_matrix(path)

    def test_unknown_format(self, tmp_path):
        """A file naming a format this version does not have (e.g. one
        saved as BCSR by an older release) is rejected, not guessed at."""
        path = tmp_path / "old.npz"
        np.savez(
            path,
            __magic__=np.array("repro-sparse-v1"),
            __format__=np.array("bcsr"),
            __shape__=np.array([2, 2], dtype=np.int64),
        )
        with pytest.raises(FormatError, match="unknown serialized format"):
            load_matrix(path)
