"""Whole-catalog integration: all 100 matrices, class-faithful and
convertible, at a tiny scale."""

import numpy as np
import pytest

from repro.formats.base import working_set_bytes
from repro.formats.conversions import convert
from repro.matrices.collection import (
    ALL_IDS,
    M0_IDS,
    M0_VI_IDS,
    ML_IDS,
    MS_IDS,
    entry,
    realize,
)
from repro.matrices.stats import compute_stats

SCALE = 1 / 64
_MB = 1024 * 1024


@pytest.fixture(scope="module")
def realized():
    """All 100 matrices at 1/64 scale (a few seconds total)."""
    return {mid: realize(mid, scale=SCALE) for mid in ALL_IDS}


class TestWholeCatalog:
    def test_every_matrix_in_its_paper_class(self, realized):
        """The catalog's reason to exist: the paper's id sets hold."""
        failures = []
        for mid, m in realized.items():
            ws = working_set_bytes(m)
            if mid in ML_IDS and ws < 17 * _MB * SCALE:
                failures.append((mid, "ML too small"))
            if mid in MS_IDS and not (
                3 * _MB * SCALE * 0.95 <= ws < 17 * _MB * SCALE
            ):
                failures.append((mid, "MS out of band"))
            if mid not in M0_IDS and mid != 1 and ws >= 3 * _MB * SCALE:
                failures.append((mid, "small matrix too big"))
        assert not failures, failures

    def test_vi_classification_holds(self, realized):
        failures = []
        for mid in M0_IDS:
            ttu = compute_stats(realized[mid]).ttu
            if mid in M0_VI_IDS and ttu <= 5:
                failures.append((mid, "vi member with ttu <= 5"))
            if mid not in M0_VI_IDS and ttu > 5:
                failures.append((mid, "non-vi member with ttu > 5"))
        assert not failures, failures

    def test_all_matrices_encode_and_multiply(self, realized):
        """Every catalog matrix survives both compressions and agrees
        with plain CSR on an SpMV (spot-sampled x)."""
        rng = np.random.default_rng(0)
        failures = []
        for mid in M0_IDS[::4]:  # every 4th: keeps runtime in seconds
            csr = realized[mid]
            x = rng.random(csr.ncols)
            ref = csr.spmv(x)
            for fmt in ("csr-du", "csr-vi"):
                got = convert(csr, fmt).spmv(x)
                if not np.allclose(got, ref, atol=1e-9):
                    failures.append((mid, fmt))
        assert not failures, failures

    def test_compression_ratios_in_sane_band(self, realized):
        """Across the whole set: CSR-DU index reduction lands between
        'nothing' and '4x'; CSR-VI value reduction requires ttu > 5."""
        for mid in M0_IDS[::7]:
            csr = realized[mid]
            du = convert(csr, "csr-du")
            ratio = du.storage().index_bytes / csr.storage().index_bytes
            assert 0.2 < ratio <= 1.35, (mid, ratio)
            if entry(mid).in_m0_vi:
                vi = convert(csr, "csr-vi")
                assert (
                    vi.storage().value_bytes < csr.storage().value_bytes
                ), mid
