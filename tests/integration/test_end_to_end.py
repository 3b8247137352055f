"""Integration tests: catalog -> formats -> kernels -> solvers -> model,
all consistent with each other and with the paper's claims."""

import numpy as np
import pytest

from repro.bench.harness import ExperimentConfig, run_format_matrix
from repro.compress.unique import TTU_THRESHOLD
from repro.formats import convert, to_csr, working_set_bytes
from repro.kernels.registry import get_kernel
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.collection import entry, realize
from repro.parallel.executor import ParallelSpMV
from repro.solvers import conjugate_gradient

SCALE = 1 / 64
FORMATS = ("csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr")


@pytest.fixture(scope="module")
def matrix():
    return realize(47, scale=SCALE)  # MS_vi: high ttu, diagonals family


class TestPipelineConsistency:
    def test_all_formats_all_kernels_agree(self, matrix):
        """Every (format, kernel tier) pair computes the same y."""
        x = np.random.default_rng(0).random(matrix.ncols)
        reference = matrix.spmv(x)
        for fmt in FORMATS:
            m = convert(matrix, fmt)
            for tier in ("cached", "reference"):
                try:
                    kernel = get_kernel(fmt, tier)
                except Exception:
                    continue  # not every pair is registered
                assert np.allclose(
                    kernel(m, x), reference, atol=1e-9
                ), (fmt, tier)

    def test_threaded_equals_serial_on_catalog_matrix(self, matrix):
        x = np.random.default_rng(1).random(matrix.ncols)
        with ParallelSpMV(matrix, 4, format_name="csr-du") as p:
            assert np.allclose(p(x), matrix.spmv(x))

    def test_solver_on_symmetrized_catalog_matrix(self, matrix):
        """Build an SPD system from the catalog matrix, solve with a
        compressed format (the paper's intro scenario)."""
        csr = to_csr(matrix)
        dense = csr.to_dense()
        n = min(120, dense.shape[0])
        spd = dense[:n, :n] + dense[:n, :n].T
        np.fill_diagonal(spd, np.abs(spd).sum(axis=1) + 1.0)
        from repro.formats import CSRMatrix

        A = convert(CSRMatrix.from_dense(spd), "csr-vi")
        x_true = np.random.default_rng(2).random(n)
        res = conjugate_gradient(A, A.spmv(x_true), tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-6)


class TestModelStorageConsistency:
    def test_model_traffic_bounded_by_working_set(self, matrix):
        """Steady-state DRAM traffic per iteration can exceed the
        paper's ws only through the x-gather reload factor."""
        machine = clovertown_8core().scaled(SCALE)
        for fmt in ("csr", "csr-du", "csr-vi"):
            m = convert(matrix, fmt)
            res = simulate_spmv(m, 1, machine)
            ws = working_set_bytes(m)
            assert res.total_traffic <= ws * machine.x_reload

    def test_compression_reduces_bytes_and_model_notices(self, matrix):
        machine = clovertown_8core().scaled(SCALE)
        csr = convert(matrix, "csr")
        duvi = convert(matrix, "csr-du-vi")
        assert duvi.storage().total_bytes < csr.storage().total_bytes
        t_csr = simulate_spmv(csr, 8, machine).time_s
        t_duvi = simulate_spmv(duvi, 8, machine).time_s
        assert t_duvi < t_csr

    def test_harness_matches_direct_simulation(self, matrix):
        config = ExperimentConfig(scale=SCALE)
        res = run_format_matrix(matrix, "csr", config)
        direct = simulate_spmv(
            convert(matrix, "csr"), 8, config.scaled_machine()
        )
        assert res.times[(8, "close")] == pytest.approx(direct.time_s)


class TestCatalogExperimentSanity:
    @pytest.mark.parametrize("mid", [9, 44, 69])
    def test_vi_applicability_respected(self, mid):
        """All *_vi catalog ids produce profitable CSR-VI encodings."""
        m = realize(mid, scale=SCALE)
        vi = convert(m, "csr-vi")
        profitable = vi.ttu > TTU_THRESHOLD
        assert entry(mid).in_m0_vi == profitable or profitable

    def test_round_trip_on_every_family(self):
        """One id per structural family: full conversion cycle."""
        seen = set()
        for mid in range(2, 30):
            fam = entry(mid).family
            if fam in seen:
                continue
            seen.add(fam)
            m = realize(mid, scale=1 / 128)
            dense = to_csr(m).to_dense()
            for fmt in FORMATS:
                back = to_csr(convert(m, fmt))
                assert np.allclose(back.to_dense(), dense), (mid, fmt)
