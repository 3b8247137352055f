"""Tests for the experiment harness."""

import pytest

from repro.bench.harness import (
    SPEEDUP_THREADS,
    TABLE2_CONFIGS,
    ExperimentConfig,
    aggregate,
    count_slowdowns,
    run_format_matrix,
    run_set,
)
from repro.errors import MachineModelError, ReproError
from repro.matrices.collection import realize

SCALE = 1 / 64


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=SCALE)


@pytest.fixture(scope="module")
def matrix():
    return realize(47, scale=SCALE)


class TestRunFormatMatrix:
    def test_model_clock(self, matrix, config):
        res = run_format_matrix(matrix, "csr", config, matrix_id=47)
        assert res.matrix_id == 47
        assert set(res.times) == set(TABLE2_CONFIGS)
        assert all(t > 0 for t in res.times.values())
        assert all(b in ("compute", "core-bw", "die-bw", "l2-bw", "fsb", "mem")
                   for b in res.bounds.values())

    def test_size_reduction_sign(self, matrix, config):
        du = run_format_matrix(matrix, "csr-du", config)
        assert 0.0 < du.size_reduction < 0.5
        csr = run_format_matrix(matrix, "csr", config)
        assert csr.size_reduction == 0.0

    def test_speedup_vs(self, matrix, config):
        csr = run_format_matrix(matrix, "csr", config)
        vi = run_format_matrix(matrix, "csr-vi", config)
        key = (8, "close")
        sp = vi.speedup_vs(csr, key)
        assert sp == pytest.approx(csr.times[key] / vi.times[key])

    def test_scaling(self, matrix, config):
        csr = run_format_matrix(matrix, "csr", config)
        assert csr.scaling((1, "close")) == 1.0
        assert csr.scaling((8, "close")) > 0.5

    def test_unpriceable_format_is_a_typed_error(self, matrix, config):
        """The traffic model has no COO layout: the cell fails with a
        MachineModelError naming the format, not a bare error."""
        with pytest.raises(MachineModelError, match="COOMatrix"):
            run_format_matrix(matrix, "coo", config, configs=((1, "close"),))


class TestRunSet:
    def test_structure(self, config):
        out = run_set((41, 47), ("csr", "csr-vi"), config)
        assert set(out) == {41, 47}
        assert set(out[41]) == {"csr", "csr-vi"}

    def test_speedup_threads_constant(self):
        assert SPEEDUP_THREADS == (1, 2, 4, 8)

    def test_csr_baseline_converted_once_per_matrix(self, config, monkeypatch):
        """run_set encodes CSR once; the csr cell is a cache hit."""
        import repro.formats.conversions as conv_mod

        real_convert = conv_mod.convert
        csr_targets = []

        def counting_convert(matrix, name, **kwargs):
            if name == "csr":
                csr_targets.append(name)
            return real_convert(matrix, name, **kwargs)

        monkeypatch.setattr(conv_mod, "convert", counting_convert)
        out = run_set((47,), ("csr", "csr-du", "csr-vi"), config)
        # The per-matrix conversion cache serves the "csr" cell from the
        # baseline's entry, so the underlying conversion runs once (the
        # pre-cache code converted twice, and the pre-PR-1 code once per
        # cell).
        assert csr_targets.count("csr") == 1
        assert out[47]["csr-du"].csr_storage == out[47]["csr"].storage

    def test_explicit_csr_storage_is_used(self, matrix, config):
        baseline = run_format_matrix(matrix, "csr", config).storage
        res = run_format_matrix(
            matrix, "csr-du", config, csr_storage=baseline
        )
        assert res.csr_storage == baseline
        assert res.size_reduction > 0.0


class TestAggregation:
    def test_aggregate(self):
        assert aggregate([1.0, 2.0, 3.0]) == (2.0, 3.0, 1.0)

    def test_aggregate_empty(self):
        with pytest.raises(ReproError):
            aggregate([])

    def test_count_slowdowns(self):
        """The paper's < 0.98 criterion for 'non-negligible slowdown'."""
        assert count_slowdowns([1.1, 0.979, 0.98, 0.5]) == 2
