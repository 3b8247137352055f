"""Tests for the per-table/figure experiment drivers (tiny scale)."""

import pytest

from repro.bench.experiments import (
    ablation_dcsr,
    ablation_du_vi,
    ablation_index_width,
    ablation_placement,
    ablation_unit_policy,
    fig7,
    fig8,
    table2,
    table3,
    table4,
)
from repro.bench.harness import ExperimentConfig
from repro.errors import ReproError

SCALE = 1 / 64
LIMIT = 3


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=SCALE)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, config):
        return table2(config, limit=LIMIT)

    def test_sets_present(self, result):
        assert set(result.serial_mflops) == {"MS", "ML", "M0"}
        assert len(result.ids_used["MS"]) == LIMIT
        assert len(result.ids_used["ML"]) == LIMIT

    def test_serial_band(self, result):
        avg, mx, mn = result.serial_mflops["M0"]
        assert 100 < mn <= avg <= mx < 2000

    def test_speedup_rows(self, result):
        assert (8, "close") in result.speedups
        avg_ms = result.speedups[(8, "close")]["MS"][0]
        avg_ml = result.speedups[(8, "close")]["ML"][0]
        # The paper's headline: cacheable matrices scale much better.
        assert avg_ms > avg_ml

    def test_ml_bounded_scaling(self, result):
        """Memory-bound matrices can't scale past the bus ratio."""
        avg_ml = result.speedups[(8, "close")]["ML"][0]
        assert 1.0 < avg_ml < 4.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, config):
        return table3(config, limit=LIMIT)

    def test_structure(self, result):
        assert result.format_name == "csr-du"
        assert set(result.rows) == {1, 2, 4, 8}
        assert set(result.rows[1]) == {"MS", "ML", "M0"}

    def test_multithreaded_gain_ml(self, result):
        """Table III: CSR-DU helps memory-bound matrices at 8 threads."""
        avg = result.rows[8]["ML"][0]
        assert avg > 1.0

    def test_serial_near_parity(self, result):
        avg = result.rows[1]["ML"][0]
        assert 0.8 < avg < 1.3

    def test_slowdown_counts_in_range(self, result):
        for per_set in result.rows.values():
            for (_, _, _, slow) in per_set.values():
                assert 0 <= slow <= LIMIT * 2


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, config):
        return table4(config, limit=LIMIT)

    def test_structure(self, result):
        assert result.format_name == "csr-vi"
        assert set(result.rows[8]) == {"MS_vi", "ML_vi", "M0_vi"}

    def test_vi_gains_exceed_du_on_ml(self, config, result):
        """Values are 2/3 of the working set: CSR-VI's 8-thread gain on
        memory-bound high-ttu matrices beats CSR-DU's (paper Secs IV/V)."""
        du = table3(config, limit=LIMIT)
        assert result.rows[8]["ML_vi"][0] > du.rows[8]["ML"][0]


class TestFigures:
    def test_fig7_series(self, config):
        res = fig7(config, limit=4)
        assert res.format_name == "csr-du"
        assert len(res.series) == 4
        # Sorted ascending by 8-thread speedup, paper-style.
        sp = [s.compressed_speedups[8] for s in res.series]
        assert sp == sorted(sp)
        for s in res.series:
            assert set(s.compressed_speedups) == {1, 2, 4, 8}
            assert -0.2 < s.size_reduction < 0.9

    def test_fig8_series(self, config):
        res = fig8(config, limit=3)
        assert res.format_name == "csr-vi"
        assert len(res.series) == 3
        for s in res.series:
            assert s.size_reduction > 0  # ttu > 5 guarantees value shrink


class TestAblations:
    def test_unit_policy(self, config):
        rows = ablation_unit_policy(config, ids=(55,))
        labels = {r.label for r in rows}
        assert labels == {"csr-du/greedy", "csr-du/aligned"}
        greedy = next(r for r in rows if r.label.endswith("greedy"))
        aligned = next(r for r in rows if r.label.endswith("aligned"))
        assert greedy.index_bytes <= aligned.index_bytes

    def test_dcsr(self, config):
        """Section III-B: on regular matrices DCSR is competitive
        (even slightly ahead); on pattern-diverse matrices its
        per-command dispatch penalty puts CSR-DU ahead."""
        regular = {r.label: r for r in ablation_dcsr(config, ids=(55,))}
        assert regular["dcsr"].index_bytes < regular["csr"].index_bytes
        assert regular["dcsr"].time_1t < regular["csr"].time_1t * 1.3
        diverse = {r.label: r for r in ablation_dcsr(config, ids=(69,))}
        assert diverse["dcsr"].time_1t >= diverse["csr-du"].time_1t

    def test_index_width(self, config):
        rows = ablation_index_width(config, ids=(41,))
        by_label = {r.label: r for r in rows}
        if "csr/16-bit" in by_label:
            assert (
                by_label["csr/16-bit"].index_bytes
                < by_label["csr/32-bit"].index_bytes
            )

    def test_placement(self, config):
        out = ablation_placement(config, ids=(55,))
        assert (55, 2, "close") in out
        assert out[(55, 2, "spread")] <= out[(55, 2, "close")] * 1.05

    def test_du_vi_composes(self, config):
        rows = ablation_du_vi(config, ids=(47,))
        by_label = {r.label: r for r in rows}
        duvi = by_label["csr-du-vi"]
        assert duvi.total_bytes < by_label["csr-du"].total_bytes
        assert duvi.total_bytes < by_label["csr-vi"].total_bytes


def test_model_clock_never_calls_the_per_unit_decoder(monkeypatch):
    """table3 and fig7 price CSR-DU from the kernel plan's unit table;
    the per-unit ``decode_units`` walk is only the tests' oracle."""
    from repro.bench import report
    from repro.compress import ctl
    from repro.formats import csr_du

    def forbidden(*args, **kwargs):
        raise AssertionError("decode_units called on the model clock")

    monkeypatch.setattr(ctl, "decode_units", forbidden)
    monkeypatch.setattr(csr_du, "decode_units", forbidden)
    config = ExperimentConfig(scale=1 / 64)
    assert report.format_speedup_table(table3(config, limit=1))
    assert report.format_fig_series(fig7(config, limit=1))


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_rejected(config, limit):
    """``limit=0`` used to divide by zero and ``limit=-1`` silently
    dropped the last matrix of every set."""
    with pytest.raises(ReproError, match="limit"):
        table2(config, limit=limit)
