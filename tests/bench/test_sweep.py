"""Tests for the sensitivity sweeps."""

import pytest

from repro.bench.sweep import (
    bandwidth_sweep,
    cache_sweep,
    format_sweep_table,
)
from repro.machine.topology import clovertown_8core
from repro.matrices.collection import realize

SCALE = 1 / 64


@pytest.fixture(scope="module")
def matrix():
    return realize(69, scale=SCALE)  # ML_vi: memory bound, high ttu


@pytest.fixture(scope="module")
def machine():
    return clovertown_8core().scaled(SCALE)


class TestBandwidthSweep:
    def test_compression_crossover(self, matrix, machine):
        """Bandwidth-starved: compression wins big; bandwidth-rich: the
        advantage shrinks toward (or below) parity -- the paper's whole
        premise as a curve."""
        points = bandwidth_sweep(
            matrix, factors=(0.25, 64.0), machine=machine
        )
        by = {(p.knob_value, p.format_name): p.time_s for p in points}
        gain_starved = by[(0.25, "csr")] / by[(0.25, "csr-vi")]
        gain_rich = by[(64.0, "csr")] / by[(64.0, "csr-vi")]
        assert gain_starved > gain_rich
        assert gain_starved > 1.2
        # With abundant bandwidth the extra decode cycles dominate:
        # compression at best breaks even.
        assert gain_rich < 1.05

    def test_more_bandwidth_never_slower(self, matrix, machine):
        points = bandwidth_sweep(
            matrix, factors=(0.5, 1.0, 2.0), formats=("csr",), machine=machine
        )
        times = [p.time_s for p in sorted(points, key=lambda p: p.knob_value)]
        assert times == sorted(times, reverse=True)


class TestCacheSweep:
    def test_regime_migration(self, matrix, machine):
        """Growing L2 moves the matrix from streaming to resident."""
        points = cache_sweep(
            matrix, factors=(0.25, 16.0), threads=8, machine=machine
        )
        small, big = (
            p for p in sorted(points, key=lambda p: p.knob_value)
        )
        assert big.time_s <= small.time_s
        assert small.bound in ("mem", "fsb", "die-bw", "core-bw")

    def test_monotone(self, matrix, machine):
        points = cache_sweep(
            matrix, factors=(0.5, 1.0, 2.0, 4.0), machine=machine
        )
        times = [p.time_s for p in sorted(points, key=lambda p: p.knob_value)]
        assert all(b <= a + 1e-15 for a, b in zip(times, times[1:]))


class TestFormatting:
    def test_table(self, matrix, machine):
        points = cache_sweep(matrix, factors=(1.0,), machine=machine)
        text = format_sweep_table(points)
        assert "l2_capacity" in text
        assert "csr" in text
