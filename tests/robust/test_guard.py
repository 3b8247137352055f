"""Guarded kernel fallback: degrade across tiers, never change the answer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EncodingError, FormatError, IntegrityError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.kernels.registry import FALLBACK_ORDER, fallback_chain, get_kernel
from repro.robust.guard import GuardedKernel, guarded_spmv
from repro.robust.inject import inject
from repro.telemetry import core as telemetry

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(48, 40, seed=21, quantize=8, empty_rows=True)
    )


@pytest.fixture(scope="module")
def multiunit():
    """Rows of ~500 nonzeros: each spans several ctl units (<= 255 each)."""
    return CSRMatrix.from_dense(
        random_sparse_dense(40, 2000, 0.25, seed=22, quantize=10, empty_rows=True)
    )


@pytest.fixture
def collector():
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        yield telemetry.get_collector()
    finally:
        telemetry.set_collector(prev)


def _events(collector, name):
    import dataclasses

    return [
        dataclasses.asdict(ev)
        for ev in collector.snapshot()
        if ev.name == name
    ]


class TestFallbackChain:
    def test_order(self):
        chain = fallback_chain("csr-du")
        tiers = [spec.tier for spec in chain]
        assert tiers == list(FALLBACK_ORDER)

    @pytest.mark.parametrize(
        "fmt", ("csr", "csr-vi", "csr-du", "csr-du-vi", "dcsr")
    )
    def test_no_kernel_runs_twice(self, fmt):
        # A fallback onto the same function would only repeat the
        # failure, so no tier may alias another.
        funcs = [spec.func for spec in fallback_chain(fmt)]
        assert len(set(map(id, funcs))) == len(funcs)


class TestGuardedKernel:
    @pytest.mark.parametrize("fmt", ("csr", "csr-du", "csr-vi", "csr-du-vi"))
    def test_healthy_matches_unguarded(self, multiunit, fmt, collector):
        m = convert(multiunit, fmt)
        x = np.random.default_rng(2).random(m.ncols)
        expected = m.spmv(x)
        assert np.array_equal(guarded_spmv(m, x), expected)
        # No failure, no fallback events.
        assert _events(collector, "kernel.fallback") == []
        # Every tier a fallback could land on gives the same answer,
        # and the chain ends in the plan-free reference listing.
        chain = fallback_chain(fmt)
        assert [spec.tier for spec in chain] == ["cached", "reference"]
        for spec in chain:
            got = spec(m, x)
            if fmt in ("csr-du", "csr-du-vi"):
                # Both tiers add each row left to right: same bits.
                assert np.array_equal(got, expected), spec.tier
            else:
                # The row-pointer plan reduces rows with np.add.reduceat
                # (pairwise order), the reference loop left to right.
                assert np.allclose(got, expected, rtol=1e-13, atol=0), spec.tier

    def test_fallback_is_bit_identical(self, csr, collector):
        """A failing first tier degrades to the next; the answer is the
        same bits the healthy chain would have produced."""
        du = convert(csr, "csr-du")
        x = np.random.default_rng(3).random(du.ncols)
        expected = du.spmv(x)

        calls = []

        def failing(matrix, x_):
            calls.append(1)
            raise EncodingError("poisoned plan")

        failing.tier = "cached"
        guarded = GuardedKernel(
            "csr-du", chain=(failing, get_kernel("csr-du", "reference"))
        )
        got = guarded(du, x)
        assert calls == [1]
        assert np.array_equal(got, expected)
        events = _events(collector, "kernel.fallback")
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert attrs["from_tier"] == "cached"
        assert attrs["to_tier"] == "reference"
        assert attrs["error"] == "EncodingError"
        assert attrs["format"] == "csr-du"

    def test_corrupted_ctl_exhausts_chain(self, csr, collector):
        """Truncated ctl fails every tier (they all decode the same
        stream): the guard raises instead of returning garbage."""
        du = inject(convert(csr, "csr-du"), "ctl-truncate", 0)
        x = np.ones(du.ncols)
        guarded = GuardedKernel("csr-du")
        with pytest.raises(IntegrityError, match="kernel tiers failed"):
            guarded(du, x)
        events = _events(collector, "kernel.fallback")
        assert len(events) == len(guarded.chain)
        assert events[-1]["attrs"]["to_tier"] == "none"

    def test_non_recoverable_propagates(self, csr):
        du = convert(csr, "csr-du")

        def broken(matrix, x_):
            raise ZeroDivisionError("programming error")

        guarded = GuardedKernel("csr-du", chain=(broken,))
        with pytest.raises(ZeroDivisionError):
            guarded(du, np.ones(du.ncols))

    def test_bad_x_rejected_before_chain(self, csr):
        du = convert(csr, "csr-du")
        with pytest.raises(FormatError, match="expected"):
            GuardedKernel("csr-du")(du, np.ones(du.ncols + 1))

    def test_empty_chain_rejected(self):
        with pytest.raises(FormatError, match="empty fallback chain"):
            GuardedKernel("csr-du", chain=())


class TestRegistryTier:
    def test_guarded_tier_resolves(self, csr):
        spec = get_kernel("csr-du", "guarded")
        assert spec.tier == "guarded"
        du = convert(csr, "csr-du")
        x = np.random.default_rng(4).random(du.ncols)
        assert np.array_equal(spec(du, x), du.spmv(x))
