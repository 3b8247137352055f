"""Kernel-plan layer: caching, registry wiring, telemetry, no fallback."""

import numpy as np
import pytest

import repro.formats.csr_du as csr_du_mod
from repro.errors import FormatError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.kernels.plan import (
    CSRDUPlan,
    CSRPlan,
    PLAN_ATTR,
    PLANNABLE_FORMATS,
    get_plan,
    has_plan,
)
from repro.kernels.registry import available_kernels, get_kernel
from repro.telemetry.core import Collector, metric_key, set_collector
from tests.conftest import random_sparse_dense


@pytest.fixture
def csr():
    return CSRMatrix.from_dense(random_sparse_dense(20, 30, 0.2, seed=1))


class TestPlanCaching:
    @pytest.mark.parametrize("fmt", PLANNABLE_FORMATS)
    def test_plan_built_once_and_cached(self, csr, fmt):
        m = convert(csr, fmt)
        assert not has_plan(m)
        plan = get_plan(m)
        assert has_plan(m)
        assert get_plan(m) is plan  # same object, not a rebuild

    def test_plan_classes(self, csr):
        assert isinstance(get_plan(convert(csr, "csr")), CSRPlan)
        assert isinstance(get_plan(convert(csr, "csr-du")), CSRDUPlan)

    def test_unplannable_format_raises(self, csr):
        with pytest.raises(FormatError, match="no kernel plan"):
            get_plan(convert(csr, "coo"))

    def test_csr_plan_caches_row_ptr_cast(self, csr):
        plan = get_plan(csr)
        assert plan.row_ptr64.dtype == np.int64
        assert plan.row_ptr64 is get_plan(csr).row_ptr64

    def test_spmv_uses_plan(self, csr):
        """The format's spmv goes through the cached plan."""
        x = np.random.default_rng(0).random(csr.ncols)
        csr.spmv(x)
        assert has_plan(csr)


class TestRegistry:
    def test_only_cached_and_reference_tiers(self):
        tiers = {tier for _, tier in available_kernels()}
        assert tiers == {"cached", "reference"}
        for fmt in PLANNABLE_FORMATS:
            assert (fmt, "cached") in available_kernels()
            assert (fmt, "reference") in available_kernels()

    def test_default_spmv_is_plan_backed(self, csr):
        """Tier-1 smoke: the default ('cached') CSR-DU kernel selects
        the plan path -- evidenced by the plan materializing."""
        du = convert(csr, "csr-du")
        kernel = get_kernel("csr-du")  # default tier
        kernel(du, np.random.default_rng(3).random(du.ncols))
        assert has_plan(du)


class TestNoSilentFallback:
    def test_spmv_propagates_plan_failure(self, csr, monkeypatch):
        """A broken plan layer must raise, never silently fall back to
        a slower decode path."""
        du = convert(csr, "csr-du")

        def boom(matrix):
            raise RuntimeError("plan layer down")

        monkeypatch.setattr(csr_du_mod, "get_plan", boom)
        with pytest.raises(RuntimeError, match="plan layer down"):
            du.spmv(np.zeros(du.ncols))

    def test_corrupt_ctl_raises_at_plan_build(self, csr):
        du = convert(csr, "csr-du")
        bad = type(du)(du.nrows, du.ncols, du.ctl[:-1], du.values)
        with pytest.raises(Exception):
            bad.spmv(np.zeros(du.ncols))


class TestPlanTelemetry:
    def test_build_hit_miss_counters(self, csr):
        du = convert(csr, "csr-du")
        collector = Collector()
        prev = set_collector(collector)
        try:
            get_plan(du)
            get_plan(du)
            get_plan(du)
        finally:
            set_collector(prev)
        labels = {"format": "csr-du"}
        assert collector.counters.get(metric_key("plan.miss", labels)) == 1
        assert collector.counters.get(metric_key("plan.hit", labels)) == 2
        spans = [e for e in collector.snapshot() if e.kind == "span"]
        assert [s.name for s in spans] == ["plan.build"]
        assert spans[0].attrs["format"] == "csr-du"
        assert spans[0].attrs["nnz"] == du.nnz

    def test_silent_when_disabled(self, csr):
        prev = set_collector(None)
        try:
            get_plan(convert(csr, "csr-vi"))  # must not blow up
        finally:
            set_collector(prev)


class TestPlanOutBuffer:
    @pytest.mark.parametrize("fmt", PLANNABLE_FORMATS)
    def test_out_buffer_reused_and_identical(self, csr, fmt):
        m = convert(csr, fmt)
        x = np.random.default_rng(4).random(m.ncols)
        out = np.full(m.nrows, np.nan)
        y = m.spmv(x, out=out)
        assert y is out
        assert np.array_equal(out, m.spmv(x))

    def test_plan_attr_name_stable(self, csr):
        get_plan(csr)
        assert getattr(csr, PLAN_ATTR) is get_plan(csr)
