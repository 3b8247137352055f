"""Fault injection: deterministic, isolated, and honest about scope."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.robust.inject import (
    FAULTS,
    FaultNotApplicable,
    applicable_faults,
    get_fault,
    inject,
)
from repro.robust.validate import seal

from tests.conftest import random_sparse_dense

FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi")


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(32, 32, seed=9, quantize=6, empty_rows=True)
    )


class TestCatalogue:
    def test_every_format_covered(self):
        for fmt in FORMATS:
            faults = applicable_faults(fmt)
            assert faults, fmt
            # At least one plausible (seal-only) fault per format.
            assert any(not f.structural for f in faults), fmt

    def test_get_fault_round_trip(self):
        for fault in FAULTS:
            assert get_fault(fault.name) is fault

    def test_unknown_fault(self):
        with pytest.raises(ReproError, match="unknown fault"):
            get_fault("cosmic-ray")

    def test_must_catch_implied_by_structural(self):
        """Structural faults are by definition catchable without a seal,
        so every catalogued structural fault is also must-catch."""
        for fault in FAULTS:
            if fault.structural:
                assert fault.must_catch, fault.name


class TestInject:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_original_untouched(self, csr, fmt):
        healthy = convert(csr, fmt)
        x = np.arange(healthy.ncols, dtype=np.float64)
        y_ref = healthy.spmv(x)
        before = {
            k: (bytes(v) if isinstance(v, (bytes, bytearray)) else v.copy())
            for k, v in vars(healthy).items()
            if isinstance(v, (np.ndarray, bytes, bytearray))
        }
        for fault in applicable_faults(fmt):
            try:
                inject(healthy, fault, 0)
            except FaultNotApplicable:
                continue
        for name, value in before.items():
            now = getattr(healthy, name)
            if isinstance(value, bytes):
                assert now == value, name
            else:
                assert np.array_equal(now, value), name
        assert np.array_equal(healthy.spmv(x), y_ref)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_deterministic(self, csr, fmt):
        healthy = convert(csr, fmt)
        for fault in applicable_faults(fmt):
            a = inject(healthy, fault, 5)
            b = inject(healthy, fault, 5)
            for name, value in vars(a).items():
                if isinstance(value, bytes):
                    assert value == getattr(b, name), (fault.name, name)
                elif isinstance(value, np.ndarray):
                    equal_nan = np.issubdtype(value.dtype, np.floating)
                    assert np.array_equal(
                        value, getattr(b, name), equal_nan=equal_nan
                    ), (fault.name, name)

    def test_accepts_fault_name(self, csr):
        du = convert(csr, "csr-du")
        victim = inject(du, "ctl-truncate", 0)
        assert len(victim.ctl) < len(du.ctl)

    def test_in_place_injection(self, csr):
        du = convert(csr, "csr-du")
        victim = inject(du, "ctl-truncate", 0, copy_matrix=False)
        assert victim is du

    def test_seal_carried_onto_victim(self, csr):
        """The corruption model is post-seal: the victim keeps the
        healthy seal, so verify() can use it as evidence."""
        healthy = seal(
            CSRMatrix(
                csr.nrows,
                csr.ncols,
                csr.row_ptr.copy(),
                csr.col_ind.copy(),
                csr.values.copy(),
            )
        )
        victim = inject(healthy, "value-bit-flip", 0)
        assert getattr(victim, "_integrity_seal") == getattr(
            healthy, "_integrity_seal"
        )
        with pytest.raises(ReproError):
            victim.verify()
        healthy.verify()

    def test_not_applicable(self):
        # A matrix whose interior row_ptr entries are all equal cannot
        # be shuffled into a different permutation.
        dense = np.zeros((3, 3))
        dense[0, 0] = 1.0
        dense[2, 2] = 2.0
        csr = CSRMatrix.from_dense(dense)
        with pytest.raises(FaultNotApplicable):
            inject(csr, "col-ind-disorder", 0)

    def test_victim_caches_dropped(self, csr):
        du = convert(csr, "csr-du")
        x = np.ones(du.ncols)
        du.spmv(x)  # builds plan/unit caches on the healthy matrix
        victim = inject(du, "ctl-bit-flip", 1)
        for attr in ("units", "_kernel_plan", "_unit_table"):
            assert attr not in vars(victim), attr
