"""SpMV kernels, in tiers, plus a registry keyed by (format, tier)."""

from repro.kernels.plan import (
    CSRDUPlan,
    CSRPlan,
    PLANNABLE_FORMATS,
    get_plan,
    has_plan,
)
from repro.kernels.reference import (
    spmv_csr_du_reference,
    spmv_csr_du_vi_reference,
    spmv_csr_reference,
    spmv_csr_vi_reference,
    spmv_dcsr_reference,
)
from repro.kernels.registry import KernelSpec, available_kernels, get_kernel

__all__ = [
    "spmv_csr_reference",
    "spmv_csr_du_reference",
    "spmv_csr_vi_reference",
    "spmv_csr_du_vi_reference",
    "spmv_dcsr_reference",
    "CSRPlan",
    "CSRDUPlan",
    "PLANNABLE_FORMATS",
    "get_plan",
    "has_plan",
    "KernelSpec",
    "available_kernels",
    "get_kernel",
]
