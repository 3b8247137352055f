"""Kernel registry: look SpMV kernels up by format name and tier.

Tiers:

* ``"reference"`` -- pure Python, the paper's listings (ground truth);
* ``"vectorized"`` -- NumPy, decode-on-the-fly where the format is
  compressed;
* ``"batched"`` -- plan-cached kernels (:mod:`repro.kernels.plan`):
  width-class batched ctl decode for CSR-DU/CSR-DU-VI, cached
  row-pointer reduction for CSR/CSR-VI;
* ``"cached"`` -- the format's own :meth:`spmv` (structural decode
  cached across calls; the iterative-use default -- plan-based for the
  four plannable formats).

``get_kernel(format_name, tier)`` returns a uniform
``kernel(matrix, x) -> y`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FormatError
from repro.kernels import batched as _bat
from repro.kernels import reference as _ref
from repro.kernels import vectorized as _vec


@dataclass(frozen=True)
class KernelSpec:
    """A registered kernel: its identity plus the callable."""

    format_name: str
    tier: str
    func: Callable

    def __call__(self, matrix, x: np.ndarray) -> np.ndarray:
        return self.func(matrix, x)


def _cached(matrix, x):
    return matrix.spmv(x)


_KERNELS: dict[tuple[str, str], Callable] = {
    ("csr", "reference"): _ref.spmv_csr_reference,
    ("csr", "vectorized"): _vec.spmv_csr_vectorized,
    ("csr-du", "reference"): _ref.spmv_csr_du_reference,
    ("csr-du", "vectorized"): _vec.spmv_csr_du_unitwise,
    ("csr-vi", "reference"): _ref.spmv_csr_vi_reference,
    ("csr-vi", "vectorized"): _vec.spmv_csr_vi_vectorized,
    ("csr-du-vi", "vectorized"): _vec.spmv_csr_du_vi_vectorized,
    ("dcsr", "reference"): _ref.spmv_dcsr_reference,
    # Plan-cached tier.  For the row-pointer formats the vectorized
    # kernels already run through the plan, so the tier is an alias;
    # for the delta-unit formats it is the width-class batched decode.
    ("csr", "batched"): _vec.spmv_csr_vectorized,
    ("csr-vi", "batched"): _vec.spmv_csr_vi_vectorized,
    ("csr-du", "batched"): _bat.spmv_csr_du_batched,
    ("csr-du-vi", "batched"): _bat.spmv_csr_du_vi_batched,
}

# Every registered format supports the "cached" tier through its spmv().
for _name in (
    "coo",
    "csr",
    "csc",
    "csr-du",
    "csr-vi",
    "csr-du-vi",
    "dcsr",
    "bcsr",
    "ell",
    "jds",
):
    _KERNELS[(_name, "cached")] = _cached


#: Tier order walked by guarded execution: a decode failure at one tier
#: re-runs on the next (cheapest-first; "reference" is the ground-truth
#: terminus).  Tiers a format does not register, or registers as an
#: alias of an earlier tier's kernel, are skipped.
FALLBACK_ORDER: tuple[str, ...] = ("batched", "vectorized", "reference")


def fallback_chain(
    format_name: str, start_tier: str = "batched"
) -> tuple[KernelSpec, ...]:
    """The format's guarded-execution chain, from *start_tier* down.

    Raises :class:`~repro.errors.FormatError` for an unknown start tier
    or a format with no tier at or below it.
    """
    if start_tier not in FALLBACK_ORDER:
        raise FormatError(
            f"unknown fallback start tier {start_tier!r}; "
            f"order is {FALLBACK_ORDER}"
        )
    idx = FALLBACK_ORDER.index(start_tier)
    # A tier that aliases an earlier one (CSR's "batched" is its
    # "vectorized" kernel) would re-run the same function, so it is
    # dropped.
    chain: list[KernelSpec] = []
    for tier in FALLBACK_ORDER[idx:]:
        func = _KERNELS.get((format_name, tier))
        if func is not None and all(spec.func is not func for spec in chain):
            chain.append(get_kernel(format_name, tier))
    if not chain:
        raise FormatError(
            f"format {format_name!r} has no kernels at or below tier "
            f"{start_tier!r}"
        )
    return tuple(chain)


def get_kernel(format_name: str, tier: str = "cached") -> KernelSpec:
    """Look up a kernel; raises :class:`~repro.errors.FormatError` if absent.

    The synthetic ``"guarded"`` tier wraps the format's fallback chain
    (:func:`fallback_chain`) in a :class:`~repro.robust.guard.
    GuardedKernel`: decode-time failures degrade to the next tier
    instead of aborting the cell.
    """
    if tier == "guarded":
        # Imported lazily: robust.guard imports this module.
        from repro.robust.guard import GuardedKernel

        return KernelSpec(
            format_name=format_name,
            tier="guarded",
            func=GuardedKernel(format_name),
        )
    try:
        func = _KERNELS[(format_name, tier)]
    except KeyError:
        raise FormatError(
            f"no kernel for format {format_name!r} at tier {tier!r}; "
            f"available: {sorted(_KERNELS)}"
        ) from None
    return KernelSpec(format_name=format_name, tier=tier, func=func)


def available_kernels() -> tuple[tuple[str, str], ...]:
    """All registered ``(format, tier)`` pairs, sorted."""
    return tuple(sorted(_KERNELS))
