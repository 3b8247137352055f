"""Kernel registry: look SpMV kernels up by format name and tier.

Tiers:

* ``"cached"`` -- the format's own :meth:`spmv`, the one production
  kernel (structural decode cached across calls; plan-based for the
  four plannable formats, see :mod:`repro.kernels.plan`);
* ``"reference"`` -- pure Python, the paper's listings (ground truth,
  and the test oracle for ``"cached"``).

``get_kernel(format_name, tier)`` returns a uniform
``kernel(matrix, x) -> y`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FormatError
from repro.kernels import reference as _ref


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
    ("csr-du", "reference"): _ref.spmv_csr_du_reference,
    ("csr-vi", "reference"): _ref.spmv_csr_vi_reference,
    ("csr-du-vi", "reference"): _ref.spmv_csr_du_vi_reference,
    ("dcsr", "reference"): _ref.spmv_dcsr_reference,
}

# Every registered format supports the "cached" tier through its spmv().
for _name in ("coo", "csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr"):
    _KERNELS[(_name, "cached")] = _cached


#: Tier order walked by guarded execution: a decode failure at one tier
#: re-runs on the next ("reference" is the ground-truth terminus).
#: Tiers a format does not register are skipped.
FALLBACK_ORDER: tuple[str, ...] = ("cached", "reference")


def fallback_chain(format_name: str) -> tuple[KernelSpec, ...]:
    """The format's guarded-execution chain, in :data:`FALLBACK_ORDER`.

    Raises :class:`~repro.errors.FormatError` for a format with no
    registered tier.
    """
    chain = tuple(
        get_kernel(format_name, tier)
        for tier in FALLBACK_ORDER
        if (format_name, tier) in _KERNELS
    )
    if not chain:
        raise FormatError(f"format {format_name!r} has no kernels")
    return chain


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
