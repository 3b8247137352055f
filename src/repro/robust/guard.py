"""Guarded kernel execution: decode-failure fallback across tiers.

A compressed-format kernel can fail at decode time — a malformed
``ctl`` stream, a poisoned cached plan, a failed integrity check —
long after the matrix was built.  :class:`GuardedKernel` wraps the
registry's tier chain (cached → reference: the format's plan-backed
``spmv``, then the paper's pure-Python listing, which uses no plan) so
one failing tier degrades instead of aborting: a
:data:`~repro.errors.DECODE_ERRORS` failure re-runs the cell on the
next tier, a ``kernel.fallback`` counter records the transition (the
dashboard surfaces degradation), and only a chain with *no* surviving
tier raises.

Both tiers accumulate each row in element order, so they are
bit-identical (``tests/robust/test_guard.py`` locks that in for every
paper format): a successful fallback changes nothing about the answer —
only how expensively it was computed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DECODE_ERRORS, FormatError, IntegrityError
from repro.kernels.registry import fallback_chain
from repro.telemetry import core as telemetry


def _tier_of(spec) -> str:
    return getattr(spec, "tier", getattr(spec, "__name__", "unknown"))


class GuardedKernel:
    """``kernel(matrix, x) -> y`` that walks a fallback chain.

    Parameters
    ----------
    format_name:
        Registry name the chain is built for; the chain is the
        registry's whole fallback order for it.
    chain:
        Explicit sequence of kernels to try instead (tests, custom
        orders).  Entries may be :class:`~repro.kernels.registry.
        KernelSpec` or plain callables.
    """

    def __init__(self, format_name: str, *, chain=None):
        self.format_name = format_name
        self.chain = (
            tuple(chain) if chain is not None else fallback_chain(format_name)
        )
        if not self.chain:
            raise FormatError(f"empty fallback chain for {format_name!r}")

    def __call__(self, matrix, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (matrix.ncols,):
            # A bad right-hand side fails on every tier; reject it up
            # front instead of burning the whole chain.
            raise FormatError(
                f"x has shape {x.shape}, expected ({matrix.ncols},)"
            )
        last_exc: Exception | None = None
        for i, spec in enumerate(self.chain):
            try:
                return spec(matrix, x)
            except DECODE_ERRORS as exc:
                last_exc = exc
                to_tier = (
                    _tier_of(self.chain[i + 1])
                    if i + 1 < len(self.chain)
                    else "none"
                )
                telemetry.count(
                    "kernel.fallback",
                    1,
                    extra={
                        "from_tier": _tier_of(spec),
                        "to_tier": to_tier,
                        "error": type(exc).__name__,
                    },
                    format=self.format_name,
                )
        raise IntegrityError(
            f"all {len(self.chain)} kernel tiers failed for "
            f"{self.format_name!r}; last error: {last_exc}"
        ) from last_exc


def guarded_spmv(matrix, x: np.ndarray) -> np.ndarray:
    """One-shot guarded ``y = A x`` using the matrix's own format chain."""
    return GuardedKernel(matrix.name)(matrix, x)
