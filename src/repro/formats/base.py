"""Base class and registry for sparse-matrix storage formats.

Every format in :mod:`repro.formats` derives from :class:`SparseMatrix`
and reports its storage honestly, split the way the paper splits it:

* **index bytes** -- structural data (``row_ptr``/``col_ind`` for CSR,
  the ``ctl`` stream for CSR-DU, command streams for DCSR, ...);
* **value bytes** -- numerical data (``values`` for CSR,
  ``vals_unique`` + ``val_ind`` for CSR-VI).

That split drives both the compression-ratio reporting of Figs. 7/8 and
the machine model's traffic accounting, so each format implements
:meth:`SparseMatrix.storage` exactly from its real arrays.

Formats register themselves with :func:`register_format` so the
benchmark harness and CLI can look them up by the names used in the
paper (``"csr"``, ``"csr-du"``, ``"csr-vi"``, ...).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import FormatError
from repro.util.validation import check_dimensions


@dataclass(frozen=True)
class Storage:
    """Byte accounting for one stored matrix.

    ``index_bytes`` + ``value_bytes`` is the matrix footprint; adding
    the dense vectors gives the paper's working set (see
    :func:`working_set_bytes`).
    """

    index_bytes: int
    value_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.index_bytes + self.value_bytes

    def ratio_to(self, other: "Storage") -> float:
        """This format's size relative to *other* (< 1 means smaller)."""
        if other.total_bytes == 0:
            raise FormatError("reference storage is empty")
        return self.total_bytes / other.total_bytes


def check_out_aliasing(out: np.ndarray, *sources: np.ndarray) -> np.ndarray:
    """Reject an ``out=`` buffer that shares memory with an input.

    The executors write ``y`` while every chunk still reads ``x``, so an
    aliased buffer silently corrupts the answer mid-computation.
    The contract is *no overlap*; violations raise
    :class:`~repro.errors.IntegrityError` instead of returning wrong
    numbers.  (``spmv(out=)`` on the plannable formats computes every
    product before writing and needs no check — this guards the chunked
    paths.)
    """
    from repro.errors import IntegrityError

    for src in sources:
        if np.may_share_memory(out, src):
            raise IntegrityError(
                "out= buffer shares memory with an input array; the "
                "executor paths require a disjoint output (pass a fresh "
                "buffer or copy the input)"
            )
    return out


class SparseMatrix(abc.ABC):
    """Abstract sparse matrix.

    Concrete formats store their arrays however the paper specifies and
    implement the small interface below.  SpMV kernels live separately
    in :mod:`repro.kernels`; ``A @ x`` is a convenience that dispatches
    to the format's default kernel.
    """

    #: Registry name, set by each concrete class (e.g. ``"csr-du"``).
    name: str = ""

    def __init__(self, nrows: int, ncols: int):
        self._nrows, self._ncols = check_dimensions(nrows, ncols)

    # -- shape ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    # -- abstract interface --------------------------------------------
    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored nonzero elements."""

    @abc.abstractmethod
    def storage(self) -> Storage:
        """Actual byte footprint, split into index and value bytes."""

    @abc.abstractmethod
    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(row, col, value)`` triplets in row-major order."""

    @abc.abstractmethod
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A x`` with this format's default (vectorized) kernel."""

    # -- integrity -----------------------------------------------------
    def verify(self, *, value_policy: str = "finite") -> "SparseMatrix":
        """Run every applicable integrity check; return ``self``.

        Structural invariants (row pointers, index ranges, ctl-stream
        well-formedness via the non-decoding walker), the NaN/Inf
        *value_policy*, and — when :meth:`seal` was called — checksum
        verification of every stored array.  Raises
        :class:`~repro.errors.IntegrityError` with byte-offset/row
        context on the first failure.  See :mod:`repro.robust.validate`.
        """
        from repro.robust.validate import verify_matrix

        return verify_matrix(self, value_policy=value_policy)

    def seal(self) -> "SparseMatrix":
        """Stamp CRC32 checksums of the stored arrays; return ``self``.

        After sealing, :meth:`verify` additionally re-hashes every
        array — the only check that catches corruptions which keep the
        structure plausible (in-range bit flips).  Opt-in: unsealed
        matrices pay nothing.
        """
        from repro.robust.validate import seal as _seal

        return _seal(self)

    # -- generic helpers -----------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests / tiny matrices only)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        for i, j, v in self.iter_entries():
            dense[i, j] += v
        return dense

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.spmv(np.asarray(x))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        st = self.storage()
        return (
            f"<{type(self).__name__} {self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"{st.total_bytes / 1e6:.2f} MB>"
        )


def working_set_bytes(
    matrix: SparseMatrix, *, value_size: int = 8
) -> int:
    """The paper's SpMV working set: matrix storage plus the x/y vectors.

    ``ws = index_bytes + value_bytes + (nrows + ncols) * value_size``
    (Section II-B).
    """
    st = matrix.storage()
    return st.total_bytes + (matrix.nrows + matrix.ncols) * value_size


# ---------------------------------------------------------------------------
# Format registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register_format(cls: type) -> type:
    """Class decorator registering a format under its ``name``."""
    if not getattr(cls, "name", ""):
        raise FormatError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY:
        raise FormatError(f"format name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_format(name: str) -> type:
    """Look a format class up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FormatError(
            f"unknown format {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available_formats() -> tuple[str, ...]:
    """Names of all registered formats, sorted."""
    return tuple(sorted(_REGISTRY))

