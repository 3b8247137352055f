"""Generic conversions between any two formats, and the format table.

All roads go through CSR: every format implements ``from_csr`` /
``to_csr`` (COO goes through ``CSRMatrix.to_coo``/``from_coo``), so
:func:`convert` is a two-hop bridge.  Keeping one canonical hub format keeps the conversion
graph linear in the number of formats instead of quadratic.
"""

from __future__ import annotations

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.telemetry import core as telemetry

#: Every storage format by the name the paper uses for it.
FORMATS: dict[str, type[SparseMatrix]] = {
    cls.name: cls
    for cls in (
        COOMatrix,
        CSRMatrix,
        CSRDUMatrix,
        CSRVIMatrix,
        CSRDUVIMatrix,
        DCSRMatrix,
    )
}


def available_formats() -> tuple[str, ...]:
    """Names of all formats, sorted."""
    return tuple(sorted(FORMATS))


def to_csr(matrix: SparseMatrix) -> CSRMatrix:
    """Bring any format to CSR."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    if isinstance(matrix, COOMatrix):
        return CSRMatrix.from_coo(matrix)
    converter = getattr(matrix, "to_csr", None)
    if converter is not None:
        return converter()
    raise FormatError(f"{type(matrix).__name__} cannot convert to CSR")


def convert(matrix: SparseMatrix, name: str, **kwargs) -> SparseMatrix:
    """Convert *matrix* to the format named *name* in :data:`FORMATS`.

    Extra keyword arguments are forwarded to the target's ``from_csr``
    (e.g. ``policy=`` and ``max_unit=`` for CSR-DU).
    """
    try:
        cls = FORMATS[name]
    except KeyError:
        raise FormatError(
            f"unknown format {name!r}; known: {sorted(FORMATS)}"
        ) from None
    if isinstance(matrix, cls) and not kwargs:
        return matrix
    with telemetry.span(
        "convert", target=name, nrows=matrix.nrows, ncols=matrix.ncols
    ):
        csr = to_csr(matrix)
        if cls is CSRMatrix:
            return csr
        if cls is COOMatrix:
            return csr.to_coo()
        return cls.from_csr(csr, **kwargs)
