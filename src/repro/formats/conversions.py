"""Generic conversions between any two registered formats.

All roads go through CSR: every format implements ``from_csr`` /
``to_csr`` (COO goes through ``CSRMatrix.to_coo``/``from_coo``), so
:func:`convert` is a two-hop bridge.  Keeping one canonical hub format keeps the conversion
graph linear in the number of formats instead of quadratic.
"""

from __future__ import annotations

from repro.errors import FormatError
from repro.formats.base import SparseMatrix, get_format
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.telemetry import core as telemetry


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
    """Convert *matrix* to the format registered under *name*.

    Extra keyword arguments are forwarded to the target's ``from_csr``
    (e.g. ``policy=`` and ``max_unit=`` for CSR-DU).
    """
    cls = get_format(name)
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
