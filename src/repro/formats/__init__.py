"""Sparse-matrix storage formats.

The paper's cast, all implemented from scratch:

* :class:`~repro.formats.coo.COOMatrix` -- interchange format;
* :class:`~repro.formats.csr.CSRMatrix` -- the baseline (Fig. 1);
* :class:`~repro.formats.csr_du.CSRDUMatrix` -- delta-unit index
  compression (Section IV, the paper's first contribution);
* :class:`~repro.formats.csr_vi.CSRVIMatrix` -- value indexing
  (Section V, the second contribution);
* :class:`~repro.formats.csr_du_vi.CSRDUVIMatrix` -- both combined
  (from the CF'08 companion paper);
* :class:`~repro.formats.dcsr.DCSRMatrix` -- the Willcock & Lumsdaine
  byte-command baseline the paper compares against.

The related-work formats of Section III-A (BCSR, ELLPACK, JDS) are
not evaluated by the paper and are not implemented.
"""

from repro.formats.base import (
    SparseMatrix,
    Storage,
    available_formats,
    get_format,
    register_format,
    working_set_bytes,
)
from repro.formats.coo import COOMatrix
from repro.formats.conversions import convert, to_csr
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix

__all__ = [
    "SparseMatrix",
    "Storage",
    "available_formats",
    "get_format",
    "register_format",
    "working_set_bytes",
    "COOMatrix",
    "CSRMatrix",
    "CSRDUMatrix",
    "CSRVIMatrix",
    "CSRDUVIMatrix",
    "DCSRMatrix",
    "convert",
    "to_csr",
]
