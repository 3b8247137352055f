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
