"""Persistence: save/load any format to a single ``.npz`` file.

Compressed formats exist to be encoded once and reused across many
solver runs; this module makes the encoded form durable.  Each format
serializes its *actual* storage arrays (the ctl byte stream, val_ind at
its native width, ...), so a saved CSR-DU file is as small as the
in-memory format and loads without re-encoding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix

_MAGIC = "repro-sparse-v1"


def save_matrix(matrix: SparseMatrix, path) -> None:
    """Serialize *matrix* (any registered format) to ``path`` (.npz)."""
    name = type(matrix).name
    arrays: dict[str, np.ndarray] = {
        "__magic__": np.array(_MAGIC),
        "__format__": np.array(name),
        "__shape__": np.array(matrix.shape, dtype=np.int64),
    }
    if isinstance(matrix, COOMatrix):
        arrays.update(rows=matrix.rows, cols=matrix.cols, values=matrix.values)
    elif isinstance(matrix, CSRMatrix):
        arrays.update(
            row_ptr=matrix.row_ptr, col_ind=matrix.col_ind, values=matrix.values
        )
    elif isinstance(matrix, CSRDUMatrix):
        arrays.update(
            ctl=np.frombuffer(matrix.ctl, dtype=np.uint8), values=matrix.values
        )
    elif isinstance(matrix, CSRVIMatrix):
        arrays.update(
            row_ptr=matrix.row_ptr,
            col_ind=matrix.col_ind,
            vals_unique=matrix.vals_unique,
            val_ind=matrix.val_ind,
        )
    elif isinstance(matrix, CSRDUVIMatrix):
        arrays.update(
            ctl=np.frombuffer(matrix.ctl, dtype=np.uint8),
            vals_unique=matrix.vals_unique,
            val_ind=matrix.val_ind,
        )
    elif isinstance(matrix, DCSRMatrix):
        arrays.update(
            stream=np.frombuffer(matrix.stream, dtype=np.uint8),
            values=matrix.values,
        )
    else:
        raise FormatError(f"cannot serialize {type(matrix).__name__}")
    np.savez_compressed(path, **arrays)


def load_matrix(path) -> SparseMatrix:
    """Load a matrix saved by :func:`save_matrix`.

    Raises :class:`~repro.errors.FormatError` for a file that is not a
    repro matrix, names a format this version cannot load, or lacks an
    array its format needs.
    """
    with np.load(path) as data:
        if "__magic__" not in data or str(data["__magic__"]) != _MAGIC:
            raise FormatError(f"{path} is not a repro sparse-matrix file")
        try:
            return _build(data)
        except KeyError as exc:
            raise FormatError(f"{path} is missing stored array {exc}") from None


def _build(data) -> SparseMatrix:
    name = str(data["__format__"])
    nrows, ncols = (int(v) for v in data["__shape__"])
    if name == "coo":
        return COOMatrix(nrows, ncols, data["rows"], data["cols"], data["values"])
    if name == "csr":
        return CSRMatrix(
            nrows, ncols, data["row_ptr"], data["col_ind"], data["values"],
            col_index_dtype=data["col_ind"].dtype,
            index_dtype=data["row_ptr"].dtype,
        )
    if name == "csr-du":
        return CSRDUMatrix(nrows, ncols, data["ctl"].tobytes(), data["values"])
    if name == "csr-vi":
        return CSRVIMatrix(
            nrows,
            ncols,
            data["row_ptr"],
            data["col_ind"],
            data["vals_unique"],
            data["val_ind"],
        )
    if name == "csr-du-vi":
        return CSRDUVIMatrix(
            nrows,
            ncols,
            data["ctl"].tobytes(),
            data["vals_unique"],
            data["val_ind"],
        )
    if name == "dcsr":
        return DCSRMatrix(nrows, ncols, data["stream"].tobytes(), data["values"])
    raise FormatError(f"unknown serialized format {name!r}")
