"""Synthetic sparse-matrix generators.

The paper's 100-matrix set comes from the Tim Davis (UF) collection --
unavailable offline, so the catalog (see
:mod:`repro.matrices.collection`) is built from these generators, one
per structural family that collection spans:

* :func:`stencil_2d` / :func:`stencil_3d` -- PDE discretizations
  (5/9-point and 7/27-point Laplacians): tiny constant deltas, strong
  diagonal structure; the CSR-DU best case;
* :func:`banded_random` -- FEM-like matrices: nonzeros scattered inside
  a band, mixed u8/u16 deltas;
* :func:`random_uniform` -- unstructured sparsity: large scattered
  deltas, poor x locality; CSR-DU's hard case;
* :func:`powerlaw_graph` -- web/social graph adjacency with a skewed
  degree distribution: extreme row-length variance, tests load
  balancing;
* :func:`block_structured` -- small dense blocks (multi-dof FEM):
  short runs of consecutive columns inside each row;
* :func:`dense_band` -- a fully dense band (narrow finite-difference
  operators): one contiguous run per row, the sequential-unit case;
* :func:`diagonal_bands` -- a few off-diagonals (CDS-like structure);
* :func:`tridiagonal` -- the minimal banded case.

Every generator takes an explicit seed and is fully deterministic; all
return :class:`~repro.formats.coo.COOMatrix` with value 1.0 entries --
value models live in :mod:`repro.matrices.values` and are applied
separately so structure and value redundancy compose freely.  The
catalog's families wrap a private coordinate core returning
``(nrows, ncols, rows, cols)`` (uncanonicalized: duplicates possible);
:func:`repro.matrices.collection.realize` builds from those cores
without a COO.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CatalogError
from repro.formats.coo import COOMatrix


def _coo(nrows: int, ncols: int, rows, cols) -> COOMatrix:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.ones(rows.size, dtype=np.float64)
    return COOMatrix(
        nrows, ncols, rows.astype(np.int32), cols.astype(np.int32), values
    )


def stencil_2d(nx: int, ny: int, points: int = 5) -> COOMatrix:
    """2-D grid Laplacian stencil on an ``nx x ny`` grid.

    ``points`` is 5 (von Neumann neighbourhood) or 9 (Moore).  Matrix
    order is ``nx * ny``.
    """
    return _coo(*_stencil_2d(nx, ny, points))


def _stencil_2d(nx: int, ny: int, points: int):
    if points not in (5, 9):
        raise CatalogError(f"2-D stencil must have 5 or 9 points, got {points}")
    if nx < 1 or ny < 1:
        raise CatalogError("grid dimensions must be positive")
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    if points == 5:
        offs = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        offs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    rows_list, cols_list = [], []
    for di, dj in offs:
        ni, nj = gx + di, gy + dj
        ok = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
        rows_list.append((gx[ok] * ny + gy[ok]))
        cols_list.append((ni[ok] * ny + nj[ok]))
    return nx * ny, nx * ny, np.concatenate(rows_list), np.concatenate(cols_list)


def stencil_3d(nx: int, ny: int, nz: int, points: int = 7) -> COOMatrix:
    """3-D grid Laplacian stencil (7- or 27-point)."""
    return _coo(*_stencil_3d(nx, ny, nz, points))


def _stencil_3d(nx: int, ny: int, nz: int, points: int):
    if points not in (7, 27):
        raise CatalogError(f"3-D stencil must have 7 or 27 points, got {points}")
    if min(nx, ny, nz) < 1:
        raise CatalogError("grid dimensions must be positive")
    gx, gy, gz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    gx, gy, gz = gx.ravel(), gy.ravel(), gz.ravel()
    if points == 7:
        offs = [
            (0, 0, 0),
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ]
    else:
        offs = [
            (di, dj, dk)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for dk in (-1, 0, 1)
        ]
    rows_list, cols_list = [], []
    for di, dj, dk in offs:
        ni, nj, nk = gx + di, gy + dj, gz + dk
        ok = (
            (ni >= 0)
            & (ni < nx)
            & (nj >= 0)
            & (nj < ny)
            & (nk >= 0)
            & (nk < nz)
        )
        rows_list.append((gx[ok] * ny + gy[ok]) * nz + gz[ok])
        cols_list.append((ni[ok] * ny + nj[ok]) * nz + nk[ok])
    n = nx * ny * nz
    return n, n, np.concatenate(rows_list), np.concatenate(cols_list)


def banded_random(
    n: int, bandwidth: int, nnz_per_row: int, seed: int
) -> COOMatrix:
    """FEM-like band matrix: *nnz_per_row* entries per row scattered
    uniformly inside ``[i - bandwidth, i + bandwidth]`` (plus the
    diagonal, always present)."""
    return _coo(*_banded_random(n, bandwidth, nnz_per_row, seed))


def _banded_random(n: int, bandwidth: int, nnz_per_row: int, seed: int):
    if n < 1 or bandwidth < 1 or nnz_per_row < 1:
        raise CatalogError("banded_random parameters must be positive")
    rng = np.random.default_rng(seed)
    k = max(1, nnz_per_row - 1)
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    offs = rng.integers(-bandwidth, bandwidth + 1, size=rows.size)
    cols = np.clip(rows + offs, 0, n - 1)
    diag = np.arange(n, dtype=np.int64)
    return n, n, np.concatenate([rows, diag]), np.concatenate([cols, diag])


def random_uniform(
    nrows: int, ncols: int, nnz_per_row: int, seed: int
) -> COOMatrix:
    """Unstructured sparsity: nnz_per_row uniform random columns per row."""
    return _coo(*_random_uniform(nrows, ncols, nnz_per_row, seed))


def _random_uniform(nrows: int, ncols: int, nnz_per_row: int, seed: int):
    if nrows < 1 or ncols < 1 or nnz_per_row < 1:
        raise CatalogError("random_uniform parameters must be positive")
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(nrows, dtype=np.int64), nnz_per_row)
    cols = rng.integers(0, ncols, size=rows.size)
    return nrows, ncols, rows, cols


def powerlaw_graph(n: int, avg_degree: int, seed: int, alpha: float = 1.5) -> COOMatrix:
    """Graph adjacency with power-law-ish degree skew.

    Target column popularity follows a Zipf(alpha) profile over a random
    permutation of vertices, giving a few extremely heavy columns/rows
    -- the load-balancing stress case (cf. the web matrices in [5]).
    """
    return _coo(*_powerlaw_graph(n, avg_degree, seed, alpha))


def _powerlaw_graph(n: int, avg_degree: int, seed: int, alpha: float = 1.5):
    if n < 2 or avg_degree < 1:
        raise CatalogError("powerlaw_graph needs n >= 2, avg_degree >= 1")
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    # Zipf-profile sampling via inverse-CDF on ranks.
    u = rng.random(m)
    ranks = ((n ** (1 - alpha) - 1) * u + 1) ** (1 / (1 - alpha))
    cols = np.minimum((ranks - 1).astype(np.int64), n - 1)
    perm = rng.permutation(n)
    cols = perm[cols]
    rows = rng.integers(0, n, size=m)
    return n, n, rows, cols


def block_structured(
    nblocks: int, block: int, blocks_per_row: int, seed: int
) -> COOMatrix:
    """Dense ``block x block`` tiles on a random block-sparsity pattern
    (multi-dof FEM structure)."""
    return _coo(*_block_structured(nblocks, block, blocks_per_row, seed))


def _block_structured(nblocks: int, block: int, blocks_per_row: int, seed: int):
    if nblocks < 1 or block < 1 or blocks_per_row < 1:
        raise CatalogError("block_structured parameters must be positive")
    rng = np.random.default_rng(seed)
    brows = np.repeat(np.arange(nblocks, dtype=np.int64), blocks_per_row)
    bcols = rng.integers(0, nblocks, size=brows.size)
    # Expand every (brow, bcol) tile into block*block entries.
    di, dj = np.meshgrid(np.arange(block), np.arange(block), indexing="ij")
    di, dj = di.ravel(), dj.ravel()
    rows = (brows[:, None] * block + di[None, :]).ravel()
    cols = (bcols[:, None] * block + dj[None, :]).ravel()
    n = nblocks * block
    return n, n, rows, cols


def dense_band(n: int, half_bandwidth: int) -> COOMatrix:
    """A fully dense band: every entry within ``|i - j| <= half_bandwidth``.

    Narrow-band FEM / finite-difference matrices look like this; each
    row is one contiguous column run -- the long constant-delta
    stretches that the sequential-unit encoder (the ``"seq"`` policy)
    exists for.
    """
    if n < 1 or half_bandwidth < 0:
        raise CatalogError("dense_band needs n >= 1 and half_bandwidth >= 0")
    idx = np.arange(n, dtype=np.int64)
    rows_list, cols_list = [], []
    for off in range(-half_bandwidth, half_bandwidth + 1):
        cols = idx + off
        ok = (cols >= 0) & (cols < n)
        rows_list.append(idx[ok])
        cols_list.append(cols[ok])
    return _coo(n, n, np.concatenate(rows_list), np.concatenate(cols_list))


def diagonal_bands(n: int, offsets: tuple[int, ...]) -> COOMatrix:
    """A matrix holding full diagonals at the given *offsets* (CDS-like)."""
    return _coo(*_diagonal_bands(n, offsets))


def _diagonal_bands(n: int, offsets: tuple[int, ...]):
    if n < 1:
        raise CatalogError("n must be positive")
    if not offsets:
        raise CatalogError("at least one diagonal offset required")
    rows_list, cols_list = [], []
    idx = np.arange(n, dtype=np.int64)
    for off in offsets:
        if abs(off) >= n:
            raise CatalogError(f"offset {off} out of range for n={n}")
        cols = idx + off
        ok = (cols >= 0) & (cols < n)
        rows_list.append(idx[ok])
        cols_list.append(cols[ok])
    return n, n, np.concatenate(rows_list), np.concatenate(cols_list)


def tridiagonal(n: int) -> COOMatrix:
    """The classic [-1, 0, 1] band."""
    return diagonal_bands(n, (-1, 0, 1))
