"""The 100-matrix catalog mirroring the paper's experimental set.

The paper draws 100 matrices from the UF collection ([5] lists them by
id 1..100) and defines its experimental sets by id:

* ``M0``   -- the 77 matrices with SpMV working set >= 3 MB;
* ``ML``   -- the 52 of those with ws >= 4 x L2 + 1 MB = 17 MB
  (memory bound even with all 8 cores);
* ``MS``   -- the remaining 25 (working set cacheable at high thread
  counts);
* ``M0_vi`` / ``ML_vi`` / ``MS_vi`` -- the ttu > 5 subsets CSR-VI
  applies to.

The UF matrices are not available offline, so each id is bound to a
deterministic synthetic recipe (family + seeded parameters) whose
working set and total-to-unique ratio land it in exactly the paper's
sets.  Structural families rotate across ids so every set mixes
stencils, banded FEM-like matrices, unstructured and power-law
patterns -- the axes the formats are sensitive to (see
:mod:`repro.matrices.generators`).

``realize(id, scale=...)`` builds the matrix; ``scale`` shrinks the
working-set target (pair it with ``MachineSpec.scaled`` to keep every
matrix in its set -- see DESIGN.md).  It probes, then builds once: a
size search reads each try's working set from the pattern's counts --
a closed form for the families sized by their dimensions (stencils,
diagonal bands), one sort of the packed coordinates for the rest, no
values and no COO -- and only the chosen pattern gets its values and
becomes a :class:`~repro.formats.csr.CSRMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CatalogError
from repro.formats.csr import CSRMatrix
from repro.matrices import generators as gen
from repro.matrices.values import continuous_values, quantized_values

# ---------------------------------------------------------------------------
# The paper's id sets (Section VI-B and VI-E, verbatim).
# ---------------------------------------------------------------------------


def _expand(spec: str) -> tuple[int, ...]:
    """Expand an id-list spec like ``"2-13, 15, 17"`` into a tuple."""
    out: list[int] = []
    for part in spec.replace(" ", "").split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return tuple(out)


ALL_IDS: tuple[int, ...] = tuple(range(1, 101))

#: ws >= 3 MB (77 matrices): "2-13, 15, 17, 21, 25, 26, 36, 40-42,
#: 44-53, 55-100" (Section VI-B).
M0_IDS: tuple[int, ...] = _expand("2-13,15,17,21,25,26,36,40-42,44-53,55-100")

#: ws >= 17 MB (52 matrices): "2, 5, 8-10, 15, 40, 45, 46, 50-53,
#: 55-57, 59, 61-64, 69-78, 80-100".
ML_IDS: tuple[int, ...] = _expand(
    "2,5,8-10,15,40,45,46,50-53,55-57,59,61-64,69-78,80-100"
)

#: The remaining 25 M0 matrices.
MS_IDS: tuple[int, ...] = tuple(i for i in M0_IDS if i not in set(ML_IDS))

#: ttu > 5, memory bound (22): "9, 40, 45, 46, 50-53, 57, 61, 63, 69,
#: 70, 73, 80, 82, 84-87, 93, 99" (Section VI-E).
ML_VI_IDS: tuple[int, ...] = _expand(
    "9,40,45,46,50-53,57,61,63,69,70,73,80,82,84-87,93,99"
)

#: ttu > 5, cacheable (8): "26, 41, 42, 44, 47, 67, 68, 79".
MS_VI_IDS: tuple[int, ...] = _expand("26,41,42,44,47,67,68,79")

M0_VI_IDS: tuple[int, ...] = tuple(sorted(ML_VI_IDS + MS_VI_IDS))

_MB = 1024 * 1024

_FAMILIES = (
    "stencil2d5",
    "banded",
    "stencil3d7",
    "random",
    "stencil2d9",
    "powerlaw",
    "stencil3d27",
    "banded",
    "block",
    "random",
    "banded",
    "diagonals",
)


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog matrix: identity, class membership, and recipe."""

    matrix_id: int
    name: str
    family: str
    ws_target_bytes: int
    ttu_target: float | None  # None -> continuous (all-unique) values
    seed: int

    @property
    def in_m0(self) -> bool:
        return self.matrix_id in set(M0_IDS)

    @property
    def in_ml(self) -> bool:
        return self.matrix_id in set(ML_IDS)

    @property
    def in_ms(self) -> bool:
        return self.matrix_id in set(MS_IDS)

    @property
    def in_m0_vi(self) -> bool:
        return self.matrix_id in set(M0_VI_IDS)


def _ws_targets() -> dict[int, int]:
    """Assign a working-set target to every id, respecting its set.

    Targets are log-spaced inside each class band and shuffled
    deterministically so size is not monotone in id (the UF ids aren't
    either).  ML gets [17.8, 90] MB, MS [3.3, 15.5] MB, non-M0 (small)
    [0.4, 2.6] MB; id 1 is the dense matrix the paper rejects.
    """
    rng = np.random.default_rng(20080417)  # fixed: catalog identity
    targets: dict[int, int] = {}

    def assign(ids: tuple[int, ...], lo_mb: float, hi_mb: float) -> None:
        spread = np.geomspace(lo_mb, hi_mb, num=len(ids))
        rng.shuffle(spread)
        for mid, mb in zip(ids, spread):
            targets[mid] = int(mb * _MB)

    assign(ML_IDS, 17.8, 90.0)
    assign(MS_IDS, 3.3, 15.5)
    small = tuple(i for i in ALL_IDS if i not in set(M0_IDS) and i != 1)
    assign(small, 0.4, 2.6)
    targets[1] = 4 * _MB  # the dense matrix (excluded from M0 by the paper)
    return targets


def _ttu_targets() -> dict[int, float | None]:
    """ttu > 5 for the *_vi ids, modest or ~1 for the rest."""
    rng = np.random.default_rng(20080604)
    targets: dict[int, float | None] = {}
    vi = set(M0_VI_IDS)
    for mid in ALL_IDS:
        if mid in vi:
            targets[mid] = float(np.exp(rng.uniform(np.log(8.0), np.log(400.0))))
        else:
            # A third of the rest get mild redundancy (1 < ttu <= 4),
            # the others all-unique values -- mirroring that real
            # matrices below the threshold still repeat some values.
            targets[mid] = float(rng.uniform(1.5, 4.0)) if rng.random() < 0.33 else None
    return targets


_WS_TARGETS = _ws_targets()
_TTU_TARGETS = _ttu_targets()


def _family_of(matrix_id: int) -> str:
    if matrix_id == 1:
        return "dense"
    return _FAMILIES[matrix_id % len(_FAMILIES)]


def entry(matrix_id: int) -> CatalogEntry:
    """The catalog entry for *matrix_id* (1..100)."""
    if matrix_id not in set(ALL_IDS):
        raise CatalogError(f"catalog ids are 1..100, got {matrix_id}")
    family = _family_of(matrix_id)
    return CatalogEntry(
        matrix_id=matrix_id,
        name=f"syn{matrix_id:03d}-{family}",
        family=family,
        ws_target_bytes=_WS_TARGETS[matrix_id],
        ttu_target=_TTU_TARGETS[matrix_id],
        seed=700000 + matrix_id,
    )


def catalog(ids: tuple[int, ...] = ALL_IDS) -> list[CatalogEntry]:
    """Catalog entries for *ids* (default: all 100)."""
    return [entry(i) for i in ids]


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

#: Approximate CSR working-set bytes per nonzero, used to size recipes:
#: 12 bytes of col_ind+values per nnz, plus row_ptr/x/y amortized via
#: the per-family nnz-per-row below.
def _rows_for(ws: int, nnz_per_row: float) -> int:
    # ws = nnz*12 + (n+1)*4 + 2n*8  with  nnz = n * nnz_per_row
    per_row = 12.0 * nnz_per_row + 20.0
    return max(16, int(ws / per_row))


def _recipe(ent: CatalogEntry, ws: int):
    """The structural pattern for one entry at target *ws*: a coordinate
    function of :mod:`~repro.matrices.generators` and its arguments."""
    rng = np.random.default_rng(ent.seed)
    fam = ent.family
    if fam == "dense":
        n = max(8, int(np.sqrt(ws / 12.0)))
        return gen._random_uniform, (n, n, max(1, n - 1), ent.seed)
    if fam == "stencil2d5":
        n = _rows_for(ws, 5)
        side = max(4, int(np.sqrt(n)))
        return gen._stencil_2d, (side, side, 5)
    if fam == "stencil2d9":
        n = _rows_for(ws, 9)
        side = max(4, int(np.sqrt(n)))
        return gen._stencil_2d, (side, side, 9)
    if fam == "stencil3d7":
        n = _rows_for(ws, 7)
        side = max(3, int(round(n ** (1 / 3))))
        return gen._stencil_3d, (side, side, side, 7)
    if fam == "stencil3d27":
        n = _rows_for(ws, 27)
        side = max(3, int(round(n ** (1 / 3))))
        return gen._stencil_3d, (side, side, side, 27)
    if fam == "banded":
        nnz_per_row = int(rng.integers(15, 45))
        n = _rows_for(ws, nnz_per_row)
        bandwidth = int(rng.integers(4 * nnz_per_row, 60 * nnz_per_row))
        bandwidth = min(bandwidth, max(2, n - 1))
        return gen._banded_random, (n, bandwidth, nnz_per_row, ent.seed)
    if fam == "random":
        nnz_per_row = int(rng.integers(8, 24))
        # Duplicates get summed away; oversize ~6% to stay in class.
        n = _rows_for(int(ws * 1.06), nnz_per_row)
        return gen._random_uniform, (n, n, nnz_per_row, ent.seed)
    if fam == "powerlaw":
        avg_degree = int(rng.integers(8, 16))
        n = _rows_for(int(ws * 1.12), avg_degree)
        return gen._powerlaw_graph, (n, avg_degree, ent.seed)
    if fam == "block":
        block = int(rng.choice((2, 3, 4)))
        blocks_per_row = int(rng.integers(3, 8))
        nnz_per_row = block * blocks_per_row
        n = _rows_for(int(ws * 1.04), nnz_per_row)
        nblocks = max(4, n // block)
        return gen._block_structured, (nblocks, block, blocks_per_row, ent.seed)
    if fam == "diagonals":
        ndiag = int(rng.integers(5, 13))
        n = _rows_for(ws, ndiag)
        max_off = max(2, min(n - 1, n // 3))
        offs = rng.choice(np.arange(1, max_off), size=max(1, ndiag // 2), replace=False)
        offsets = tuple(sorted({0, *map(int, offs), *map(lambda o: -int(o), offs)}))
        return gen._diagonal_bands, (n, offsets)
    raise CatalogError(f"unknown family {fam!r} for matrix {ent.matrix_id}")


#: ``(nrows, nnz)`` of the families whose size follows from their
#: dimensions, as a closed form of their recipe's arguments (a stencil
#: row keeps the neighbours inside the grid; diagonal ``off`` holds
#: ``n - |off|`` entries): probing their size costs no build.
_CLOSED_FORM = {
    "stencil2d5": lambda s, *_: (s * s, 5 * s * s - 4 * s),
    "stencil2d9": lambda s, *_: (s * s, (3 * s - 2) ** 2),
    "stencil3d7": lambda s, *_: (s**3, 7 * s**3 - 6 * s * s),
    "stencil3d27": lambda s, *_: (s**3, (3 * s - 2) ** 3),
    "diagonals": lambda n, offsets: (n, sum(n - abs(off) for off in offsets)),
}


def _pattern_ws(nrows: int, ncols: int, nnz: int) -> int:
    """``working_set_bytes`` of an int32-index CSR matrix of this shape."""
    return 4 * (nrows + 1) + 12 * nnz + 8 * (nrows + ncols)


def _canonical_pattern(nrows: int, ncols: int, rows, cols):
    """``(nrows, ncols, row_ptr, col_ind)`` of a coordinate pattern.

    The order and duplicate merge of :class:`~repro.formats.coo.COOMatrix`
    without its values: one in-place sort of the packed key
    ``row << 32 | col`` (equal keys are indistinguishable, so no stable
    argsort), then adjacent equal keys collapse to one.
    """
    key = np.asarray(rows, dtype=np.int64) << 32
    key |= cols
    key.sort()
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(key >> 32, minlength=nrows), out=row_ptr[1:])
    col_ind = (key & 0xFFFFFFFF).astype(np.int32)
    return nrows, ncols, row_ptr.astype(np.int32), col_ind


def _probe(ent: CatalogEntry, ws: int):
    """The realized working set of *ent*'s pattern at request *ws*, and
    a thunk returning that pattern (see :func:`_canonical_pattern`).

    Families with a closed form (:data:`_CLOSED_FORM`) answer from it
    and build only if chosen; the others canonicalize their coordinates
    here.
    """
    fn, args = _recipe(ent, ws)
    size_of = _CLOSED_FORM.get(ent.family)
    if size_of is None:
        pattern = _canonical_pattern(*fn(*args))
        nrows, ncols, _, col_ind = pattern
        return _pattern_ws(nrows, ncols, col_ind.size), lambda: pattern
    n, nnz = size_of(*args)
    return _pattern_ws(n, n, nnz), lambda: _canonical_pattern(*fn(*args))


def realize(matrix_id: int, *, scale: float = 1.0) -> CSRMatrix:
    """Build the catalog matrix *matrix_id* at working-set scale *scale*.

    Probe, then one build: a size search probes the pattern's working
    set (from counts alone), the chosen pattern gets its values, and
    one :class:`CSRMatrix` is constructed.  Deterministic: the same
    (id, scale) always yields the same matrix.  Pass ``scale < 1``
    together with ``machine.scaled(scale)`` to run class-faithful
    scaled experiments.
    """
    if scale <= 0:
        raise CatalogError(f"scale must be positive, got {scale}")
    ent = entry(matrix_id)
    target = max(4096, int(ent.ws_target_bytes * scale))
    # The class bands bound the realized size from both sides: ML must
    # stay >= 17 MB (scaled), MS inside [3, 17) MB, non-M0 below 3 MB.
    upper = None
    if ent.in_ms:
        upper = int(17 * _MB * scale * 0.99)
    elif not ent.in_m0 and matrix_id != 1:
        upper = int(3 * _MB * scale * 0.99)
    # Random families lose nonzeros to duplicate collisions, and grid
    # families round their dimensions (a 3-D cube's volume moves in
    # side^3 steps); re-probe with an adjusted request until the
    # realized working set lands in its class band (the set-membership
    # tests depend on it).  Deterministic: the adjustment sequence is a
    # pure function of (id, scale).
    ws = target
    best = None  # (ws, thunk) of the largest compliant try: band beats size
    for _ in range(6):
        realized, build = _probe(ent, ws)
        if ent.family == "dense":
            break
        if upper is None or realized < upper:
            if best is None or realized > best[0]:
                best = realized, build
        if realized < target:
            ws = int(ws * target / max(1, realized) * 1.05)
        elif upper is not None and realized >= upper:
            ws = max(4096, int(ws * upper / realized * 0.92))
        else:
            break
    # Coarse-grained families (3-D cubes step in side^3) may be unable
    # to satisfy both the size target and the class ceiling; the class
    # ceiling wins -- set membership is what the experiments rely on.
    if upper is not None and realized >= upper and best is not None:
        build = best[1]
    nrows, ncols, row_ptr, col_ind = build()
    nnz = col_ind.size
    if ent.ttu_target is None:
        values = continuous_values(nnz, ent.seed + 1)
    else:
        unique = max(2, int(round(nnz / ent.ttu_target)))
        unique = min(unique, nnz)
        values = quantized_values(nnz, unique, ent.seed + 1)
    return CSRMatrix(nrows, ncols, row_ptr, col_ind, values)
