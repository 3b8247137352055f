"""Every definition in ``src/repro`` has a caller outside ``tests/``.

Code whose only callers are its own tests gets deleted, not maintained.
This test keeps that rule: it scans ``src tools benchmarks examples``
with :mod:`ast` and fails on any module-level function or class, or any
method, whose name is referenced nowhere but in its own body and in
``tests/``.  The few kept on purpose are listed in :data:`ALLOWLIST`
with the reason: a reference oracle the tests compare against, or a
public entry point a user calls.

The scan matches by bare name, so it only finds code that is surely
unreferenced; a name shared with anything that is called counts as
called.  References are ``ast.Name`` ids, ``ast.Attribute`` attrs and
``from ... import`` names (except the re-exports in ``__init__.py``),
plus the ``"repro.module:Qual.name"`` strings through which
``benchmarks/e2e`` wraps its traced functions.  Dunder methods are
skipped: the interpreter calls them.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_TREES = ("src", "tools", "benchmarks", "examples")
TARGET_STRING = re.compile(r"^repro(?:\.\w+)*:([\w.]+)$")
REASON = re.compile(r"^(oracle for |public entry point: )\S")

ALLOWLIST = {
    "repro.compress.delta:split_row_units": (
        "oracle for unitize: TestBulkEquivalence pins the batched splitter "
        "to this per-row reference"
    ),
    "repro.util.bitops:width_class": (
        "oracle for width_class_array, the vectorized width classifier"
    ),
    "repro.compress.unique:UniqueValues.reconstruct": (
        "oracle for the CSR-VI value gather vals_unique[val_ind]"
    ),
    "repro.formats.base:SparseMatrix.to_dense": (
        "oracle for every format's spmv and conversions: the dense "
        "matrix the tests compare against"
    ),
    "repro.io:save_matrix": "public entry point: persist any format to .npz",
    "repro.io:load_matrix": "public entry point: reload a saved matrix",
    "repro.matrices.mmio:read_matrix_market": (
        "public entry point: bring in a real MatrixMarket matrix offline"
    ),
    "repro.matrices.mmio:write_matrix_market": (
        "public entry point: export a matrix as MatrixMarket"
    ),
    "repro.matrices.collection:catalog": (
        "public entry point: list the 100-matrix catalog's entries"
    ),
    "repro.matrices.generators:tridiagonal": (
        "public entry point: the classic [-1, 0, 1] generator"
    ),
    "repro.matrices.values:pattern_values": (
        "public entry point: all-ones values for pattern matrices"
    ),
    "repro.matrices.stats:MatrixStats.vi_applicable": (
        "public entry point: the paper's CSR-VI rule ttu > 5 (Section VI-E)"
    ),
    "repro.compress.unique:total_to_unique_ratio": (
        "public entry point: ttu of a value array without encoding it"
    ),
    "repro.compress.ctl:CtlWriter.finalized": (
        "public entry point: whether getvalue() has consumed the writer"
    ),
    "repro.kernels.plan:has_plan": (
        "public entry point: whether a matrix carries a cached plan"
    ),
    "repro.kernels.registry:available_kernels": (
        "public entry point: list the registered (format, tier) kernels"
    ),
    "repro.machine.cache:LRUCache.contains": (
        "public entry point: non-mutating residency probe of the cache model"
    ),
    "repro.machine.cache:LRUCache.resident_lines": (
        "public entry point: lines the cache model holds"
    ),
    "repro.machine.topology:MachineSpec.packages": (
        "public entry point: package -> cores map, the sibling of dies()"
    ),
    "repro.parallel.partition:RowPartition.imbalance": (
        "oracle for the partition.imbalance gauge row_partition records"
    ),
    "repro.resilience.breaker:CircuitBreaker.guard": (
        "public entry point: raise BreakerOpenError unless the breaker allows"
    ),
    "repro.resilience.breaker:BreakerBoard.states": (
        "public entry point: snapshot of every breaker's state"
    ),
    "repro.resilience.policy:RetryBudget.spent": (
        "public entry point: retries the budget has granted"
    ),
    "repro.robust.guard:guarded_spmv": (
        "public entry point: one-shot guarded y = A x"
    ),
    "repro.robust.validate:is_sealed": (
        "public entry point: whether a matrix carries a checksum seal"
    ),
    "repro.telemetry.core:configure": (
        "public entry point: install or drop a fresh collector in one call"
    ),
}


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for module-level defs and class members."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds):
                    yield f"{node.name}.{sub.name}", sub


def _references() -> dict[str, list[tuple[Path, int]]]:
    refs: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for top in CALLER_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    refs[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    for alias in node.names:
                        refs[alias.name].append((path, node.lineno))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = TARGET_STRING.match(node.value)
                    if match:
                        for part in match.group(1).split("."):
                            refs[part].append((path, node.lineno))
    return refs


def _uncalled() -> set[str]:
    """``module:qualname`` of every src/repro definition no caller names."""
    refs = _references()
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for qualname, node in _definitions(ast.parse(path.read_text(), str(path))):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            lo, hi = node.lineno, node.end_lineno
            if not any(
                ref_path != path or not lo <= line <= hi
                for ref_path, line in refs.get(name, ())
            ):
                found.add(f"{module}:{qualname}")
    return found


@pytest.fixture(scope="module")
def uncalled() -> set[str]:
    return _uncalled()


def test_no_test_only_definitions(uncalled):
    extra = sorted(uncalled - set(ALLOWLIST))
    assert not extra, (
        "definitions only tests call; delete them or add them to "
        f"ALLOWLIST with a reason: {extra}"
    )


def test_allowlist_is_current(uncalled):
    """Every allowlisted name still exists and still has no other caller."""
    stale = sorted(set(ALLOWLIST) - uncalled)
    assert not stale, f"drop these ALLOWLIST entries: {stale}"


def test_every_allowlist_entry_has_a_reason():
    bad = sorted(k for k, why in ALLOWLIST.items() if not REASON.match(why))
    assert not bad, bad
