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

A second scan applies the same rule to settings: a value with only one
setting in use is a constant, not a parameter.  Over the execution and
resilience layers (:data:`PARAM_SCOPE`) it fails on any defaulted
parameter -- of a function, a method, ``__init__`` (called by class
name) or a dataclass field -- that no call outside ``tests/`` passes,
unless :data:`PARAM_ALLOWLIST` names it with the reason.  A call
passes a parameter by keyword, or by position when enough positional
arguments reach it; callees match by bare name (``cls(...)`` inside a
class is that class), so a forwarding ``k=k`` counts and the scan only
finds values no code can set.

A third scan keeps one import path per name: every package
``__init__.py`` holds its docstring and nothing else, except the root
``repro``, which keeps the quick-tour names of :data:`ROOT_EXPORTS`,
each with a caller outside ``tests/``.
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
PARAM_SCOPE = (
    "repro/parallel",
    "repro/resilience",
    "repro/storage",
    "repro/compress/encode_cache.py",
)
PARAM_REASON = re.compile(r"^(fake-clock seam|test seam|public entry point): \S")

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
    "repro.matrices.generators:random_uniform": (
        "public entry point: the unstructured family as COO; the catalog "
        "realizes it from its coordinate core"
    ),
    "repro.matrices.generators:stencil_3d": (
        "public entry point: the 3-D stencil family as COO; the catalog "
        "realizes it from its coordinate core"
    ),
    "repro.matrices.generators:block_structured": (
        "public entry point: the block family as COO; the catalog "
        "realizes it from its coordinate core"
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


#: ``module:qualname(param)`` -> why the parameter stays settable.
PARAM_ALLOWLIST = {
    "repro.resilience.policy:Deadline.after(clock)": (
        "fake-clock seam: tests expire a deadline without sleeping"
    ),
    "repro.resilience.degrade:ResilientExecutor.__init__(clock)": (
        "fake-clock seam: tests step the rung breakers through cooldown"
    ),
    "repro.resilience.breaker:BreakerBoard.__init__(failure_threshold)": (
        "test seam: the breaker's own setting; tests trip it in one failure"
    ),
    "repro.resilience.breaker:BreakerBoard.__init__(cooldown_s)": (
        "test seam: the breaker's own setting, checked against its breakers"
    ),
    "repro.compress.encode_cache:ConvertCache.__init__(capacity)": (
        "test seam: a small LRU makes eviction observable in a few encodes"
    ),
    "repro.parallel.executor:ParallelSpMV.__init__(chunk_timeout)": (
        "test seam: tests bound a straggler's wait on the thread backend"
    ),
    "repro.parallel.executor:ParallelSpMV.__init__(retry_policy)": (
        "test seam: tests run custom retry policies on the thread backend"
    ),
    "repro.parallel.process_executor:ProcessParallelSpMV.__init__(convert_cache)": (
        "test seam: a private cache keeps one test's encodes out of the next"
    ),
    "repro.parallel.backends:make_executor(directory)": (
        "public entry point: storage=\"mmap\" needs the shard-file directory"
    ),
}

#: Quick-tour name the root ``repro`` package keeps -> a file outside
#: ``tests/`` that imports it from ``repro``.
ROOT_EXPORTS = {
    "CSRMatrix": "examples/quickstart.py",
    "CSRDUMatrix": "src/repro/__init__.py",  # the docstring's quick tour
    "CSRVIMatrix": "src/repro/__init__.py",  # the docstring's quick tour
    "convert": "examples/quickstart.py",
    "available_formats": "examples/quickstart.py",
    "__version__": "src/repro/bench/record.py",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_params():
    """``(key, callee, param, position)`` for every defaulted parameter.

    *callee* is the name a call uses (the class name for ``__init__``
    and dataclass fields); *position* is the parameter's index among
    the positional arguments of such a call, or ``None`` when it is
    keyword-only.
    """
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not any(rel == s or rel.startswith(s + "/") for s in PARAM_SCOPE):
            continue
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for qualname, node in _definitions(tree):
            key = f"{module}:{qualname}"
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [
                        f for f in node.body
                        if isinstance(f, ast.AnnAssign)
                        and isinstance(f.target, ast.Name)
                    ]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            name = f.target.id
                            yield f"{key}({name})", node.name, name, i
                continue
            if node.name.startswith("__") and node.name != "__init__":
                continue
            owner = qualname.split(".")[0] if "." in qualname else None
            callee = owner if node.name == "__init__" else node.name
            static = any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list
            )
            bound = owner is not None and not static
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                name = positional[i].arg
                yield f"{key}({name})", callee, name, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{key}({arg.arg})", callee, arg.arg, None


def _passes() -> dict[str, tuple[int, set[str]]]:
    """callee name -> (most positional arguments, keywords) over calls."""
    npos: dict[str, int] = defaultdict(int)
    keywords: dict[str, set[str]] = defaultdict(set)
    for top in CALLER_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            owner_of = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for node in ast.walk(cls):
                        owner_of[id(node)] = cls.name
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "cls" and id(node) in owner_of:
                    name = owner_of[id(node)]
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                npos[name] = max(npos[name], count)
                keywords[name].update(k.arg for k in node.keywords if k.arg)
    return {name: (npos[name], keywords[name]) for name in npos}


def _unset_params() -> set[str]:
    """Keys of every in-scope defaulted parameter no call passes."""
    passes = _passes()
    found = set()
    for key, callee, name, position in _defaulted_params():
        npos, keywords = passes.get(callee, (0, set()))
        if name in keywords or (position is not None and npos > position):
            continue
        found.add(key)
    return found


@pytest.fixture(scope="module")
def unset_params() -> set[str]:
    return _unset_params()


def test_no_test_only_parameters(unset_params):
    extra = sorted(unset_params - set(PARAM_ALLOWLIST))
    assert not extra, (
        "defaulted parameters only tests set (or nothing sets); make the "
        "default the only behaviour, or add them to PARAM_ALLOWLIST with "
        f"a reason: {extra}"
    )


def test_param_allowlist_is_current(unset_params):
    stale = sorted(set(PARAM_ALLOWLIST) - unset_params)
    assert not stale, f"drop these PARAM_ALLOWLIST entries: {stale}"


def test_every_param_allowlist_entry_has_a_reason():
    bad = sorted(
        k for k, why in PARAM_ALLOWLIST.items() if not PARAM_REASON.match(why)
    )
    assert not bad, bad


def _root_names(stmt: ast.stmt) -> list[str] | None:
    """Names a root-``__init__`` statement binds, if it only re-exports."""
    if isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
        return [alias.asname or alias.name for alias in stmt.names]
    if isinstance(stmt, ast.Assign) and all(
        isinstance(target, ast.Name) for target in stmt.targets
    ):
        return [target.id for target in stmt.targets]
    return None


def test_package_inits_hold_only_docstrings():
    """One import path per name: package ``__init__`` files re-export nothing.

    The root keeps the quick tour, :data:`ROOT_EXPORTS`, and nothing else.
    """
    extra, root_names = [], set()
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        body = ast.parse(path.read_text(), str(path)).body
        if body and isinstance(body[0], ast.Expr) and isinstance(
            getattr(body[0], "value", None), ast.Constant
        ):
            body = body[1:]
        for stmt in body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            names = _root_names(stmt) if path.parent == SRC / "repro" else None
            if names and set(names) <= set(ROOT_EXPORTS):
                root_names.update(names)
                continue
            rel = path.relative_to(ROOT).as_posix()
            extra.append(f"{rel}:{stmt.lineno}: {ast.unparse(stmt)[:60]}")
    assert not extra, f"package __init__ statements beyond the docstring: {extra}"
    assert root_names == set(ROOT_EXPORTS), sorted(set(ROOT_EXPORTS) ^ root_names)
    uncalled = []
    for name, caller in ROOT_EXPORTS.items():
        lines = re.findall(r"from repro import ([\w, ]+)", (ROOT / caller).read_text())
        if not any(name in line.replace(" ", "").split(",") for line in lines):
            uncalled.append(f"{caller} no longer imports {name} from repro")
    assert not uncalled, uncalled
