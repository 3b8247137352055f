"""Import layering: the model-clock pipeline loads no execution stack.

The paper's pipeline needs only the formats, the kernels, the machine
model and one partition function.  Each check runs in a fresh
interpreter, so what it sees in ``sys.modules`` is exactly what its own
imports loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (or whole packages, by prefix) the model-clock path must not load.
OFF_PATH = (
    "repro.parallel.backends",
    "repro.parallel.executor",
    "repro.parallel.process_executor",
    "repro.storage",
    "repro.obs",
    "repro.resilience",
    "repro.robust",
    "repro.perf.advisor",
    "repro.bench.dashboard",
    "repro.bench.baseline",
    "repro.bench.compare",
    "repro.machine.tracesim",
    "multiprocessing.shared_memory",
)


def _run(code: str):
    """Run *code* in a fresh interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_model_clock_path_loads_no_execution_stack():
    loaded = _run(
        """
        import json, sys
        import repro.bench.experiments, repro.bench.report, repro.bench.harness
        print(json.dumps(sorted(sys.modules)))
        """
    )
    hits = sorted(
        m for m in loaded
        for off in OFF_PATH
        if m == off or m.startswith(off + ".")
    )
    assert not hits, f"the model-clock imports load {hits}"


def test_paper_experiments_load_no_module_while_running():
    added = _run(
        """
        import json, sys
        from repro.bench import experiments
        from repro.bench.harness import ExperimentConfig

        before = set(sys.modules)
        config = ExperimentConfig(scale=1 / 64)
        experiments.table3(config, limit=1)
        experiments.fig7(config, limit=1)
        print(json.dumps(sorted(
            m for m in set(sys.modules) - before if m.startswith("repro")
        )))
        """
    )
    assert added == []


def test_format_table_needs_no_other_import():
    got = _run(
        """
        import json, sys
        import numpy as np
        from repro.formats.conversions import (
            FORMATS, available_formats, convert, to_csr,
        )

        dense = np.array([[1.0, 0, 2], [0, 0, 3], [4, 5, 0]])
        csr = FORMATS["csr"].from_dense(dense)
        out = {}
        for name in available_formats():
            m = convert(csr, name)
            out[name] = [m.name, bool((to_csr(m).to_dense() == dense).all())]
        print(json.dumps(out))
        """
    )
    assert sorted(got) == ["coo", "csr", "csr-du", "csr-du-vi", "csr-vi", "dcsr"]
    assert got == {name: [name, True] for name in got}
