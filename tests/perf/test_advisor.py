"""Advisor behavior: ranking, safety, ``auto`` wiring, telemetry.

The regret safety contract is exercised two ways: structurally (plain
CSR is always in the candidate set, so the pick can never be
*predicted* worse than it) and live (the picked configuration, actually
measured, stays within :data:`~repro.perf.advisor.advisor.REGRET_BOUND` of the
measured plain-CSR baseline on a real matrix).  ``format_name="auto"``
must be a pure selector: bit-identical output to the explicit pick,
whether it resolves through :func:`~repro.parallel.backends
.make_executor` or a :class:`~repro.storage.shard.ShardStore` build.
"""

from __future__ import annotations

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ReproError
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import banded_random, stencil_2d
from repro.matrices.values import quantized_values, set_matrix_values
from repro.parallel.backends import default_workers, make_executor
from repro.perf.advisor.advisor import (
    REGRET_BOUND,
    RankedChoice,
    advise,
    advise_format,
    history_from_attributions,
    record_realized,
)
from repro.perf.advisor.model import (
    ADVISOR_FORMATS,
    Calibration,
    load_calibration,
    save_calibration,
)
from repro.storage.shard import ShardStore
from repro.telemetry import core as telemetry
from repro.util.timing import measure
from tests.conftest import PAPER_DENSE


@pytest.fixture(autouse=True)
def _no_ambient_calibration(monkeypatch, tmp_path):
    """Tests must not pick up a calibration file from the repo root."""
    monkeypatch.setenv(
        "REPRO_ADVISOR_CALIBRATION", str(tmp_path / "absent.json")
    )


@pytest.fixture
def band() -> CSRMatrix:
    csr = CSRMatrix.from_coo(banded_random(4_000, 16, 8, seed=5))
    return set_matrix_values(csr, quantized_values(csr.nnz, 256, seed=5))


def test_advise_returns_sorted_full_ranking(band):
    choice = advise(band, emit=False)
    assert isinstance(choice, RankedChoice)
    seconds = [p.seconds for p in choice.ranking]
    assert seconds == sorted(seconds)
    # Every candidate format is scored, once.
    scored = [p.config.format_name for p in choice.ranking]
    assert sorted(scored) == sorted(ADVISOR_FORMATS)
    assert choice.best is choice.ranking[0]
    assert choice.top(3) == choice.ranking[:3]


def test_analytic_fallback_without_calibration(band):
    choice = advise(band, calibration=None, emit=False)
    assert all(p.source == "analytic" for p in choice.ranking)
    assert choice.calibration_id is None


def test_advise_rejects_non_calibration(band):
    with pytest.raises(ReproError):
        advise(band, calibration={"ns_per_nnz": {}}, emit=False)


def test_pick_never_predicted_worse_than_csr(band):
    """Structural half of the safety contract: CSR is a candidate."""
    choice = advise(band, emit=False)
    csr_candidates = [
        p for p in choice.ranking if p.config.format_name == "csr"
    ]
    assert csr_candidates, "plain CSR missing from the candidate set"
    assert choice.best.seconds <= min(p.seconds for p in csr_candidates)


def test_measured_regret_within_bound(band):
    """Live half: the pick, measured, stays within the regret bound."""
    x = np.random.default_rng(0).standard_normal(band.ncols)
    choice = advise(band, emit=False)
    best = choice.config

    from repro.formats.conversions import convert

    conv = convert(band, best.format_name)
    conv.spmv(x)  # warm
    band.spmv(x)  # warm
    # Interleave the two timings so a slow spell on a shared host
    # lands on both sides instead of on whichever ran during it.
    picked, csr = [], []
    for _ in range(9):
        picked.append(measure(lambda: conv.spmv(x), calls=3, repeats=1).per_call)
        csr.append(measure(lambda: band.spmv(x), calls=3, repeats=1).per_call)
    assert min(picked) <= REGRET_BOUND * min(csr)


def test_format_auto_bit_identical_via_executor(band):
    x = np.random.default_rng(1).standard_normal(band.ncols)
    picked = advise_format(band, threads=1, backend="thread")
    with make_executor(band, 1, format_name="auto") as auto_exec:
        y_auto = auto_exec(x)
    with make_executor(band, 1, format_name=picked) as explicit_exec:
        y_explicit = explicit_exec(x)
    assert np.array_equal(y_auto, y_explicit)


def test_format_auto_bit_identical_via_shard_store(band):
    x = np.random.default_rng(2).standard_normal(band.ncols)
    picked = advise_format(band, threads=2, backend="thread")
    with ShardStore.build(band, "auto", 2) as auto_store:
        assert auto_store.format_name == picked
        y_auto = np.concatenate(
            [auto_store.attach(i).spmv(x) for i in range(auto_store.nshards)]
        )
    with ShardStore.build(band, picked, 2) as explicit_store:
        y_explicit = np.concatenate(
            [
                explicit_store.attach(i).spmv(x)
                for i in range(explicit_store.nshards)
            ]
        )
    assert np.array_equal(y_auto, y_explicit)


def test_default_workers_cap():
    cpus = max(1, os.cpu_count() or 1)
    assert default_workers(None) == cpus
    assert default_workers("auto") == cpus
    assert default_workers(4) == 4  # explicit oversubscription honored
    assert default_workers("3") == 3


def test_make_executor_defaults_workers(band):
    x = np.random.default_rng(3).standard_normal(band.ncols)
    with make_executor(band) as executor:
        assert np.allclose(executor(x), band.spmv(x))


def test_advisor_pick_telemetry_schema(band):
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        choice = advise(band, matrix_id=7)
        record_realized(choice, 3.5e-4)
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
            if ev.name == "advisor.pick"
        ]
    finally:
        telemetry.set_collector(prev)
    assert [e["attrs"]["phase"] for e in events] == ["advise", "realized"]
    required = {
        "matrix_id", "format", "kernel", "threads", "backend", "partition",
        "predicted_s", "realized_s", "source", "phase",
    }
    for e in events:
        assert required <= set(e["attrs"])
        assert e["attrs"]["matrix_id"] == 7
        assert (e["attrs"]["kernel"], e["attrs"]["partition"]) == ("cached", "row")
    assert events[1]["attrs"]["realized_s"] == pytest.approx(3.5e-4)


def test_calibration_round_trip(tmp_path):
    cal = Calibration(
        ns_per_nnz={"csr": 6.5, "csr-du": 12.0},
        per_call_s=5e-6,
        thread_call_overhead_s=6e-5,
        host={"cpus": 1},
    )
    path = save_calibration(cal, str(tmp_path / "cal.json"))
    loaded = load_calibration(path)
    assert loaded == cal
    assert loaded.calibration_id == cal.calibration_id
    assert loaded.lookup("csr") == 6.5
    assert loaded.lookup("csr-vi") is None


def test_load_calibration_graceful(tmp_path):
    assert load_calibration(str(tmp_path / "missing.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert load_calibration(str(bad)) is None


def test_calibrated_predictions_rank_by_throughput(band):
    cal = Calibration(
        ns_per_nnz={
            "csr": 10.0,
            "csr-du": 2.0,  # implausible, but must win
            "csr-vi": 30.0,
            "csr-du-vi": 30.0,
        },
        per_call_s=1e-6,
    )
    choice = advise(band, calibration=cal, emit=False)
    assert choice.config.format_name == "csr-du"
    assert choice.best.source == "calibrated"
    assert choice.calibration_id == cal.calibration_id


def test_history_overrides_prediction(band):
    records = [
        SimpleNamespace(
            format_name="csr-du-vi",
            threads=1,
            time_s=1e-9,
            matrix_id=5,
            clock="real",
        ),
        SimpleNamespace(  # other matrix: must be ignored
            format_name="csr-vi",
            threads=1,
            time_s=1e-12,
            matrix_id=6,
            clock="real",
        ),
    ]
    history = history_from_attributions(records, matrix_id=5, clock="real")
    assert history == {("csr-du-vi", 1): 1e-9}
    choice = advise(
        band, matrix_id=5, calibration=None, history=records, emit=False
    )
    assert choice.config.format_name == "csr-du-vi"
    assert choice.best.source == "history"


def test_resolvers_return_plain_values(band):
    fmt = advise_format(band)
    assert type(fmt) is str
    assert fmt in ADVISOR_FORMATS


def test_harness_resolvers():
    from repro.bench.harness import (
        ExperimentConfig,
        resolve_formats,
        resolve_thread_configs,
    )

    matrix = CSRMatrix.from_coo(stencil_2d(16, 16, points=5))
    plain = ExperimentConfig(scale=0.03125)
    assert resolve_formats(matrix, ("csr", "csr-du"), plain) == (
        "csr",
        "csr-du",
    )

    pinned = ExperimentConfig(
        scale=0.03125, format_override="csr-vi", threads_choice="2"
    )
    assert resolve_formats(matrix, ("csr", "csr-du", "csr-du-vi"), pinned) == (
        "csr",
        "csr-vi",
    )
    # Serial always runs too: it is the denominator of every speedup.
    assert resolve_thread_configs(matrix, pinned) == ((1, "close"), (2, "close"))

    auto = ExperimentConfig(
        scale=0.03125, format_override="auto", threads_choice="auto"
    )
    formats = resolve_formats(matrix, ("csr", "csr-du"), auto)
    assert formats[0] == "csr"
    assert all(f in ADVISOR_FORMATS for f in formats)
    assert len(formats) == len(set(formats))
    thread_configs = resolve_thread_configs(matrix, auto)
    assert thread_configs[0] == (1, "close")
    threads, placement = thread_configs[-1]
    assert threads in (1, 2, 4, 8) and placement == "close"


def test_run_set_with_auto_override_runs_end_to_end():
    """The bench harness accepts --format auto on the model clock."""
    from repro.bench.harness import ExperimentConfig, run_set
    from repro.matrices.collection import MS_IDS

    config = ExperimentConfig(scale=0.03125, format_override="auto")
    results = run_set(
        (MS_IDS[0],), ("csr", "csr-du"), config, configs=((1, "close"),)
    )
    assert set(results) == {MS_IDS[0]}
    formats_run = set(results[MS_IDS[0]])
    assert "csr" in formats_run
    assert formats_run <= {"csr", *ADVISOR_FORMATS}


def test_paper_matrix_advice_is_deterministic():
    csr = CSRMatrix.from_dense(PAPER_DENSE)
    first = advise(csr, calibration=None, emit=False)
    second = advise(csr, calibration=None, emit=False)
    assert first.config == second.config
    assert [p.seconds for p in first.ranking] == [
        p.seconds for p in second.ranking
    ]
