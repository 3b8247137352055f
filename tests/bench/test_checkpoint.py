"""Checkpoint/resume: lossless cells, fingerprint scoping, crash tolerance."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.checkpoint import (
    FORMAT_VERSION,
    CheckpointLog,
    fingerprint,
    result_from_json,
    result_to_json,
)
from repro.bench.harness import TABLE2_CONFIGS, ExperimentConfig, run_set

SCALE = 1 / 64
IDS = (41, 47)
FORMATS = ("csr", "csr-du")


def _normalize(results):
    """Strip the one wall-clock field (setup_s) for comparisons."""
    out = {}
    for mid, per_fmt in results.items():
        for fmt, res in per_fmt.items():
            cell = result_to_json(res)
            for attr in cell["attributions"].values():
                attr["setup_s"] = 0.0
            out[(mid, fmt)] = cell
    return out


@pytest.fixture
def config(tmp_path):
    return ExperimentConfig(
        scale=SCALE, checkpoint_path=str(tmp_path / "ckpt.jsonl")
    )


class TestRoundTrip:
    def test_result_json_lossless(self, config):
        from repro.matrices.collection import realize

        matrix = realize(47, scale=SCALE)
        res = harness.run_format_matrix(matrix, "csr-du", config, matrix_id=47)
        back = result_from_json(json.loads(json.dumps(result_to_json(res))))
        assert back == res  # dataclass equality: every float bit-exact

    def test_fingerprint_sensitivity(self):
        base = ExperimentConfig(scale=SCALE)
        assert fingerprint(base, TABLE2_CONFIGS) == fingerprint(
            ExperimentConfig(scale=SCALE), TABLE2_CONFIGS
        )
        assert fingerprint(base, TABLE2_CONFIGS) != fingerprint(
            ExperimentConfig(scale=SCALE / 2), TABLE2_CONFIGS
        )
        assert fingerprint(base, TABLE2_CONFIGS) != fingerprint(
            base, TABLE2_CONFIGS[:1]
        )


class TestResume:
    def test_uninterrupted_vs_resumed_equal_modulo_timestamps(
        self, config, tmp_path
    ):
        """Kill after the first matrix; the resumed bundle matches an
        uninterrupted run's except for measured setup wall-clock."""
        fresh = run_set(IDS, FORMATS, ExperimentConfig(scale=SCALE))

        # Simulate the crash: run only the first matrix, checkpointed.
        run_set(IDS[:1], FORMATS, config)
        # Resume over the full id set.
        resumed = run_set(IDS, FORMATS, config)

        assert _normalize(resumed) == _normalize(fresh)

    def test_completed_cells_not_recomputed(self, config, monkeypatch):
        run_set(IDS, FORMATS, config)

        calls = []
        real = harness.run_format_matrix

        def counting(matrix, fmt, cfg, **kwargs):
            calls.append((kwargs.get("matrix_id"), fmt))
            return real(matrix, fmt, cfg, **kwargs)

        monkeypatch.setattr(harness, "run_format_matrix", counting)
        restored = run_set(IDS, FORMATS, config)
        assert calls == []  # nothing recomputed
        assert set(restored) == set(IDS)
        # A fully-restored run is deterministic down to setup_s: the
        # stored records ARE the result.
        again = run_set(IDS, FORMATS, config)
        for mid in IDS:
            for fmt in FORMATS:
                assert restored[mid][fmt] == again[mid][fmt]

    def test_foreign_fingerprint_ignored(self, config, monkeypatch):
        run_set(IDS[:1], FORMATS, config)
        other = dataclasses.replace(config, scale=SCALE / 2)
        log = CheckpointLog(
            config.checkpoint_path, fingerprint(other, TABLE2_CONFIGS)
        )
        assert log.load() == {}
        assert log.skipped == len(FORMATS)

    def test_torn_final_line_tolerated(self, config):
        run_set(IDS[:1], FORMATS, config)
        # Tear the last record mid-write, no trailing newline.
        with open(config.checkpoint_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(config.checkpoint_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 3])

        log = CheckpointLog(
            config.checkpoint_path,
            fingerprint(config, TABLE2_CONFIGS),
        )
        done = log.load()
        assert len(done) == len(FORMATS) - 1
        assert log.skipped == 1

        # Resuming repairs the tail: the recomputed cell is appended on
        # its own line and a fresh load sees every cell exactly once.
        resumed = run_set(IDS[:1], FORMATS, config)
        reloaded = CheckpointLog(
            config.checkpoint_path, fingerprint(config, TABLE2_CONFIGS)
        ).load()
        assert set(reloaded) == {(IDS[0], f) for f in FORMATS}
        fresh = run_set(IDS[:1], FORMATS, ExperimentConfig(scale=SCALE))
        assert _normalize(resumed) == _normalize(fresh)

    def test_wrong_version_ignored(self, config):
        run_set(IDS[:1], FORMATS, config)
        with open(config.checkpoint_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for rec in records:
            rec["v"] = FORMAT_VERSION + 1
        with open(config.checkpoint_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        log = CheckpointLog(
            config.checkpoint_path, fingerprint(config, TABLE2_CONFIGS)
        )
        assert log.load() == {}
        assert log.skipped == len(records)

    def test_v1_layout_skipped(self, config):
        """A line written before the attribution lost its kernel-plan
        counters (layout v1, with ``plan_hits``) is skipped, and the
        resumed run recomputes the cell."""
        run_set(IDS[:1], FORMATS[:1], config)
        with open(config.checkpoint_path, "r", encoding="utf-8") as fh:
            (record,) = [json.loads(line) for line in fh]
        record["v"] = 1
        for attr in record["result"]["attributions"].values():
            attr["plan_hits"] = 3
            attr["plan_misses"] = 1
        with open(config.checkpoint_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        log = CheckpointLog(
            config.checkpoint_path, fingerprint(config, TABLE2_CONFIGS)
        )
        assert log.load() == {}
        assert log.skipped == 1
        resumed = run_set(IDS[:1], FORMATS[:1], config)
        fresh = run_set(IDS[:1], FORMATS[:1], ExperimentConfig(scale=SCALE))
        assert _normalize(resumed) == _normalize(fresh)

    def test_later_line_wins(self, config):
        run_set(IDS[:1], FORMATS, config)
        log = CheckpointLog(
            config.checkpoint_path, fingerprint(config, TABLE2_CONFIGS)
        )
        done = log.load()
        key = (IDS[0], FORMATS[0])
        doctored = dataclasses.replace(done[key], format_name=FORMATS[0])
        times = dict(doctored.times)
        first = next(iter(times))
        times[first] = times[first] * 2
        doctored = dataclasses.replace(doctored, times=times)
        log.append(doctored)
        reloaded = CheckpointLog(
            config.checkpoint_path, fingerprint(config, TABLE2_CONFIGS)
        ).load()
        assert reloaded[key].times[first] == times[first]


class TestCLI:
    def test_resume_flag_wires_checkpoint(self, tmp_path):
        from repro.bench.cli import main as bench_main

        ckpt = tmp_path / "resume.jsonl"
        args = [
            "table2",
            "--scale",
            str(SCALE),
            "--limit",
            "1",
            "--resume",
            str(ckpt),
        ]
        assert bench_main(args) == 0
        lines = ckpt.read_text().strip().splitlines()
        assert lines  # one record per cell was appended
        rec = json.loads(lines[0])
        assert rec["v"] == FORMAT_VERSION
        # Second invocation restores everything from the checkpoint.
        assert bench_main(args) == 0
        assert len(ckpt.read_text().strip().splitlines()) == len(lines)
