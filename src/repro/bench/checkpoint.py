"""Checkpoint/resume for long benchmark sweeps.

A full-scale ``run_set`` walks 77 matrices; a crash at matrix 60 used
to lose everything.  :class:`CheckpointLog` is an append-only JSONL
file with one line per finished ``(matrix_id, format)`` cell — each
line a fully serialized :class:`~repro.bench.harness.MatrixResult` —
written the moment the cell completes.  On resume, completed cells are
restored and skipped; a matrix whose every requested format is
checkpointed is not even realized.

Byte-equivalence contract: a resumed run's recorded bundle
(:func:`repro.bench.record.record_run`) is byte-identical to an
uninterrupted run's.  Two properties make that hold:

* :class:`MatrixResult` and :class:`~repro.perf.attribution.
  Attribution` are flat dataclasses of Python scalars, and Python
  floats round-trip exactly through JSON (``repr``-based), so
  serialize → restore is lossless;
* cells are appended *before* ``run_set`` fills the speedup-vs-CSR
  column (which needs the whole matrix done), and the fill is
  re-applied identically on restore.

Each line carries a configuration fingerprint (scale, machine, thread
configs).  Lines whose fingerprint does not match the resuming run — or
that fail to parse, e.g. a torn final write from the crash itself — are
skipped, not fatal: a checkpoint is a cache, never an authority.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.bench.harness import ExperimentConfig, MatrixResult
from repro.formats.base import Storage
from repro.perf.attribution import Attribution

#: Bumped if the line layout ever changes; mismatched lines are skipped.
FORMAT_VERSION = 1


def fingerprint(
    config: ExperimentConfig, configs: tuple[tuple[int, str], ...]
) -> str:
    """Stable identity of a run's knobs; resume only within a match."""
    return json.dumps(
        {
            "scale": config.scale,
            "machine": config.scaled_machine().name,
            "configs": ["{0}|{1}".format(*key) for key in configs],
        },
        sort_keys=True,
    )


def _key_str(key: tuple[int, str]) -> str:
    return f"{key[0]}|{key[1]}"


def _key_tuple(s: str) -> tuple[int, str]:
    threads, placement = s.split("|", 1)
    return (int(threads), placement)


def result_to_json(res: MatrixResult) -> dict:
    """A :class:`MatrixResult` as plain JSON types (lossless)."""
    return {
        "matrix_id": res.matrix_id,
        "format_name": res.format_name,
        "storage": dataclasses.asdict(res.storage),
        "csr_storage": dataclasses.asdict(res.csr_storage),
        "times": {_key_str(k): v for k, v in res.times.items()},
        "mflops": {_key_str(k): v for k, v in res.mflops.items()},
        "bounds": {_key_str(k): v for k, v in res.bounds.items()},
        "attributions": {
            _key_str(k): dataclasses.asdict(a)
            for k, a in res.attributions.items()
        },
    }


def result_from_json(data: dict) -> MatrixResult:
    """Inverse of :func:`result_to_json`."""
    return MatrixResult(
        matrix_id=data["matrix_id"],
        format_name=data["format_name"],
        storage=Storage(**data["storage"]),
        csr_storage=Storage(**data["csr_storage"]),
        times={_key_tuple(k): v for k, v in data["times"].items()},
        mflops={_key_tuple(k): v for k, v in data["mflops"].items()},
        bounds={_key_tuple(k): v for k, v in data["bounds"].items()},
        attributions={
            _key_tuple(k): Attribution(**a)
            for k, a in data["attributions"].items()
        },
    )


class CheckpointLog:
    """Append-only JSONL checkpoint of finished bench cells."""

    def __init__(self, path, fingerprint_str: str):
        self.path = os.fspath(path)
        self.fingerprint = fingerprint_str
        #: Lines present but not usable by this run (diagnostics).
        self.skipped = 0
        self._checked_tail = False

    def load(self) -> dict[tuple[int, str], MatrixResult]:
        """Restore every usable cell: ``{(matrix_id, format): result}``.

        Unreadable or foreign lines (torn final write, different
        fingerprint/version) are counted in :attr:`skipped` and
        ignored.  A later line for the same cell wins, so a cell
        re-run after a partial resume supersedes its older record.
        """
        done: dict[tuple[int, str], MatrixResult] = {}
        if not os.path.exists(self.path):
            return done
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if (
                        record.get("v") != FORMAT_VERSION
                        or record.get("fp") != self.fingerprint
                    ):
                        self.skipped += 1
                        continue
                    result = result_from_json(record["result"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self.skipped += 1
                    continue
                done[(result.matrix_id, result.format_name)] = result
        return done

    def append(self, result: MatrixResult) -> None:
        """Persist one finished cell (flushed before returning).

        Called *before* the speedup-vs-CSR fill, so the stored record
        is deterministic regardless of where in the matrix loop the
        run later dies.
        """
        record = {
            "v": FORMAT_VERSION,
            "fp": self.fingerprint,
            "result": result_to_json(result),
        }
        if not self._checked_tail:
            # A torn final write from the crashed run may lack its
            # newline; appending straight after it would weld this
            # record onto the garbage and lose it.  Terminate the torn
            # line once before the first append of this run.
            self._checked_tail = True
            try:
                with open(self.path, "rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    torn = fh.read(1) != b"\n"
            except (OSError, ValueError):
                torn = False
            if torn:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("\n")
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
