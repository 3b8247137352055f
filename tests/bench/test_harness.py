"""Tests for the experiment harness."""

import dataclasses

import pytest

from repro.bench.harness import (
    SPEEDUP_THREADS,
    TABLE2_CONFIGS,
    ExperimentConfig,
    aggregate,
    count_slowdowns,
    run_format_matrix,
    run_set,
)
from repro.errors import MachineModelError, ReproError
from repro.matrices.collection import realize

SCALE = 1 / 64


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=SCALE)


@pytest.fixture(scope="module")
def matrix():
    return realize(47, scale=SCALE)


class TestRunFormatMatrix:
    def test_model_clock(self, matrix, config):
        res = run_format_matrix(matrix, "csr", config, matrix_id=47)
        assert res.matrix_id == 47
        assert set(res.times) == set(TABLE2_CONFIGS)
        assert all(t > 0 for t in res.times.values())
        assert all(b in ("compute", "core-bw", "die-bw", "l2-bw", "fsb", "mem")
                   for b in res.bounds.values())

    def test_size_reduction_sign(self, matrix, config):
        du = run_format_matrix(matrix, "csr-du", config)
        assert 0.0 < du.size_reduction < 0.5
        csr = run_format_matrix(matrix, "csr", config)
        assert csr.size_reduction == 0.0

    def test_speedup_vs(self, matrix, config):
        csr = run_format_matrix(matrix, "csr", config)
        vi = run_format_matrix(matrix, "csr-vi", config)
        key = (8, "close")
        sp = vi.speedup_vs(csr, key)
        assert sp == pytest.approx(csr.times[key] / vi.times[key])

    def test_scaling(self, matrix, config):
        csr = run_format_matrix(matrix, "csr", config)
        assert csr.scaling((1, "close")) == 1.0
        assert csr.scaling((8, "close")) > 0.5

    @pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"])
    def test_one_census_per_configuration(self, matrix, config, fmt, monkeypatch):
        """The attribution folds the simulation's census instead of
        running its own: one analyze_threads call per configuration."""
        calls = _count_calls(monkeypatch)
        run_format_matrix(matrix, fmt, config, configs=TABLE2_CONFIGS)
        assert calls["analyze_threads"] == len(TABLE2_CONFIGS)

    def test_unpriceable_format_is_a_typed_error(self, matrix, config):
        """The traffic model has no COO layout: the cell fails with a
        MachineModelError naming the format, not a bare error."""
        with pytest.raises(MachineModelError, match="COOMatrix"):
            run_format_matrix(matrix, "coo", config, configs=((1, "close"),))


class TestRunSet:
    def test_structure(self, config):
        out = run_set((41, 47), ("csr", "csr-vi"), config)
        assert set(out) == {41, 47}
        assert set(out[41]) == {"csr", "csr-vi"}

    def test_speedup_threads_constant(self):
        assert SPEEDUP_THREADS == (1, 2, 4, 8)

    def test_csr_baseline_converted_once_per_matrix(self, config, monkeypatch):
        """run_set encodes CSR once; the csr cell is a cache hit."""
        import repro.formats.conversions as conv_mod

        real_convert = conv_mod.convert
        csr_targets = []

        def counting_convert(matrix, name, **kwargs):
            if name == "csr":
                csr_targets.append(name)
            return real_convert(matrix, name, **kwargs)

        monkeypatch.setattr(conv_mod, "convert", counting_convert)
        out = run_set((47,), ("csr", "csr-du", "csr-vi"), config)
        # The per-matrix conversion cache serves the "csr" cell from the
        # baseline's entry, so the underlying conversion runs once (the
        # pre-cache code converted twice, and the pre-PR-1 code once per
        # cell).
        assert csr_targets.count("csr") == 1
        assert out[47]["csr-du"].csr_storage == out[47]["csr"].storage

    def test_explicit_csr_storage_is_used(self, matrix, config):
        baseline = run_format_matrix(matrix, "csr", config).storage
        res = run_format_matrix(
            matrix, "csr-du", config, csr_storage=baseline
        )
        assert res.csr_storage == baseline
        assert res.size_reduction > 0.0


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count realize/convert/get_plan/analyze_threads calls, wherever the
    pipeline binds them."""
    import repro.bench.harness as harness_mod
    import repro.formats.conversions as conv_mod
    import repro.formats.csr as csr_mod
    import repro.formats.csr_du as csr_du_mod
    import repro.formats.csr_du_vi as csr_du_vi_mod
    import repro.formats.csr_vi as csr_vi_mod
    import repro.kernels.plan as plan_mod
    import repro.machine.simulate as simulate_mod
    import repro.machine.traffic as traffic_mod
    import repro.perf.bytes as bytes_mod

    calls = {"realize": 0, "convert": 0, "get_plan": 0, "analyze_threads": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    bindings = {
        "realize": (harness_mod,),
        "convert": (conv_mod, harness_mod),
        "get_plan": (plan_mod, csr_mod, csr_du_mod, csr_vi_mod, csr_du_vi_mod),
        "analyze_threads": (traffic_mod, simulate_mod, bytes_mod),
    }
    for name, modules in bindings.items():
        wrapped = counting(name, getattr(modules[0], name))
        for mod in modules:
            monkeypatch.setattr(mod, name, wrapped)
    return calls


class TestTracingAddsNoWork:
    def test_traced_table3_does_the_same_work(self, monkeypatch):
        """A collector only records: same calls, same results, and the
        same attributions except the wall-clock setup time."""
        import repro.bench.experiments as experiments
        from repro.telemetry import core as telemetry

        def run(traced):
            captured = []
            real_run_set = experiments.run_set

            def capturing_run_set(*args, **kwargs):
                captured.append(real_run_set(*args, **kwargs))
                return captured[-1]

            with monkeypatch.context() as mp:
                calls = _count_calls(mp)
                mp.setattr(experiments, "run_set", capturing_run_set)
                prev = telemetry.set_collector(
                    telemetry.Collector() if traced else None
                )
                try:
                    experiments.table3(ExperimentConfig(scale=SCALE), limit=1)
                finally:
                    telemetry.set_collector(prev)
            (results,) = captured
            return calls, results

        untraced_calls, untraced = run(traced=False)
        traced_calls, traced = run(traced=True)
        assert traced_calls == untraced_calls
        assert untraced_calls["get_plan"] > 0
        assert set(traced) == set(untraced)
        for mid, per_fmt in untraced.items():
            assert set(traced[mid]) == set(per_fmt) == {"csr", "csr-du"}
            for fmt, want in per_fmt.items():
                got = traced[mid][fmt]
                assert got.times == want.times
                assert got.mflops == want.mflops
                assert got.bounds == want.bounds
                assert got.storage == want.storage
                assert got.csr_storage == want.csr_storage
                assert set(got.attributions) == set(want.attributions)
                for key, att in want.attributions.items():
                    assert dataclasses.replace(
                        got.attributions[key], setup_s=0.0
                    ) == dataclasses.replace(att, setup_s=0.0)


class TestAggregation:
    def test_aggregate(self):
        assert aggregate([1.0, 2.0, 3.0]) == (2.0, 3.0, 1.0)

    def test_aggregate_empty(self):
        with pytest.raises(ReproError):
            aggregate([])

    def test_count_slowdowns(self):
        """The paper's < 0.98 criterion for 'non-negligible slowdown'."""
        assert count_slowdowns([1.1, 0.979, 0.98, 0.5]) == 2
