"""CLI smoke tests."""

import pytest

from repro.bench.cli import main


class TestCLI:
    def test_table2(self, capsys):
        assert main(["table2", "--scale", "0.015625", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_multiple_experiments(self, capsys):
        assert (
            main(["table3", "table4", "--scale", "0.015625", "--limit", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "Table III" in out and "Table IV" in out

    def test_fig_with_limit(self, capsys):
        assert main(["fig8", "--scale", "0.015625", "--limit", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert (
            main(
                [
                    "table2",
                    "--scale",
                    "0.015625",
                    "--limit",
                    "2",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        assert "Table II" in out_file.read_text()

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["tableX", "--scale", "0.015625"])

    @pytest.mark.parametrize(
        "args",
        [
            ["--limit", "0"],
            ["--limit", "-1"],
            ["--threads", "0"],
            ["--threads", "-2"],
            ["--threads", "9"],
            ["--scale", "0"],
        ],
    )
    def test_out_of_range_is_usage_error(self, args, capsys):
        """Rejected by the parser before any matrix is realized."""
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--scale", "0.015625", *args])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("hz", ["0", "-1", "nan", "inf"])
    def test_stacks_hz_out_of_range_is_usage_error(self, hz, tmp_path, capsys):
        """The profiler rate is checked by the parser, not by a
        traceback from the profiler it would start."""
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "table2",
                    "--scale",
                    "0.015625",
                    "--limit",
                    "1",
                    "--stacks-out",
                    str(tmp_path / "st.txt"),
                    "--stacks-hz",
                    hz,
                ]
            )
        assert exc.value.code == 2
        assert "--stacks-hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--kernel", "cached"],
            ["--backend", "thread"],
            ["--storage", "mem"],
            ["--deadline", "1"],
            ["--degrade"],
        ],
    )
    def test_real_clock_flags_gone(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--scale", "0.015625", "--limit", "1", *args])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTelemetryCLI:
    def test_trace_writes_jsonl(self, tmp_path, capsys):
        from repro.telemetry import core as telemetry
        from repro.telemetry.export import read_jsonl, validate_event

        trace = tmp_path / "t.jsonl"
        rc = main(
            ["table2", "--scale", "0.015625", "--limit", "2", "--trace", str(trace)]
        )
        assert rc == 0
        assert "[telemetry] wrote" in capsys.readouterr().out
        events = read_jsonl(str(trace))
        assert events
        for ev in events:
            validate_event(ev)
        # The CLI scopes its collector: disabled again afterwards.
        assert telemetry.get_collector() is None

    def test_chrome_trace_writes_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        rc = main(
            [
                "table2",
                "--scale",
                "0.015625",
                "--limit",
                "1",
                "--chrome-trace",
                str(trace),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_profile_prints_summary(self, capsys):
        rc = main(["profile", "table2", "--scale", "0.015625", "--limit", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "top spans" in out
        assert "bench.matrix" in out

    def test_profile_without_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["profile"])

class TestReportHTML:
    def test_writes_self_contained_report(self, tmp_path, capsys):
        from html.parser import HTMLParser

        out = tmp_path / "r.html"
        rc = main(
            [
                "report-html",
                "table2",
                "--scale",
                "0.015625",
                "--limit",
                "1",
                "--html",
                str(out),
            ]
        )
        assert rc == 0
        assert "[dashboard] wrote" in capsys.readouterr().out
        text = out.read_text()
        parser = HTMLParser()
        parser.feed(text)  # must not blow up
        assert "Attribution" in text
        assert "<script" not in text and "<link" not in text

    def test_baseline_deltas_section(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        rc = main(
            [
                "table2",
                "--scale",
                "0.015625",
                "--limit",
                "1",
                "--json",
                str(run),
            ]
        )
        assert rc == 0
        out = tmp_path / "r.html"
        rc = main(
            [
                "report-html",
                "table2",
                "--scale",
                "0.015625",
                "--limit",
                "1",
                "--html",
                str(out),
                "--baseline",
                str(run),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert "Baseline deltas" in out.read_text()

    def test_report_html_without_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["report-html"])


class TestProfileTop:
    def test_top_caps_span_rows(self, capsys):
        rc = main(
            ["profile", "table2", "--scale", "0.015625", "--limit", "1", "--top", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "showing 3" in out

    def test_counter_breakdown_grouped(self, capsys):
        rc = main(["profile", "table2", "--scale", "0.015625", "--limit", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        # Base totals with indented per-label lines.
        assert "perf.attribution" in out
        assert "perf.attribution{format=csr" in out


class TestPerfGateDelegation:
    def test_check_schema_through_bench_cli(self, capsys):
        assert main(["perf-gate", "--check-schema"]) == 0
        assert "self-test OK" in capsys.readouterr().out
