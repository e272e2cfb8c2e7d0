"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestScenarios:
    def test_lists_all_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("S1", "S2", "Q1", "Q2", "uniform", "no-ra", "zero-ra"):
            assert name in out


class TestCompare:
    def test_compare_on_s2(self, capsys):
        assert main(["compare", "--scenario", "S2", "--algorithms", "NC,TA"]) == 0
        out = capsys.readouterr().out
        assert "NC" in out and "TA" in out
        assert "% of best" in out

    def test_incapable_algorithms_skipped(self, capsys):
        # TA cannot run without random access; NRA carries the cell.
        assert (
            main(["compare", "--scenario", "no-ra", "--algorithms", "TA,NRA"]) == 0
        )
        out = capsys.readouterr().out
        assert "NRA" in out
        assert "TA " not in out

    def test_unknown_scenario(self, capsys):
        assert main(["compare", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        assert (
            main(["compare", "--scenario", "S1", "--algorithms", "XX"]) == 2
        )
        assert "unknown algorithms" in capsys.readouterr().err

    def test_nothing_runnable(self, capsys):
        assert (
            main(["compare", "--scenario", "no-ra", "--algorithms", "TA"]) == 2
        )
        assert "none of the requested" in capsys.readouterr().err


class TestOptimize:
    def test_optimize_s2(self, capsys):
        assert main(["optimize", "--scenario", "S2", "--scheme", "naive"]) == 0
        out = capsys.readouterr().out
        assert "plan" in out and "Delta" in out
        assert "estimator simulation runs" in out

    def test_unknown_scheme(self, capsys):
        assert main(["optimize", "--scenario", "S1", "--scheme", "magic"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestQuery:
    def test_end_to_end(self, capsys):
        code = main(
            [
                "query",
                "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3",
                "--n",
                "200",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "min(a, b)" in out
        assert "total access cost" in out
        assert out.count("\n") > 5  # the ranking table printed

    def test_malformed_query(self, capsys):
        assert main(["query", "SELECT FROM"]) == 2
        assert "error" in capsys.readouterr().err


class TestFaultFlags:
    def test_compare_under_faults_stays_correct_and_shows_retries(self, capsys):
        code = main(
            [
                "compare",
                "--scenario",
                "S1",
                "--algorithms",
                "TA,NRA",
                "--fault-rate",
                "0.1",
                "--retry-max",
                "6",
                "--fault-seed",
                "2",
            ]
        )
        assert code == 0  # exit 0 means every answer verified correct
        out = capsys.readouterr().out
        assert "retries" in out
        assert "transient rate 0.1" in out
        assert "NO" not in out

    def test_compare_without_faults_has_no_retry_column(self, capsys):
        assert main(["compare", "--scenario", "S1", "--algorithms", "TA"]) == 0
        out = capsys.readouterr().out
        assert "retries" not in out
        assert "faults:" not in out

    def test_query_reports_fault_accounting(self, capsys):
        code = main(
            [
                "query",
                "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3",
                "--n",
                "150",
                "--fault-rate",
                "0.2",
                "--retry-max",
                "8",
                "--fault-seed",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "retries]" in out
        assert "faults" in out

    def test_fault_run_matches_fault_free_answer(self, capsys):
        query = ["query", "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3",
                 "--n", "150", "--seed", "9"]
        assert main(query) == 0
        clean = capsys.readouterr().out
        assert main(query + ["--fault-rate", "0.1", "--retry-max", "6"]) == 0
        chaos = capsys.readouterr().out
        # Same ranking table lines; only the cost line differs.
        clean_table = [l for l in clean.splitlines() if l.strip().startswith(("1", "2", "3"))]
        chaos_table = [l for l in chaos.splitlines() if l.strip().startswith(("1", "2", "3"))]
        assert clean_table == chaos_table

    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["compare", "--scenario", "S1"])
        assert args.fault_rate == 0.0
        assert args.retry_max == 5
        assert args.timeout is None
        assert args.fault_seed == 0


class TestBadNumericFlags:
    """Invalid numeric flags fail fast with a one-line error, exit 2."""

    QUERY = ["query", "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (QUERY + ["--n", "0"], "at least one object"),
            (["serve", "--n", "0"], "at least one object"),
            (QUERY + ["--cr", "-1"], "cr[0] must be >= 0"),
            (QUERY + ["--cs", "-1"], "cs[0] must be >= 0"),
            (["serve", "--cr", "-1"], "cr[0] must be >= 0"),
            (
                ["optimize", "--scenario", "S1", "--sample-size", "0"],
                "sample_size must be >= 1",
            ),
        ],
        ids=[
            "query-n",
            "serve-n",
            "query-cr",
            "query-cs",
            "serve-cr",
            "optimize-sample-size",
        ],
    )
    def test_rejected_with_one_line_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compare", "--scenario", "S1"])
        assert args.algorithms == "NC,TA,CA,NRA"


class TestObservability:
    QUERY = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3"

    def test_query_writes_trace_and_metrics(self, capsys, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        code = main(
            [
                "query",
                self.QUERY,
                "--n",
                "120",
                "--fault-rate",
                "0.1",
                "--trace",
                trace_path,
                "--metrics-out",
                metrics_path,
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "metrics snapshot ->" in err

        import json as _json

        from repro.obs import read_trace

        events = read_trace(trace_path)
        accesses = [e for e in events if e["event"] == "access"]
        assert accesses, "trace must narrate charged accesses"
        snapshot = _json.loads(open(metrics_path).read())
        assert snapshot["counters"]
        # The written artifacts reconcile with each other.
        total = sum(
            v
            for k, v in snapshot["counters"].items()
            if k.startswith("repro_accesses_total")
        )
        assert total == len(accesses)

    def test_metrics_prom_extension_renders_prometheus(self, tmp_path):
        metrics_path = str(tmp_path / "metrics.prom")
        assert (
            main(
                ["query", self.QUERY, "--n", "80", "--metrics-out", metrics_path]
            )
            == 0
        )
        text = open(metrics_path).read()
        assert "# TYPE repro_accesses_total counter" in text

    def test_trace_subcommand_renders_timeline(self, capsys, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        assert (
            main(["query", self.QUERY, "--n", "80", "--trace", trace_path]) == 0
        )
        capsys.readouterr()
        assert main(["trace", trace_path, "--width", "32"]) == 0
        out = capsys.readouterr().out
        assert "p0 |" in out and "legend:" in out

    def test_trace_subcommand_rejects_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_trace_subcommand_rejects_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "access", "tick": 1}\n{nope\n')
        assert main(["trace", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_obs_flag_defaults(self):
        args = build_parser().parse_args(["query", self.QUERY])
        assert args.trace is None
        assert args.metrics_out is None
