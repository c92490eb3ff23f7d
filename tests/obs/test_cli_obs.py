"""The CLI observability surface: --metrics-json, --trace-ndjson,
--progress and the ``repro report`` subcommand."""

import json

import pytest

from repro.cli import STATS_SCHEMA_VERSION, main

SWEEP = ["sweep", "--protocol", "two-phase-commit", "--times", "0.5", "1.5"]


def load(path):
    return json.loads(path.read_text())


class TestMetricsJson:
    def test_sweep_writes_a_versioned_metrics_document(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(SWEEP + ["--metrics-json", str(out)]) == 0
        document = load(out)
        assert document["command"] == "sweep"
        assert document["schema_version"] == STATS_SCHEMA_VERSION
        assert document["total"] == 6
        counters = document["metrics"]["counters"]
        assert counters["engine.tasks.total"] == 6
        assert counters["engine.tasks.executed"] == 6
        assert counters["sim.events_executed"] > 0

    def test_throughput_reports_txn_instruments(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "throughput",
                    "--protocols",
                    "two-phase-commit",
                    "--transactions",
                    "20",
                    "--metrics-json",
                    str(out),
                ]
            )
            == 0
        )
        metrics = load(out)["metrics"]
        assert metrics["counters"]["txn.offered"] == 20
        assert metrics["histograms"]["txn.lock_wait_simtime"]["count"] == 20
        assert "txn.retry_backlog_peak" in metrics["gauges"]

    def test_modelcheck_reports_state_instruments(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "modelcheck",
                    "--protocol",
                    "two-phase-commit",
                    "--sites",
                    "2",
                    "--metrics-json",
                    str(out),
                ]
            )
            == 0
        )
        metrics = load(out)["metrics"]
        assert metrics["counters"]["modelcheck.checks"] > 0
        assert metrics["counters"]["modelcheck.states_explored"] > 0
        assert "modelcheck.frontier_depth" in metrics["gauges"]

    def test_shard_and_merge_report_skew(self, capsys, tmp_path):
        log = tmp_path / "log"
        for index in range(2):
            shard_metrics = tmp_path / f"shard-{index}-metrics.json"
            assert (
                main(
                    [
                        "shard",
                        "--shard-index",
                        str(index),
                        "--shard-count",
                        "2",
                        "--log",
                        str(log),
                        "--protocol",
                        "two-phase-commit",
                        "--times",
                        "0.5",
                        "1.5",
                        "--metrics-json",
                        str(shard_metrics),
                    ]
                )
                == 0
            )
            metrics = load(shard_metrics)["metrics"]
            assert metrics["counters"]["resultlog.records.appended"] > 0
            assert metrics["gauges"]["shard.skew"] > 0
        merge_metrics = tmp_path / "merge-metrics.json"
        assert (
            main(
                ["merge", "--log", str(log), "--metrics-json", str(merge_metrics)]
            )
            == 0
        )
        document = load(merge_metrics)
        assert document["command"] == "merge"
        metrics = document["metrics"]
        assert metrics["counters"]["merge.shards"] == 2
        assert metrics["counters"]["merge.records"] == 6
        assert metrics["histograms"]["merge.records_per_shard"]["count"] >= 1
        assert metrics["gauges"]["merge.skew"] >= 1.0


class TestTraceNdjson:
    def test_sweep_writes_spans(self, capsys, tmp_path):
        trace = tmp_path / "trace.ndjson"
        assert main(SWEEP + ["--trace-ndjson", str(trace)]) == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(record["span"] == "cache-scan" for record in records)
        for record in records:
            assert record["duration"] >= 0


class TestProgress:
    def test_progress_paints_stderr_only(self, capsys):
        assert main(SWEEP + ["--progress"]) == 0
        captured = capsys.readouterr()
        assert "6/6" in captured.err
        assert "\r" not in captured.out


class TestReportCommand:
    def test_renders_a_metrics_document(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(SWEEP + ["--metrics-json", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "phase breakdown" in text
        assert "counters" in text

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "report failed" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["report", str(bad)]) == 2
        assert "report failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, named",
        [
            ("[1, 2]", "expected a JSON object"),
            ('{"metrics": 3}', '"metrics" is not a JSON object'),
            ('{"histograms": {"x_seconds": {"count": 1}}}', 'histogram "x_seconds" has no numeric "total"'),
            ('{"counters": {"engine.tasks.total": "many"}}', 'counter "engine.tasks.total" is not a number'),
            ('{"elapsed": "1s", "metrics": {}}', '"elapsed" is not a number'),
        ],
    )
    def test_malformed_document_is_exit_2_naming_file_and_field(
        self, capsys, tmp_path, payload, named
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["report", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()  # one line, never a traceback
        assert f"report failed: {bad} is not a metrics document" in line
        assert named in line


class TestStatsSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            SWEEP,
            ["throughput", "--protocols", "two-phase-commit", "--transactions", "10"],
            ["modelcheck", "--protocol", "two-phase-commit", "--sites", "2"],
        ],
        ids=["sweep", "throughput", "modelcheck"],
    )
    def test_stats_json_carries_the_schema_version(self, capsys, tmp_path, argv):
        stats_path = tmp_path / "stats.json"
        assert main(argv + ["--stats-json", str(stats_path)]) == 0
        stats = load(stats_path)
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["command"] == argv[0]

    def test_shard_and_merge_stats_share_the_schema_version(
        self, capsys, tmp_path
    ):
        log = tmp_path / "log"
        shard_stats = tmp_path / "shard-stats.json"
        assert (
            main(
                [
                    "shard",
                    "--shard-index",
                    "0",
                    "--shard-count",
                    "1",
                    "--log",
                    str(log),
                    "--protocol",
                    "two-phase-commit",
                    "--times",
                    "0.5",
                    "--stats-json",
                    str(shard_stats),
                ]
            )
            == 0
        )
        merge_stats = tmp_path / "merge-stats.json"
        assert (
            main(["merge", "--log", str(log), "--stats-json", str(merge_stats)]) == 0
        )
        assert load(shard_stats)["schema_version"] == STATS_SCHEMA_VERSION
        assert load(merge_stats)["schema_version"] == STATS_SCHEMA_VERSION
        assert load(merge_stats)["command"] == "merge"

    def test_experiments_run_accepts_obs_flags(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        trace = tmp_path / "trace.ndjson"
        assert (
            main(
                [
                    "run",
                    "FIG1",
                    "--metrics-json",
                    str(out),
                    "--trace-ndjson",
                    str(trace),
                ]
            )
            == 0
        )
        document = load(out)
        assert document["command"] == "run"
        assert document["metrics"]["counters"]["sim.events_executed"] > 0
        spans = [json.loads(line)["span"] for line in trace.read_text().splitlines()]
        assert "FIG1" in spans
