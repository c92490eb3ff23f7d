"""The CLI observability surface: --metrics-json, --progress and the
``repro report`` subcommand."""

import json

import pytest

from repro.cli import STATS_SCHEMA_VERSION, main

SWEEP = ["sweep", "--protocol", "two-phase-commit", "--times", "0.5", "1.5"]


VERBS = [
    ["run", "FIG1"],
    ["all"],
    ["boundaries"],
    ["sweep"],
    ["throughput"],
    ["modelcheck"],
    ["shard", "--shard-index", "0", "--shard-count", "1", "--log", "LOG"],
    ["merge", "--log", "LOG"],
]


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
        # A serial sweep scans the cache once and dispatches nothing.
        histograms = document["metrics"]["histograms"]
        assert histograms["engine.cache_scan_seconds"]["count"] == 1
        assert "engine.dispatch_seconds" not in histograms

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_rows_sum_to_the_run_counts(self, capsys, tmp_path, workers):
        out = tmp_path / "metrics.json"
        argv = SWEEP + ["--workers", str(workers), "--metrics-json", str(out)]
        assert main(argv) == 0
        counters = load(out)["metrics"]["counters"]

        def worker_sum(quantity):
            return sum(
                value
                for name, value in counters.items()
                if name.startswith("engine.worker.w") and name.endswith(quantity)
            )

        assert worker_sum(".chunks") == counters["engine.chunks"] > 0
        assert worker_sum(".tasks") == counters["engine.tasks.executed"] == 6

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


class TestPhaseHistograms:
    """Phase timings are ``*_seconds`` histograms in the metrics document."""

    def test_parallel_sweep_times_the_cache_scan_and_the_dispatch(
        self, capsys, tmp_path
    ):
        out = tmp_path / "metrics.json"
        argv = SWEEP + ["--workers", "2", "--metrics-json", str(out)]
        assert main(argv) == 0
        histograms = load(out)["metrics"]["histograms"]
        assert histograms["engine.cache_scan_seconds"]["count"] == 1
        assert histograms["engine.dispatch_seconds"]["count"] == 1
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "engine.cache_scan " in text
        assert "engine.dispatch " in text

    @pytest.mark.parametrize(
        "argv, flag",
        [pytest.param(argv, "--trace-ndjson", id=argv[0]) for argv in VERBS]
        # The five verbs that wrote a second run document before the
        # metrics document became the only one.
        + [
            pytest.param(argv, "--stats-json", id=f"{argv[0]}-stats-json")
            for argv in VERBS[3:]
        ],
    )
    def test_no_verb_takes_trace_ndjson(self, capsys, tmp_path, argv, flag):
        argv = [str(tmp_path / "log") if arg == "LOG" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, str(tmp_path / "out.json")])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


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

    @pytest.mark.parametrize("text", ["not json", ""], ids=["garbage", "empty-file"])
    def test_invalid_json_is_exit_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["report", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"report failed: {bad} is not JSON (Expecting value")

    @pytest.mark.parametrize(
        "payload, named",
        [
            ("[1, 2]", "expected a JSON object"),
            ("{}", 'no "metrics" object, and not a bare snapshot'),
            ('{"metrics": 3}', '"metrics" is not a JSON object'),
            ('{"schema": 1, "histograms": {"x_seconds": {"count": 1}}}', 'histogram "x_seconds" has no numeric "total"'),
            ('{"schema": 1, "counters": {"engine.tasks.total": "many"}}', 'counter "engine.tasks.total" is not a number'),
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
        # The run's statistics live in its one JSON document, --metrics-json.
        out = tmp_path / "metrics.json"
        assert main(argv + ["--metrics-json", str(out)]) == 0
        document = load(out)
        assert document["schema_version"] == STATS_SCHEMA_VERSION
        assert document["command"] == argv[0]
        assert document["workers"] == 1
        counters = document["metrics"]["counters"]
        assert counters["engine.tasks.executed"] == document["total"] > 0
        assert counters["engine.tasks.cache_hits"] == 0
        assert counters["engine.chunks"] == document["total"]

    def test_shard_and_merge_stats_share_the_schema_version(
        self, capsys, tmp_path
    ):
        log = tmp_path / "log"
        shard_metrics = tmp_path / "shard-metrics.json"
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
                    "--metrics-json",
                    str(shard_metrics),
                ]
            )
            == 0
        )
        merge_metrics = tmp_path / "merge-metrics.json"
        assert (
            main(["merge", "--log", str(log), "--metrics-json", str(merge_metrics)])
            == 0
        )
        shard = load(shard_metrics)
        assert shard["schema_version"] == STATS_SCHEMA_VERSION
        assert shard["command"] == "shard"
        assert (shard["kind"], shard["shard_index"], shard["shard_count"]) == (
            "sweep",
            0,
            1,
        )
        assert shard["total_tasks"] == shard["total"] == 3
        counters = shard["metrics"]["counters"]
        assert counters["resultlog.resume.skipped"] == 0
        assert counters["resultlog.records.appended"] == 3
        assert counters["resultlog.segments.sealed"] == 1
        merge = load(merge_metrics)
        assert merge["schema_version"] == STATS_SCHEMA_VERSION
        assert merge["command"] == "merge"
        assert (merge["shard_count"], merge["kinds"]) == (1, ["scenario"])
        assert merge["total_tasks"] == merge["total"] == 3
        metrics = merge["metrics"]
        assert metrics["counters"]["merge.shards"] == 1
        assert metrics["counters"]["resultlog.records.deduped"] == 0
        assert metrics["histograms"]["merge.read_seconds"]["count"] == 1
        # The run table shows every header field.
        for document, fields in (
            (shard_metrics, ("kind", "shard_index", "shard_count", "total_tasks")),
            (merge_metrics, ("shard_count", "total_tasks", "kinds")),
        ):
            capsys.readouterr()
            assert main(["report", str(document)]) == 0
            run_table = capsys.readouterr().out.split("\n\n")[0]
            assert run_table.startswith("run\n")
            for field in fields:
                assert field in run_table

    def test_experiments_run_accepts_obs_flags(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["run", "FIG1", "--metrics-json", str(out)]) == 0
        document = load(out)
        assert document["command"] == "run"
        assert document["elapsed"] > 0
        metrics = document["metrics"]
        assert metrics["counters"]["sim.events_executed"] > 0
        assert metrics["histograms"]["experiment.FIG1_seconds"]["count"] == 1
