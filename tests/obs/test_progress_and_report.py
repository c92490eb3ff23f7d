"""The --progress stderr line, the table renderer and ``repro report``."""

import io

from repro.obs.metrics import MetricsRegistry, SIM_TIME_BUCKETS
from repro.obs.progress import ProgressLine
from repro.obs.report import (
    distribution_rows,
    format_table,
    phase_rows,
    render_metrics_document,
    worker_rows,
)


class TestProgressLine:
    def test_paints_rate_hits_and_eta(self):
        stream = io.StringIO()
        line = ProgressLine(10, label="sweep", stream=stream)
        line.update(5, executed=3, cache_hits=2, force=True)
        line.close()
        out = stream.getvalue()
        assert "\r" in out
        assert "sweep: 5/10" in out
        assert "cache 40%" in out
        assert out.endswith("\n")

    def test_throttles_repaints_but_always_paints_completion(self):
        stream = io.StringIO()
        line = ProgressLine(100, stream=stream)
        line.update(1, force=True)
        painted = stream.getvalue()
        line.update(2)  # within min_interval: dropped
        assert stream.getvalue() == painted
        line.update(100)  # done == total always paints
        assert "100/100" in stream.getvalue()

    def test_close_without_paint_writes_nothing(self):
        stream = io.StringIO()
        ProgressLine(10, stream=stream).close()
        assert stream.getvalue() == ""


class TestFormatTable:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "bb": "xx"}, {"a": 22, "bb": "y"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([], title="nothing") == "nothing"
        assert format_table([]) == "(no rows)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text
        assert "a" not in text.splitlines()[0]


def sample_snapshot():
    registry = MetricsRegistry()
    registry.counter("engine.tasks.total").inc(96)
    registry.counter("engine.worker.w0.tasks").inc(48)
    registry.counter("engine.worker.w1.tasks").inc(48)
    registry.gauge("engine.worker.w0.utilization").set(0.5)
    registry.gauge("engine.worker.w1.utilization").set(0.75)
    registry.gauge("engine.dispatch_overhead_share").set(0.375)
    hist = registry.histogram("engine.task.execute_seconds")
    for value in (0.001, 0.002, 0.004):
        hist.observe(value)
    wait = registry.histogram("txn.lock_wait_simtime", bounds=SIM_TIME_BUCKETS)
    wait.observe(2.0)
    return registry.snapshot()


class TestReportRows:
    def test_phase_rows_pick_only_seconds_histograms(self):
        rows = phase_rows(sample_snapshot(), elapsed=0.014)
        assert [row["phase"] for row in rows] == ["engine.task.execute"]
        (row,) = rows
        assert row["count"] == 3
        assert row["share"] == "50.0%"

    def test_distribution_rows_pick_the_rest(self):
        rows = distribution_rows(sample_snapshot())
        assert [row["distribution"] for row in rows] == ["txn.lock_wait_simtime"]
        assert rows[0]["total"] == 2.0

    def test_worker_rows_join_counters_and_gauges(self):
        rows = worker_rows(sample_snapshot())
        assert [row["worker"] for row in rows] == ["w0", "w1"]
        assert rows[0]["tasks"] == 48
        assert rows[1]["utilization"] == "75.0%"


class TestRenderDocument:
    def test_full_document_renders_every_section(self):
        document = {
            "command": "sweep",
            "schema_version": 1,
            "total": 96,
            "workers": 2,
            "elapsed": 0.014,
            "metrics": sample_snapshot(),
        }
        text = render_metrics_document(document)
        assert "run" in text
        assert "phase breakdown" in text
        assert "distributions" in text
        assert "dispatch overhead share 37.5%" in text
        assert "counters" in text
        # Worker-prefixed names are folded into the worker table, not
        # repeated in the counter/gauge listings.
        assert "engine.worker.w0.tasks" not in text

    def test_bare_snapshot_is_accepted(self):
        text = render_metrics_document(sample_snapshot())
        assert "counters" in text

    def test_empty_document_has_a_placeholder(self):
        assert render_metrics_document({}) == "(empty metrics document)"
