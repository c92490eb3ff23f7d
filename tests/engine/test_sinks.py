"""Unit tests for the streaming aggregation sinks."""

import pytest

from repro.analysis.atomicity import summarize_runs
from repro.analysis.blocking import blocking_report
from repro.engine import (
    AtomicitySink,
    BlockingSink,
    CallbackSink,
    DecisionTimeHistogramSink,
    JsonlSink,
    ListSink,
    ScenarioGrid,
    SweepEngine,
    VerdictCounterSink,
    ViolationCollectorSink,
    read_jsonl,
)
from repro.protocols.runner import RunSummary, ScenarioSpec
from repro.sim.partition import PartitionSchedule


@pytest.fixture(scope="module")
def mixed_grid():
    """Consistent, blocked and violating runs in one grid."""
    return ScenarioGrid(
        protocols=(
            "terminating-three-phase-commit",
            "two-phase-commit",
            "naive-extended-three-phase-commit",
        ),
        n_sites=3,
        partitions=(
            None,
            PartitionSchedule.simple(1.5, [1], [2, 3]),
            PartitionSchedule.simple(2.25, [1, 2], [3]),
        ),
    )


@pytest.fixture(scope="module")
def summaries(mixed_grid):
    return SweepEngine(workers=1).run(mixed_grid).summaries


def feed(sink, summaries):
    for index, summary in enumerate(summaries):
        sink.accept(index, summary)
    sink.close()
    return sink


class TestVerdictCounterSink:
    def test_counts_match_materialized_run(self, summaries):
        sink = feed(VerdictCounterSink(), summaries)
        for row in sink.rows():
            batch = [s for s in summaries if s.protocol == row["protocol"]]
            assert row["scenarios"] == len(batch)
            assert row["violations"] == sum(1 for s in batch if s.atomicity_violated)
            assert row["blocked"] == sum(1 for s in batch if s.blocked)
            assert row["committed"] == sum(1 for s in batch if s.all_committed)
            assert row["aborted"] == sum(1 for s in batch if s.all_aborted)

    def test_naive_protocol_is_not_resilient(self, summaries):
        sink = feed(VerdictCounterSink(), summaries)
        verdicts = {row["protocol"]: row["resilient"] for row in sink.rows()}
        assert verdicts["terminating-three-phase-commit"] == "yes"
        assert verdicts["two-phase-commit"] == "NO"
        assert verdicts["naive-extended-three-phase-commit"] == "NO"

    def test_violated_and_blocked_run_counts_once(self):
        run = RunSummary(
            protocol="p",
            spec_hash="",
            seed=0,
            n_sites=3,
            decisions={1: "commit", 2: "abort", 3: None},
        )
        (row,) = feed(VerdictCounterSink(), [run]).rows()
        assert (row["scenarios"], row["violations"], row["blocked"]) == (1, 1, 0)
        assert row["resilient"] == "NO"

    def test_rows_preserve_first_seen_order(self, summaries):
        sink = feed(VerdictCounterSink(), summaries)
        assert [row["protocol"] for row in sink.rows()] == [
            "terminating-three-phase-commit",
            "two-phase-commit",
            "naive-extended-three-phase-commit",
        ]


class TestDecisionTimeHistogramSink:
    def test_counts_decided_and_undecided_runs(self, summaries):
        sink = feed(DecisionTimeHistogramSink(bin_width=0.5), summaries)
        for protocol in {s.protocol for s in summaries}:
            batch = [s for s in summaries if s.protocol == protocol]
            decided = [
                s for s in batch
                if s.max_decision_latency() is not None and not s.blocked
            ]
            histogram = sink.histogram(protocol)
            assert sum(count for _, _, count in histogram) == len(decided)
            assert sink.undecided.get(protocol, 0) == len(batch) - len(decided)

    def test_worst_bin_covers_worst_latency(self, summaries):
        sink = feed(DecisionTimeHistogramSink(bin_width=0.25), summaries)
        terminating = [
            s for s in summaries if s.protocol == "terminating-three-phase-commit"
        ]
        worst = max(s.max_decision_latency() / s.max_delay for s in terminating)
        assert sink.worst("terminating-three-phase-commit") >= worst

    def test_rejects_nonpositive_bin_width(self):
        with pytest.raises(ValueError):
            DecisionTimeHistogramSink(bin_width=0)


class TestViolationCollectorSink:
    def test_collects_only_violations(self, summaries):
        sink = feed(ViolationCollectorSink(), summaries)
        expected = [s for s in summaries if s.atomicity_violated]
        assert sink.total == len(expected)
        assert sink.violations == expected
        assert sink.total > 0  # the naive protocol must violate somewhere

    def test_limit_bounds_retention_but_not_the_count(self, summaries):
        sink = feed(ViolationCollectorSink(limit=1), summaries)
        assert len(sink.violations) == 1
        assert sink.total == sum(1 for s in summaries if s.atomicity_violated)

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            ViolationCollectorSink(limit=-1)


class TestReportSinks:
    def test_atomicity_sink_matches_summarize_runs(self, summaries):
        batch = [s for s in summaries if s.protocol == "two-phase-commit"]
        sink = feed(AtomicitySink(), batch)
        assert sink.report == summarize_runs(batch)

    def test_blocking_sink_matches_blocking_report(self, summaries):
        batch = [s for s in summaries if s.protocol == "two-phase-commit"]
        sink = feed(BlockingSink(), batch)
        assert sink.report == blocking_report(batch)

    def test_named_sinks_keep_their_protocol_on_empty_streams(self):
        sink = AtomicitySink(protocol="two-phase-commit")
        sink.close()
        assert sink.report.protocol == "two-phase-commit"
        assert sink.report.total_runs == 0


class TestListAndCallbackSinks:
    def test_list_sink_materializes_in_delivery_order(self, summaries):
        sink = feed(ListSink(), summaries)
        assert sink.summaries == list(summaries)

    def test_callback_sink_forwards_every_pair(self, summaries):
        seen = []
        feed(CallbackSink(lambda i, s: seen.append((i, s.protocol))), summaries)
        assert [i for i, _ in seen] == list(range(len(summaries)))


class TestJsonlSink:
    def test_round_trips_summaries(self, tmp_path, summaries):
        path = tmp_path / "spill.jsonl"
        feed(JsonlSink(path), summaries)
        assert list(read_jsonl(path)) == list(summaries)

    def test_empty_sweep_still_writes_the_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert path.exists()
        assert list(read_jsonl(path)) == []

    def test_engine_spill_matches_direct_serialization(self, tmp_path, mixed_grid, summaries):
        path = tmp_path / "engine.jsonl"
        SweepEngine(workers=1).run_streaming(mixed_grid, sinks=JsonlSink(path))
        expected = b"".join(s.to_json_bytes() + b"\n" for s in summaries)
        assert path.read_bytes() == expected

    def test_reuse_across_sweeps_appends_and_count_matches_lines(self, tmp_path, summaries):
        sink = JsonlSink(tmp_path / "reuse.jsonl")
        feed(sink, summaries[:3])
        feed(sink, summaries[3:5])  # second sweep must not truncate the first
        assert sink.count == 5
        assert list(read_jsonl(sink.path)) == list(summaries[:5])

    def test_close_without_writes_never_clobbers_a_previous_spill(self, tmp_path, summaries):
        path = tmp_path / "spill.jsonl"
        feed(JsonlSink(path), summaries[:2])
        # A later sink at the same path that fails before any delivery (or
        # sees an empty sweep) must leave the earlier spill intact.
        JsonlSink(path).close()
        assert list(read_jsonl(path)) == list(summaries[:2])
