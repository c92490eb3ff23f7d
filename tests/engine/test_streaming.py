"""Streaming-execution guarantees: in-order delivery, bounded buffering,
worker-count-independent (byte-identical) aggregates, and cache reuse."""

import pytest

from repro.engine import (
    DecisionTimeHistogramSink,
    JsonlSink,
    ListSink,
    ScenarioGrid,
    StreamStats,
    SweepEngine,
    VerdictCounterSink,
    read_jsonl,
)
from repro.engine.registry import kind_by_name
from repro.experiments.throughput import DEFAULT_PROTOCOLS, throughput_tasks
from repro.sim.latency import UniformLatency
from repro.sim.partition import PartitionSchedule


@pytest.fixture(scope="module")
def grid():
    """Two protocols x partitions x latencies x seeds = 64 scenarios."""
    return ScenarioGrid(
        protocols=("terminating-three-phase-commit", "two-phase-commit"),
        n_sites=3,
        partitions=(
            None,
            PartitionSchedule.simple(1.5, [1, 2], [3]),
            PartitionSchedule.simple(2.5, [1], [2, 3]),
            PartitionSchedule.transient(1.5, 4.0, [1, 3], [2]),
        ),
        latencies=(None, UniformLatency(0.25, 1.0)),
        seeds=(0, 1, 2, 3),
    )


class TestInOrderDelivery:
    def test_stream_yields_run_order(self, grid):
        streamed = list(SweepEngine(workers=1).stream(grid))
        assert streamed == SweepEngine(workers=1).run(grid).summaries

    def test_parallel_stream_yields_same_order(self, grid):
        streamed = list(SweepEngine(workers=4, chunk_size=3).stream(grid))
        assert streamed == SweepEngine(workers=1).run(grid).summaries

    def test_run_streaming_delivers_every_index_once(self, grid):
        seen = []
        sink = ListSink()
        original = sink.accept
        sink.accept = lambda i, s: (seen.append(i), original(i, s))
        SweepEngine(workers=4, chunk_size=5).run_streaming(grid, sinks=sink)
        assert seen == list(range(len(grid)))


class TestWorkerCountIndependentAggregates:
    def test_jsonl_spill_is_byte_identical_across_worker_counts(self, grid, tmp_path):
        spills = {}
        for workers in (1, 4):
            path = tmp_path / f"w{workers}.jsonl"
            SweepEngine(workers=workers, chunk_size=4).run_streaming(
                grid, sinks=JsonlSink(path)
            )
            spills[workers] = path.read_bytes()
        assert spills[1] == spills[4]
        assert spills[1].count(b"\n") == len(grid)

    def test_counter_and_histogram_aggregates_are_identical(self, grid):
        aggregates = {}
        for workers in (1, 4):
            counter = VerdictCounterSink()
            histogram = DecisionTimeHistogramSink()
            SweepEngine(workers=workers).run_streaming(
                grid, sinks=(counter, histogram)
            )
            aggregates[workers] = (counter.reports, histogram.bins, histogram.undecided)
        assert aggregates[1] == aggregates[4]


class TestBoundedBuffering:
    @pytest.mark.parametrize("kind", ["scenario", "throughput"])
    def test_serial_streaming_buffers_at_most_one_summary(self, grid, kind):
        tasks = (
            list(grid.tasks())
            if kind == "scenario"
            else throughput_tasks(list(DEFAULT_PROTOCOLS), n_transactions=50)
        )
        sink = kind_by_name(kind).make_sink()
        stats = SweepEngine(workers=1).run_streaming(tasks, sinks=sink)
        assert stats.total == len(tasks)
        assert stats.max_buffered <= 1

    def test_parallel_streaming_never_buffers_the_whole_sweep(self, grid):
        # Chunked execution bounds the reorder buffer by in-flight chunk
        # results; with ordered chunk dispatch it stays well under the total.
        stats = SweepEngine(workers=2, chunk_size=4).run_streaming(
            grid, sinks=VerdictCounterSink()
        )
        assert stats.max_buffered < stats.total

    def test_stream_stats_throughput_and_elapsed(self, grid):
        stats = StreamStats()
        for _ in SweepEngine(workers=1).stream(grid, stats=stats):
            pass
        assert stats.total == len(grid)
        assert stats.elapsed > 0
        assert stats.throughput > 0


class TestStreamingCacheReuse:
    def test_warm_streaming_sweep_executes_nothing(self, grid, tmp_path):
        cold = SweepEngine(workers=1, cache=tmp_path).run_streaming(
            grid, sinks=VerdictCounterSink()
        )
        assert (cold.executed, cold.cache_hits) == (len(grid), 0)
        warm = SweepEngine(workers=1, cache=tmp_path).run_streaming(
            grid, sinks=VerdictCounterSink()
        )
        assert (warm.executed, warm.cache_hits) == (0, len(grid))
        assert warm.max_buffered == 0  # hits are re-read lazily, never buffered

    def test_warm_stream_matches_cold_aggregates(self, grid, tmp_path):
        cold_counter = VerdictCounterSink()
        SweepEngine(workers=1, cache=tmp_path).run_streaming(grid, sinks=cold_counter)
        warm_counter = VerdictCounterSink()
        SweepEngine(workers=4, cache=tmp_path).run_streaming(grid, sinks=warm_counter)
        assert cold_counter.reports == warm_counter.reports

    def test_sinks_are_closed_even_when_a_sink_raises(self, grid, tmp_path):
        path = tmp_path / "partial.jsonl"
        spill = JsonlSink(path)

        class Explode(ListSink):
            def accept(self, index, summary):
                if index == 3:
                    raise RuntimeError("boom")
                super().accept(index, summary)

        with pytest.raises(RuntimeError, match="boom"):
            SweepEngine(workers=1).run_streaming(grid, sinks=(spill, Explode()))
        # The spill was flushed on the error path: the summaries delivered
        # before the failure are durable and readable.
        assert spill._handle is None
        assert len(list(read_jsonl(path))) == 4

    def test_one_failing_close_does_not_skip_the_others(self, grid, tmp_path):
        path = tmp_path / "late.jsonl"
        spill = JsonlSink(path)

        class BadClose(ListSink):
            def close(self):
                raise RuntimeError("close boom")

        # BadClose comes first: its close() failure must still be raised,
        # but only after the JsonlSink behind it is flushed and closed.
        with pytest.raises(RuntimeError, match="close boom"):
            SweepEngine(workers=1).run_streaming(grid, sinks=(BadClose(), spill))
        assert spill._handle is None
        assert len(list(read_jsonl(path))) == len(grid)

    def test_close_failure_surfaces_even_inside_an_except_block(self, grid):
        class BadClose(ListSink):
            def close(self):
                raise RuntimeError("close boom")

        # A caller's unrelated in-flight exception must not swallow the
        # close() failure of an otherwise-successful streaming run.
        with pytest.raises(RuntimeError, match="close boom"):
            try:
                raise KeyError("unrelated")
            except KeyError:
                SweepEngine(workers=1).run_streaming(grid, sinks=BadClose())

    def test_warm_sweep_reads_each_cache_entry_exactly_once(self, grid, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path)
        engine.run_streaming(grid, sinks=ListSink())
        warm_cache = engine.cache
        warm_cache.hits = warm_cache.misses = 0
        reads = 0
        original = type(warm_cache).get_bytes

        def counting(self, spec_hash, seed, *, record=True):
            nonlocal reads
            reads += 1
            return original(self, spec_hash, seed, record=record)

        type(warm_cache).get_bytes = counting
        try:
            engine.run_streaming(grid, sinks=ListSink())
        finally:
            type(warm_cache).get_bytes = original
        # One counted probe + one unrecorded read per task; never two parses.
        assert reads == len(grid)
        assert (warm_cache.hits, warm_cache.misses) == (len(grid), 0)

    def test_evicted_cache_entry_is_reexecuted_inline(self, grid, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path)
        engine.run_streaming(grid, sinks=ListSink())
        reference = SweepEngine(workers=1).run(grid).summaries

        # Evict a file between the scan and delivery by deleting the whole
        # cache inside the first sink delivery.
        class Evict(ListSink):
            def accept(self, index, summary):
                if index == 0:
                    for path in tmp_path.glob("*/*.json"):
                        path.unlink()
                super().accept(index, summary)

        sink = Evict()
        stats = engine.run_streaming(grid, sinks=sink)
        assert sink.summaries == reference
        assert stats.executed + stats.cache_hits == len(grid)
