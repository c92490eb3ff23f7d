"""Engine determinism: worker count must not change results, and a warm
cache must serve byte-identical summaries without re-executing anything."""

import pathlib

import pytest

from repro.engine import ResultCache, ScenarioGrid, SweepEngine, SweepTask
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import (
    ByzantineSpec,
    FaultPlan,
    LinkFault,
    RetransmitPolicy,
)
from repro.sim.latency import UniformLatency
from repro.sim.partition import PartitionSchedule


@pytest.fixture(scope="module")
def grid():
    """A small but diverse grid: two protocols, permanent + transient
    partitions, constant + stochastic latencies, two vote patterns."""
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
        no_voter_options=(frozenset(), frozenset({3})),
        seeds=(0, 1),
    )


@pytest.fixture(scope="module")
def partition_sweep_grid():
    """One protocol at n=4: 12 onsets x 7 simple splits x 3 vote patterns = 252."""
    return ScenarioGrid.from_partition_sweep(
        "terminating-three-phase-commit",
        4,
        times=[round(0.25 * i, 2) for i in range(1, 13)],
        no_voter_options=(frozenset(), frozenset({2}), frozenset({4})),
    )


MEASURES = ("wait_in_w", "wait_in_p", "probe_window")


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("grid_fixture", ["grid", "partition_sweep_grid"])
    def test_workers_1_and_4_yield_identical_summary_sequences(self, request, grid_fixture):
        grid = request.getfixturevalue(grid_fixture)
        serial = SweepEngine(workers=1).run(grid, measures=MEASURES)
        parallel = SweepEngine(workers=4).run(grid, measures=MEASURES)
        assert serial.total == parallel.total == len(grid)
        # Results are reassembled in task order, so the sequences (not just
        # the multisets) must match element-for-element.
        assert serial.summaries == parallel.summaries

    def test_chunk_size_does_not_change_results(self, grid):
        small_chunks = SweepEngine(workers=4, chunk_size=1).run(grid)
        big_chunks = SweepEngine(workers=4, chunk_size=50).run(grid)
        assert small_chunks.summaries == big_chunks.summaries


class TestChunkFrameTransport:
    """Workers return summaries as canonical-JSON frames; nothing may drift."""

    def test_parallel_frames_decode_to_byte_identical_summaries(self, grid):
        serial = SweepEngine(workers=1).run(grid, measures=MEASURES)
        parallel = SweepEngine(workers=4, chunk_size=3).run(grid, measures=MEASURES)
        # Equality of the decoded summaries is necessary but not sufficient:
        # the cache stores the encoded bytes verbatim, so the serialized form
        # itself must round-trip without reordering or float drift.
        assert [s.to_json_bytes() for s in serial] == [
            s.to_json_bytes() for s in parallel
        ]

    def test_parallel_populated_cache_matches_serial_populated_cache(self, grid, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        SweepEngine(workers=1, cache=serial_dir).run(grid, measures=MEASURES)
        SweepEngine(workers=4, cache=parallel_dir).run(grid, measures=MEASURES)
        serial_files = {
            path.relative_to(serial_dir): path.read_bytes()
            for path in sorted(serial_dir.glob("*/*.json"))
        }
        parallel_files = {
            path.relative_to(parallel_dir): path.read_bytes()
            for path in sorted(parallel_dir.glob("*/*.json"))
        }
        assert serial_files == parallel_files
        assert len(serial_files) == len(grid)


class TestCacheDeterminism:
    def test_warm_cache_is_byte_identical_and_executes_nothing(self, grid, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(workers=1, cache=ResultCache(cache_dir))

        cold = engine.run(grid, measures=MEASURES)
        assert (cold.executed, cold.cache_hits) == (len(grid), 0)
        cold_files = {
            path.relative_to(cache_dir): path.read_bytes()
            for path in sorted(pathlib.Path(cache_dir).glob("*/*.json"))
        }
        assert len(cold_files) == len(grid)

        warm = engine.run(grid, measures=MEASURES)
        assert (warm.executed, warm.cache_hits) == (0, len(grid))
        assert warm.summaries == cold.summaries
        warm_files = {
            path.relative_to(cache_dir): path.read_bytes()
            for path in sorted(pathlib.Path(cache_dir).glob("*/*.json"))
        }
        assert warm_files == cold_files

    def test_cache_written_serially_is_hit_by_parallel_engine(self, grid, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = SweepEngine(workers=1, cache=cache_dir).run(grid)
        warm = SweepEngine(workers=4, cache=cache_dir).run(grid)
        assert (warm.executed, warm.cache_hits) == (0, len(grid))
        assert warm.summaries == cold.summaries

    def test_cache_entry_without_requested_measures_is_a_miss(self, grid, tmp_path):
        # A cache populated without measures must not serve summaries with
        # empty metrics to a caller that asked for measures; re-execution
        # merges so entries only ever gain measures.
        engine = SweepEngine(workers=1, cache=tmp_path / "cache")
        engine.run(grid)  # no measures
        with_measures = engine.run(grid, measures=MEASURES)
        assert with_measures.cache_hits == 0
        for summary in with_measures:
            assert set(MEASURES) <= set(summary.metrics)
        # Now both the measured and the measure-free callers hit the cache.
        assert engine.run(grid, measures=MEASURES).cache_hits == len(grid)
        assert engine.run(grid).cache_hits == len(grid)
        # And a subset of measures is served without re-execution too.
        assert engine.run(grid, measures=("wait_in_w",)).cache_hits == len(grid)

    def test_changing_one_axis_invalidates_only_that_point(self, grid, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path / "cache")
        engine.run(grid)
        # A grid differing in one axis value re-executes only the new points.
        tasks = list(grid.tasks())
        changed = tasks[0].spec.__class__(**{**tasks[0].spec.__dict__, "seed": 99})
        partial = engine.run(
            [(tasks[0].protocol, changed)] + [(t.protocol, t.spec) for t in tasks[1:]]
        )
        assert partial.executed == 1
        assert partial.cache_hits == len(grid) - 1


@pytest.fixture(scope="module")
def fault_grid():
    """Fault-plan scenarios: lossy (raw + retransmit), duplicating and
    Byzantine plans, whose realizations come from the plan's own seeded RNG
    and so must be exactly as deterministic as the fault-free grid."""
    plans = (
        FaultPlan(links=(LinkFault(loss=0.3),), seed=3),
        FaultPlan(
            links=(LinkFault(loss=0.3),),
            retransmit=RetransmitPolicy(),
            seed=3,
        ),
        FaultPlan(links=(LinkFault(duplicate=0.5, reorder=0.4),), seed=5),
        FaultPlan(byzantine=(ByzantineSpec(site=1),), seed=7),
    )
    return [
        SweepTask(
            protocol=protocol,
            spec=ScenarioSpec(n_sites=3, seed=seed, faults=plan),
        )
        for protocol in ("two-phase-commit", "terminating-three-phase-commit")
        for plan in plans
        for seed in (0, 1)
    ]


class TestFaultPlanDeterminism:
    """Fault realizations are part of the reproducibility contract: worker
    count, chunking and cache round-trips must never change a faulty run."""

    def test_workers_do_not_change_fault_realizations(self, fault_grid):
        serial = SweepEngine(workers=1).run(fault_grid)
        parallel = SweepEngine(workers=4, chunk_size=3).run(fault_grid)
        assert [s.to_json_bytes() for s in serial] == [
            s.to_json_bytes() for s in parallel
        ]

    def test_warm_cache_replays_faulty_runs_byte_identically(
        self, fault_grid, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(workers=1, cache=ResultCache(cache_dir))
        cold = engine.run(fault_grid)
        warm = engine.run(fault_grid)
        assert (warm.executed, warm.cache_hits) == (0, len(fault_grid))
        assert [s.to_json_bytes() for s in warm] == [
            s.to_json_bytes() for s in cold
        ]

    def test_empty_fault_plan_is_byte_identical_to_no_plan(self):
        # The ISSUE acceptance criterion: FaultPlan.none() must normalize
        # away entirely -- same spec hash, same cache key, same summary
        # bytes as a spec that never heard of fault plans.
        bare = ScenarioSpec(n_sites=3, seed=0)
        noned = ScenarioSpec(n_sites=3, seed=0, faults=FaultPlan.none())
        assert noned.faults is None
        assert bare == noned
        tasks = [
            SweepTask(protocol="two-phase-commit", spec=bare),
            SweepTask(protocol="two-phase-commit", spec=noned),
        ]
        assert tasks[0].spec_hash == tasks[1].spec_hash
        first, second = SweepEngine(workers=1).run(tasks).summaries
        assert first.to_json_bytes() == second.to_json_bytes()


class TestObservabilityByteIdentity:
    """Metrics and spans are strictly out-of-band: enabling them must never
    change a summary byte, a cache file, or a JSONL spill."""

    def test_summaries_identical_with_metrics_and_spans_enabled(self, grid):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder

        plain = SweepEngine(workers=1).run(grid, measures=MEASURES)
        observed = SweepEngine(
            workers=1, metrics=MetricsRegistry(), spans=SpanRecorder()
        ).run(grid, measures=MEASURES)
        assert [s.to_json_bytes() for s in plain] == [
            s.to_json_bytes() for s in observed
        ]

    def test_cache_files_identical_with_metrics_enabled(self, grid, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder

        plain_dir, observed_dir = tmp_path / "plain", tmp_path / "observed"
        SweepEngine(workers=4, cache=plain_dir).run(grid, measures=MEASURES)
        SweepEngine(
            workers=4,
            cache=observed_dir,
            metrics=MetricsRegistry(),
            spans=SpanRecorder(),
        ).run(grid, measures=MEASURES)
        plain_files = {
            path.relative_to(plain_dir): path.read_bytes()
            for path in sorted(plain_dir.glob("*/*.json"))
        }
        observed_files = {
            path.relative_to(observed_dir): path.read_bytes()
            for path in sorted(observed_dir.glob("*/*.json"))
        }
        assert plain_files == observed_files
        assert len(plain_files) == len(grid)

    def test_jsonl_spill_identical_with_metrics_enabled(self, grid, tmp_path):
        from repro.engine import JsonlSink
        from repro.obs.metrics import MetricsRegistry

        plain_path = tmp_path / "plain.jsonl"
        observed_path = tmp_path / "observed.jsonl"
        plain_stats = SweepEngine(workers=1).run_streaming(
            grid, sinks=JsonlSink(plain_path)
        )
        observed_stats = SweepEngine(
            workers=1, metrics=MetricsRegistry()
        ).run_streaming(grid, sinks=JsonlSink(observed_path))
        assert plain_path.read_bytes() == observed_path.read_bytes()
        assert plain_stats.executed == observed_stats.executed


class TestMetricsDeterminism:
    """Order-independent instruments must agree between serial and parallel
    runs of the same grid: counters count work, not scheduling."""

    ORDER_INDEPENDENT = (
        "engine.tasks.total",
        "engine.tasks.executed",
        "engine.tasks.cache_hits",
        "sim.events_scheduled",
        "sim.events_executed",
        "sim.events_cancelled",
    )

    def test_parallel_merged_counters_equal_serial_counters(self, grid):
        from repro.obs.metrics import MetricsRegistry

        serial_registry = MetricsRegistry()
        SweepEngine(workers=1, metrics=serial_registry).run(grid)
        parallel_registry = MetricsRegistry()
        SweepEngine(workers=4, chunk_size=3, metrics=parallel_registry).run(grid)
        serial = serial_registry.snapshot()["counters"]
        parallel = parallel_registry.snapshot()["counters"]
        for name in self.ORDER_INDEPENDENT:
            assert serial[name] == parallel[name], name
        assert serial["engine.tasks.executed"] == len(grid)

    def test_task_execute_histogram_counts_every_task(self, grid):
        from repro.obs.metrics import MetricsRegistry

        for workers in (1, 4):
            registry = MetricsRegistry()
            SweepEngine(workers=workers, metrics=registry).run(grid)
            histogram = registry.snapshot()["histograms"][
                "engine.task.execute_seconds"
            ]
            assert histogram["count"] == len(grid), workers

    def test_worker_accounting_covers_every_task(self, grid):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        SweepEngine(workers=4, chunk_size=3, metrics=registry).run(grid)
        counters = registry.snapshot()["counters"]
        worker_tasks = sum(
            value
            for name, value in counters.items()
            if name.startswith("engine.worker.") and name.endswith(".tasks")
        )
        assert worker_tasks == len(grid)
        gauges = registry.snapshot()["gauges"]
        share = gauges["engine.dispatch_overhead_share"]
        assert 0.0 <= share <= 1.0

    def test_active_registry_is_restored_after_a_run(self, grid):
        from repro.obs.metrics import MetricsRegistry, get_active

        assert get_active() is None
        SweepEngine(workers=1, metrics=MetricsRegistry()).run(grid)
        assert get_active() is None
